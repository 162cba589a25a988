"""Command-line workbench tying the library together.

Exit codes: 0 ok/verified/accepted, 1 counterexample/false/rejected,
2 unknown/inconclusive, 3 usage or parse error, 4 internal error (a
crash, never read as a verdict).  Every command accepts
--json for a machine-readable tree with a "kind" discriminator per node.
"""

import argparse
import functools
import json
import sys

# xrec and hierarchy are imported by the commands that use them: each
# command runs in a fresh interpreter, and most never reach them
from . import alpha, proofs, syntax, whilelang
from .evaluator import Budget, eval_formula
from .terms import FalseC, TrueC, Var, operands

OK, FALSIFIED, UNKNOWN, USAGE, INTERNAL = 0, 1, 2, 3, 4


# ---------------------------------------------------------------------------
# JSON tree encoding


# kinds are class names in lower case, keys are field names, except:
_KINDS = {TrueC: "true", FalseC: "false"}
_KEYS = {"n": "value", "els": "else"}


@functools.cache
def _shape(cls):
    return (_KINDS.get(cls, cls.__name__.lower()),
            [(k, _KEYS.get(k, k)) for k in cls.__match_args__])


def tree_json(node):
    """The --json tree of a term, formula (guards included) or program."""
    kind, keys = _shape(type(node))
    if kind == "seq":  # one node per `;` chain, so only if and while nest
        return {"kind": kind, "statements": [
            tree_json(s) for s in operands(node, whilelang.Seq)]}
    out = {"kind": kind}
    for field, key in keys:
        v = getattr(node, field)
        if field == "var":
            v = v.name
        elif not isinstance(v, (str, int)):
            v = tree_json(v)
        out[key] = v
    return out


def _emit(args, human, payload):
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _emit_tree(args, node, kind=None, key=None, names=()):
    """Print a term, formula or program: as text after a `label: a, b` line
    per (label, json key, variables or one variable) triple of names, or
    with --json as its tree, which names wrap as {"kind": kind, key: tree,
    json key: names, ...}.  Only the form printed is built."""
    named = [(label, k, v.name if isinstance(v, Var) else [w.name for w in v])
             for label, k, v in names]
    if args.json:
        tree = tree_json(node)
        _emit(args, None, {"kind": kind, key: tree,
                           **{k: v for _, k, v in named}} if named else tree)
    else:
        head = "".join(f"{label}: " + (v if isinstance(v, str)
                                       else ", ".join(v) or "(none)") + "\n"
                       for label, _, v in named)
        _emit(args, head + syntax.format_formula(node), None)


# ---------------------------------------------------------------------------
# Argument helpers


class CliError(Exception):
    pass


def _parse_assignment(text):
    """'x=3,y=0' -> {Var: int}; empty string means the empty assignment."""
    env = {}
    if not text:
        return env
    for piece in text.split(","):
        if "=" not in piece:
            raise CliError(f"bad assignment {piece!r}: expected name=value")
        name, _, val = piece.partition("=")
        try:
            n, v = int(val), Var(name.strip())
        except ValueError as e:
            raise CliError(f"bad assignment {piece!r}: {e}")
        if n < 0:
            raise CliError(f"bad assignment {piece!r}: values are naturals")
        if v in env:
            raise CliError(f"bad assignment {piece!r}: {v.name} is repeated")
        env[v] = n
    return env


def _parse_vars(text):
    if not text:
        return []
    try:
        vs = [Var(v.strip()) for v in text.split(",")]
    except ValueError as e:
        raise CliError(str(e))
    for i, v in enumerate(vs):
        if v in vs[:i]:
            raise CliError(f"bad variable list {text!r}: {v.name} is repeated")
    return vs


def _budget(args):
    q = getattr(args, "qbound", None)
    return Budget() if q is None else Budget(q_bound=q)


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse_formula(args):
    f = syntax.parse_formula(args.text)
    _emit_tree(args, f)
    return OK


def cmd_parse_program(args):
    p = syntax.parse_program(args.text)
    _emit_tree(args, p)
    return OK


def cmd_run(args):
    prog = syntax.parse_program(args.text)
    state = _parse_assignment(args.input)
    out = whilelang.run(prog, state, args.fuel)
    state_out = {v.name: n for v, n in sorted(out.state.items(),
                                              key=lambda kv: kv[0].name)}
    human = (f"{'terminated' if out.terminated else 'fuel exhausted'} "
             f"after {out.steps} steps: "
             + ", ".join(f"{k}={v}" for k, v in state_out.items()))
    _emit(args, human, {"kind": "run-outcome", "terminated": out.terminated,
                        "steps": out.steps, "state": state_out})
    return OK if out.terminated else UNKNOWN


def cmd_encode_alpha(args):
    prog = syntax.parse_program(args.text)
    if args.out_index is not None:
        inputs = _parse_vars(args.inputs)
        f, ins, y = alpha.encode_alpha_out(prog, args.out_index, inputs)
        _emit_tree(args, f, "alpha-out", "formula",
                   [("inputs", "inputs", ins), ("result", "result", y)])
    else:
        f, xs, ys = alpha.encode_alpha(prog)
        _emit_tree(args, f, "alpha", "formula",
                   [("vars", "vars", xs), ("out vars", "out_vars", ys)])
    return OK


def cmd_classify(args):
    from . import hierarchy
    f = syntax.parse_formula(args.text)
    lvl = hierarchy.classify(f)
    _emit(args, str(lvl), {"kind": "level", "class": lvl.kind, "n": lvl.n,
                           "strict": lvl.strict, "both": lvl.both})
    return OK


def cmd_prenex(args):
    from . import hierarchy
    f = syntax.parse_formula(args.text)
    g = hierarchy.prenexify(f)
    _emit_tree(args, g)
    return OK


def cmd_eval(args):
    f = syntax.parse_formula(args.text)
    env = _parse_assignment(args.assign)
    r = eval_formula(f, env, _budget(args))
    human = r.value + (f" ({r.reason})" if r.reason else "")
    _emit(args, human, {"kind": "verdict", "value": r.value, "reason": r.reason})
    return {"true": OK, "false": FALSIFIED}.get(r.value, UNKNOWN)


def _triple_from_args(args):
    prog = syntax.parse_program(args.text)
    pre = syntax.parse_formula(args.pre)
    post = syntax.parse_formula(args.post)
    params = tuple(_parse_vars(getattr(args, "params", "") or ""))
    return alpha.HoareTriple(pre, prog, post, params)


def cmd_vc(args):
    t = _triple_from_args(args)
    f = alpha.vc(t)
    _emit_tree(args, f)
    return OK


def cmd_check_triple(args):
    t = _triple_from_args(args)
    v = alpha.check_triple(t, args.grid, args.fuel, _budget(args))
    payload = {"kind": "triple-verdict", "status": v.status, "grid": v.grid,
               "fuel": v.fuel, "caveats": list(v.caveats)}
    lines = [f"{v.status} (grid {v.grid}, fuel {v.fuel})"]
    if v.status == "counterexample":
        payload["input"] = {x.name: n for x, n in v.input.items()}
        payload["output"] = {x.name: n for x, n in v.output.items()}
        lines.append("input:  " + ", ".join(f"{x.name}={n}"
                                            for x, n in v.input.items()))
        lines.append("output: " + ", ".join(f"{x.name}={n}"
                                            for x, n in v.output.items()))
    lines.extend(f"caveat: {c}" for c in v.caveats)
    _emit(args, "\n".join(lines), payload)
    return {"verified": OK, "counterexample": FALSIFIED}.get(v.status, UNKNOWN)


def cmd_xrec(args):
    from . import xrec
    h = syntax.parse_schema(_read_file(args.schema))
    if args.action == "eval":
        vals = [int(x) for x in args.args.split(",")] if args.args else []
        if any(v < 0 for v in vals):
            raise CliError(f"bad --args {args.args!r}: values are naturals")
        r = xrec.xrec_eval(h, vals, fuel=args.fuel)
        if r.diverged:
            _emit(args, f"no value within fuel {args.fuel}",
                  {"kind": "xrec-result", "diverged": True, "fuel": args.fuel})
            return UNKNOWN
        _emit(args, str(r.value),
              {"kind": "xrec-result", "value": r.value,
               "fuel_spent": r.fuel_spent})
        return OK
    if args.action == "gamma":
        f, xs, y = xrec.gamma(h)
        _emit_tree(args, f, "gamma", "formula",
                   [("inputs", "inputs", xs), ("result", "result", y)])
        return OK
    # compile
    prog, res, ps = xrec.compile_to_while(h)
    _emit_tree(args, prog, "compiled", "program",
               [("inputs", "inputs", ps), ("result", "result", res)])
    return OK


def cmd_sigma1_compile(args):
    from . import xrec
    f = syntax.parse_formula(args.text)
    prog, res, ps, xs = xrec.sigma1_to_program(f, Var(args.result))
    _emit_tree(args, prog, "compiled", "program",
               [("formula inputs", "formula_inputs", xs),
                ("program inputs", "inputs", ps), ("result", "result", res)])
    return OK


def cmd_pi1_program(args):
    from . import xrec
    psi = syntax.parse_formula(args.text)
    prog, res, ps, _ = xrec.pi1_counterexample_program(psi, Var(args.var))
    _emit_tree(args, prog, "compiled", "program",
               [("program inputs", "inputs", ps), ("result", "result", res)])
    return OK


def cmd_check_proof(args):
    pf = syntax.parse_proof(_read_file(args.file))
    rep = proofs.check_proof(pf, args.grid, _budget(args))
    nodes = [{"location": n.location, "status": n.status, "detail": n.detail}
             for n in rep.nodes]
    lines = [f"{'accepted' if rep.accepted else 'rejected'} (grid {rep.grid})"]
    for n in rep.nodes:
        if n.status != "accepted":
            lines.append(f"{n.location}: {n.status} — {n.detail}")
    _emit(args, "\n".join(lines),
          {"kind": "proof-report", "accepted": rep.accepted, "grid": rep.grid,
           "nodes": nodes})
    if not rep.accepted:
        return FALSIFIED
    return UNKNOWN if rep.caveats else OK


# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="arithver",
        description="Workbench for arithmetic assertions, while-programs, "
                    "program-encoding formulas and Hoare proofs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("parse-formula", cmd_parse_formula, help="parse and print a formula")
    p.add_argument("text")

    p = add("parse-program", cmd_parse_program, help="parse and print a program")
    p.add_argument("text")

    p = add("run", cmd_run, help="run a program with a fuel budget")
    p.add_argument("text")
    p.add_argument("--input", default="", help="initial state, e.g. x=3,y=0")
    p.add_argument("--fuel", type=int, default=10 ** 4)

    p = add("encode-alpha", cmd_encode_alpha,
            help="the Sigma_1 input/output formula of a program")
    p.add_argument("text")
    p.add_argument("--out-index", type=int, default=None,
                   help="1-based designated output variable")
    p.add_argument("--inputs", default="", help="input variables, e.g. x,y")

    p = add("classify", cmd_classify, help="arithmetical-hierarchy level")
    p.add_argument("text")

    p = add("prenex", cmd_prenex, help="strict prenex form at the same level")
    p.add_argument("text")

    p = add("eval", cmd_eval, help="three-valued bounded evaluation")
    p.add_argument("text")
    p.add_argument("--assign", default="", help="assignment, e.g. x=1,y=2")
    p.add_argument("--qbound", type=int, default=None)

    p = add("vc", cmd_vc, help="verification condition of a triple")
    p.add_argument("text")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--params", default="")

    p = add("check-triple", cmd_check_triple, help="desk-scale triple check")
    p.add_argument("text")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--fuel", type=int, default=10 ** 4)
    p.add_argument("--qbound", type=int, default=None)
    p.add_argument("--params", default="")

    p = add("xrec", cmd_xrec, help="evaluate/encode/compile a schema")
    p.add_argument("action", choices=["eval", "gamma", "compile"])
    p.add_argument("--schema", required=True, help="schema file")
    p.add_argument("--args", default="", help="arguments for eval, e.g. 3,4")
    p.add_argument("--fuel", type=int, default=10 ** 6)

    p = add("sigma1-compile", cmd_sigma1_compile,
            help="compile a functional Sigma_1 formula to a program")
    p.add_argument("text")
    p.add_argument("--result", required=True, help="result variable")

    p = add("pi1-program", cmd_pi1_program,
            help="least-counterexample searcher for forall VAR . psi")
    p.add_argument("text", help="the level-0 body psi")
    p.add_argument("--var", required=True)

    p = add("check-proof", cmd_check_proof, help="check a Hoare proof file")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--qbound", type=int, default=None)

    return top


def main(argv=None):
    # values outgrow int's 4,300-digit str conversion limit (Python >=
    # 3.10.7), whose ValueError would otherwise read as a usage error
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def _main(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except syntax.ParseError as e:
        print(f"parse error: {e.message} "
              f"(bytes {e.span.start}..{e.span.end})", file=sys.stderr)
        return USAGE
    except (CliError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
