"""A deterministic differential dump of arithver's observable outputs.

Prints one line per case: alpha and VC instances (hashed), gamma
instances of the schema library, three-valued verdicts with their
reasons from eval_formula and compile_formula side by side, program
print/parse round trips, guard parses with their errors, the binder
walks: classification, prenex and negation normal forms, free variables
and substitutions of random formulas, the values that compiled schemas
and Sigma_1 formulas compute, the grid sweeps: triple verdicts, proof
reports and least-witness searches, the reports on malformed variants
of two hand-written proofs, and the schema texts: each library schema
printed with its print/parse round trip, and the pinned parse errors;
the levels, prenex forms and level-0 characteristic functions of
formulas under extra `~`, `->`, `<->` and quantifier layers; the
printed text (hashed) of the gamma formulas, compiled programs, Sigma_1
and Pi_1 programs, alpha formulas and VCs that arithver builds, the same
texts read back by the parser and printed again, the levels of chains
of layered formulas beside the levels of their prenex forms, and last
the number of binders in prenex forms: of quantifier ladders under a
bounded binder, and of the same chains.
Run it against two trees and compare the outputs byte for byte:

    PYTHONPATH=src python tests/dump_outputs.py > new.txt
    PYTHONPATH=/path/to/other/src python tests/dump_outputs.py > old.txt
    cmp old.txt new.txt

Run it on one tree under two hash seeds too, and compare those outputs
the same way: a Var hashes by its address and a str by the seed, so a
difference means some output follows the order of a set or a dict
keyed by them.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dump_outputs.py > h0.txt
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/dump_outputs.py > h1.txt
    cmp h0.txt h1.txt

It imports arithver from whatever is on PYTHONPATH, and the test
generators from its own directory.  The file has no `test_` prefix, so
pytest does not collect it.
"""

import hashlib
import itertools
import random
from dataclasses import fields, is_dataclass, replace

from arithver.alpha import (HoareTriple, check_triple, encode_alpha,
                            instantiate_alpha, vc, vc_instance)
from arithver.evaluator import (Budget, WitnessSearchError, compile_formula,
                                eval_formula, find_witnesses)
from arithver.hierarchy import classify, nnf, prenexify
from arithver.proofs import (AssignAxiom, ConseqRule, ProofNode, WhileRule,
                             check_proof)
from arithver.syntax import (ParseError, format_schema, parse_bool,
                             parse_formula, parse_program, parse_schema)
from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, Forall,
                            Lit, Lt, Names, Or, TrueC, Var, alpha_equal,
                            free_vars, substitute, substitute_simultaneous)
from arithver.whilelang import (Assign, Program, Seq, While, program_vars,
                                run)
from arithver.xrec import (STDLIB, Proj, bexists, bforall, cases,
                           compile_to_while, gamma, gamma_instance,
                           pi1_counterexample_program, prod_of, sigma0_char,
                           sigma1_to_program, sum_of, xrec_eval)

from generators import (VARS, bounded_ladder, layered_chain,
                        layered_formula, random_bool, random_formula,
                        random_program, random_term)
from test_acceptance import SIGMA1_FIXTURES
from test_proofs import conditional_proof, counting_loop_proof
from test_syntax import OPERATOR_ERRORS, SCHEMA_ERRORS

FUELS = (-1, 0, 1, 2, 3, 5, 8, 13, 40, 200)
X, Y = Var("x"), Var("y")
COUNT = Seq(Assign(Y, Lit(0)), While(Lt(Y, X), Assign(Y, Add(Y, Lit(1)))))
# random_formula's binder names, and their primed copies as substitution
# targets: a target may equal the name a renamed binder gets
BINDERS = [Var(c) for c in "abcduvw"]
PRIMED = [Var(c + "'") for c in "abcduvw"]
PI1_BODIES = ("y < 9", "y * y < y + 3", "~(y = 3)",
              "exists z < y . z + z = y", "forall z < y . z * z < y")
MALFORMED = ("x = 1", "x < 1 /\\ y < 2", "true", "exists y . y < x",
             "x < 1 <-> y < 1", "x <", "~", "(x < 1", "x < 1 -> if")


def _leaf(v):
    # hex, because decimal conversion of huge ints is capped
    if isinstance(v, int):
        return f"i{v:x};".encode()
    return f"{type(v).__name__}:{v};".encode()


def digest(root):
    """A short sha256 of a dataclass tree, by an explicit post-order walk;
    a node shared by several parents is hashed once."""
    if root is None:
        return "None"
    done = {}
    todo = [root]
    while todo:
        n = todo[-1]
        if id(n) in done:
            todo.pop()
            continue
        kids = [getattr(n, f.name) for f in fields(n)]
        pending = [k for k in kids if is_dataclass(k) and id(k) not in done]
        if pending:
            todo += pending
            continue
        todo.pop()
        h = hashlib.sha256(type(n).__name__.encode())
        for k in kids:
            h.update(done[id(k)] if is_dataclass(k) else _leaf(k))
        done[id(n)] = h.digest()
    return done[id(root)].hex()[:16]


def attempt(thunk):
    """thunk's result, or its error as `!ParseError message` or `!Class`."""
    try:
        return thunk()
    except ParseError as e:
        return f"!ParseError {e}"
    except (RecursionError, ValueError) as e:
        return f"!{type(e).__name__}"


def _state(point):
    return ",".join(f"{v}={n}" for v, n in point.items())


def dump_instances(rng):
    post = Eq(Y, X)
    for n in range(40):
        st = {X: n}
        for fuel in (2 * n + 1, 2 * n + 2, 1000):
            a = instantiate_alpha(COUNT, st, fuel)
            v = vc_instance(HoareTriple(TrueC(), COUNT, post), st, fuel)
            ok = None if a is None else eval_formula(a, {}).value
            print(f"count x={n} fuel={fuel} alpha={digest(a)} {ok} "
                  f"vc={digest(v)}")
    progs = []
    for k in range(400):
        p = random_program(rng)
        progs.append(p)
        st = {v: rng.randrange(5) for v in program_vars(p)}
        t = HoareTriple(random_bool(rng, 1), p, random_formula(rng, 1))
        for fuel in FUELS:
            a = instantiate_alpha(p, st, fuel)
            v = vc_instance(t, st, fuel)
            print(f"prog {k} {_state(st)} fuel={fuel} alpha={digest(a)} "
                  f"vc={digest(v)}")
    return progs


def dump_gamma():
    for name in sorted(STDLIB):
        h = STDLIB[name]()
        for args in itertools.product(range(4), repeat=h.arity):
            val = xrec_eval(h, list(args), fuel=10 ** 6).value
            inst = gamma_instance(h, list(args), val)
            print(f"gamma {name} {list(args)} = {val} {digest(inst)} "
                  f"{eval_formula(inst, {}).value}")


def dump_eval(rng):
    for k in range(12000):
        f = random_formula(rng, 3)
        point = {v: rng.randrange(5) for v in VARS}
        budget = Budget(q_bound=k % 4)
        r = eval_formula(f, point, budget)
        c = compile_formula(f, budget)(point)
        print(f"eval {k} {r.value} {r.reason} | {c.value} {c.reason}")
    for n in (0, 1, 2, 3000, 3001):
        text = "~" * n + "x = 1"
        r = attempt(lambda: eval_formula(parse_formula(text), {X: 1}).value)
        print(f"eval-not-chain {n} {r}")


def dump_parses(rng, progs):
    for k, p in enumerate(progs):
        q = attempt(lambda: parse_program(str(p)))
        print(f"parse-program {k} {q == p} {q if isinstance(q, str) else ''}")
    guards = [str(random_bool(rng, 3)) for _ in range(500)]
    guards += [str(random_formula(rng, 2)) for _ in range(200)]
    guards += MALFORMED
    for k, text in enumerate(guards):
        for wrap in ("{}", "if {} then x := 0 else x := 1 fi",
                     "while {} do x := 0 od"):
            src = wrap.format(text)
            parse = parse_bool if wrap == "{}" else parse_program
            r = attempt(lambda: parse(src))
            shown = r if isinstance(r, str) else digest(r)
            print(f"guard {k} {src!r} {shown}")


def dump_binders(rng):
    for k in range(3000):
        f = random_formula(rng, 3 + k % 2)
        print(f"binder {k} classify {classify(f)}")
        print(f"binder {k} prenex {prenexify(f)}")
        print(f"binder {k} nnf {nnf(f, Names(free_vars(f)))}")
        print(f"binder {k} free {sorted(v.name for v in free_vars(f))}")
        v, t = rng.choice(VARS), random_term(rng, 2, VARS + BINDERS)
        print(f"binder {k} subst {attempt(lambda: substitute(f, v, t))}")
        targets = rng.sample(VARS + PRIMED, rng.randint(1, 3))
        pairs = [(v, random_term(rng, 2, VARS + BINDERS)) for v in targets]
        r = attempt(lambda: substitute_simultaneous(f, pairs))
        print(f"binder {k} simul {r}")


def dump_compiled():
    # values only: the program text and its step counts may change; the
    # fuel lets every run here halt on both sides of a comparison
    c = STDLIB["chi_lt"]()
    schemas = [(name, STDLIB[name]()) for name in sorted(STDLIB)]
    schemas += [(comb.__name__, comb(c))
                for comb in (sum_of, prod_of, bexists, bforall)]
    for name, h in schemas:
        prog, res, ps = compile_to_while(h)
        for args in itertools.product(range(4), repeat=h.arity):
            out = run(prog, dict(zip(ps, args)), 10 ** 8)
            print(f"compiled {name} {list(args)} = "
                  f"{out.state[res] if out.terminated else None} {out.terminated}")
    for name, f, _, _ in SIGMA1_FIXTURES:
        prog, res, ps, _ = sigma1_to_program(f, Y)
        for n in range(4):
            out = run(prog, {ps[0]: n}, 10 ** 8)
            print(f"sigma1 {name} x={n} = "
                  f"{out.state[res] if out.terminated else None} {out.terminated}")


def dump_sweeps(rng):
    # fuels 1 and 3 run most programs out; a param may be a program
    # variable or the otherwise unused n
    n = Var("n")
    for k in range(300):
        t = HoareTriple(random_formula(rng, 1 + k % 2, VARS + [n]),
                        random_program(rng),
                        random_formula(rng, 1 + k % 2, VARS + [n]),
                        tuple(rng.sample(VARS + [n], rng.randrange(3))))
        v = check_triple(t, 2, (1, 3, 8, 40)[k % 4], Budget(q_bound=k % 4))
        shown = "" if v.input is None else f"{_state(v.input)} -> {_state(v.output)}"
        print(f"triple {k} {v.status} {shown} {' | '.join(v.caveats)}")
    # consequence rules around a sound assignment axiom, so each proof's
    # side conditions are random implications swept over the grid
    proofs = [counting_loop_proof()]
    for k in range(300):
        post = random_formula(rng, 1 + k % 2)
        stmt = Assign(rng.choice(VARS), random_term(rng, 2))
        inner = AssignAxiom(HoareTriple(substitute(post, stmt.var, stmt.expr),
                                        stmt, post))
        proofs.append(ConseqRule(inner, HoareTriple(random_formula(rng, 1),
                                                    stmt,
                                                    random_formula(rng, 1))))
    for k, pf in enumerate(proofs):
        rep = check_proof(pf, 1 + k % 2, Budget(q_bound=k % 4))
        for node in rep.nodes:
            print(f"proof {k} {node.location} {node.status} {node.detail}")
    for name, f, _, _ in SIGMA1_FIXTURES:
        searched = prenexify(Exists(Y, f))
        for x in range(7):
            for q in (2, 8, 40):
                try:
                    w = find_witnesses(searched, {X: x}, Budget(q_bound=q))
                    shown = w if w is None else _state(dict(w))
                except WitnessSearchError as e:
                    shown = f"!WitnessSearchError {e}"
                print(f"witness {name} x={x} q={q} {shown}")


def _proof_nodes(pf, path=()):
    """(path, node) for every node of a proof, parents first; a path is
    the field names that lead to the node from the root."""
    yield path, pf
    for f in fields(pf):
        kid = getattr(pf, f.name)
        if isinstance(kid, ProofNode):
            yield from _proof_nodes(kid, path + (f.name,))


def _replace_at(pf, path, node):
    if not path:
        return node
    kid = getattr(pf, path[0])
    return replace(pf, **{path[0]: _replace_at(kid, path[1:], node)})


def dump_mutants(rng):
    # each node of two accepted proofs with one or two parts replaced,
    # checked in place (where an ancestor usually rejects first) and as the
    # root.  A replacement is drawn from the proof's own parts half the
    # time, so many variants get past their rule's first conditions, and
    # replacing a pre and a post at once breaks two conditions, so the
    # output shows which one the checker tests first
    k = 0
    for name, pf in (("count", counting_loop_proof()),
                     ("cond", conditional_proof())):
        nodes = list(_proof_nodes(pf))
        triples = [n.conclusion for _, n in nodes]
        assertions = [f for t in triples for f in (t.pre, t.post)]
        programs = [t.prog for t in triples]

        def pick(pool, fresh):
            return rng.choice(pool) if rng.random() < 0.5 else fresh()

        for path, node in nodes:
            c = node.conclusion
            variants = []
            for _ in range(12):
                variants += [
                    ("pre", replace(node, conclusion=replace(
                        c, pre=pick(assertions, lambda: random_formula(rng, 1))))),
                    ("post", replace(node, conclusion=replace(
                        c, post=pick(assertions, lambda: random_formula(rng, 1))))),
                    ("prog", replace(node, conclusion=replace(
                        c, prog=pick(programs, lambda: random_program(rng, 2))))),
                    ("pre+post", replace(node, conclusion=replace(
                        c, pre=pick(assertions, lambda: random_formula(rng, 1)),
                        post=pick(assertions, lambda: random_formula(rng, 1)))))]
                if isinstance(node, WhileRule):
                    variants.append(("invariant", replace(node, invariant=pick(
                        assertions, lambda: random_formula(rng, 1)))))
            variants += [("swap", replace(node, conclusion=t))
                         for t in triples if t is not c]
            where = ".".join(("root",) + path)
            for kind, v in variants:
                for scope, root in (("in-place", _replace_at(pf, path, v)),
                                    ("alone", v)):
                    rep = check_proof(root, 1 + k % 2, Budget(q_bound=k % 4))
                    for n in rep.nodes:
                        print(f"mutant {k} {name} {where} {kind} {scope} "
                              f"{n.location} {n.status} {n.detail}")
                k += 1


def dump_schemas():
    c, x, y = STDLIB["chi_lt"](), Proj(1, 2), Proj(2, 2)
    schemas = [(name, STDLIB[name]()) for name in sorted(STDLIB)]
    schemas += [(f"{comb.__name__}(chi_lt)", comb(c))
                for comb in (sum_of, prod_of, bexists, bforall)]
    schemas.append(("cases(chi_lt, y; chi_lt, x)", cases([(c, y), (c, x)])))
    for name, h in schemas:
        text = format_schema(h)
        again = attempt(lambda: parse_schema(text))
        rep = hashlib.sha256(repr(h).encode()).hexdigest()[:16]
        print(f"schema {name} repr={rep} {again == h} {text}")
    for text, _, _ in SCHEMA_ERRORS:
        print(f"schema-error {text!r} {attempt(lambda: parse_schema(text))}")
    for text, _, _ in OPERATOR_ERRORS:
        print(f"operator-error {text!r} {attempt(lambda: parse_formula(text))}")


def dump_levels(rng):
    # formulas under layers of `~`, `->`, `<->` and quantifiers: their
    # levels, prenex forms, and the characteristic functions of level 0
    for k in range(300):
        f = layered_formula(rng, 2 + k % 2)
        lvl = classify(f)
        print(f"level {k} {lvl} {prenexify(f)}")
        if lvl.n == 0:
            print(f"level {k} char {attempt(lambda: digest(sigma0_char(f)))}")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dump_texts(rng):
    # the text of what arithver builds; returns each (kind, name, node)
    # for dump_readback
    built = []

    def show(kind, name, node):
        text = str(node)
        print(f"text {kind} {name} {len(text)} {_sha(text)}")
        built.append((kind, name, node))

    for name in sorted(STDLIB):
        h = STDLIB[name]()
        show("gamma", name, gamma(h)[0])
        show("compiled", name, compile_to_while(h)[0])
    for name, f, _, _ in SIGMA1_FIXTURES:
        show("sigma1", name, sigma1_to_program(f, Y)[0])
    for body in PI1_BODIES:
        show("pi1", repr(body),
             pi1_counterexample_program(parse_formula(body), Y)[0])
    for k in range(300):
        p = random_program(rng)
        show("alpha", k, encode_alpha(p)[0])
        t = HoareTriple(random_formula(rng, 1), p, random_formula(rng, 1))
        show("vc", k, vc(t))
    return built


def dump_readback(built):
    # each text of dump_texts read back: whether the parser rebuilds the
    # node, and the hash of the node it builds, printed again.  The tree
    # is the same when it is alpha-equal and prints the same text, which
    # shows every name; `==` would recurse once per `;` of a long chain
    for kind, name, node in built:
        parse = parse_program if isinstance(node, Program) else parse_formula
        text = str(node)
        again = attempt(lambda: parse(text))
        if isinstance(again, str):
            print(f"readback {kind} {name} False {again}")
            continue
        same = alpha_equal(again, node) and str(again) == text
        print(f"readback {kind} {name} {same} {_sha(str(again))}")


def dump_prenex_levels(rng):
    # chains of layered formulas, some under one more binder: the level of
    # each and of its prenex form, which should be the same
    for k in range(300):
        f = layered_chain(rng)
        print(f"prenex-level {k} {classify(f)} | {classify(prenexify(f))}")


def _binders(f):
    """The number of quantifiers, bounded or not, of a formula in negation
    normal form, walked by a stack."""
    count, todo = 0, [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (And, Or)):
            todo += (g.left, g.right)
        elif isinstance(g, (Exists, Forall, BExists, BForall)):
            count += 1
            todo.append(g.body)
    return count


def dump_prenex_sizes(rng):
    # the binders of prenex forms, which should grow linearly: k
    # alternations under one bounded binder, and the prenex-level chains
    for k in range(2, 25):
        g = prenexify(bounded_ladder(k))
        print(f"prenex-size ladder {k} {classify(g)} {_binders(g)}")
    for k in range(300):
        g = prenexify(layered_chain(rng))
        print(f"prenex-size chain {k} {_binders(g)}")


def main():
    rng = random.Random(2017)
    progs = dump_instances(rng)
    dump_gamma()
    dump_eval(rng)
    dump_parses(rng, progs)
    dump_binders(random.Random(1988))
    dump_compiled()
    dump_sweeps(random.Random(1978))
    dump_mutants(random.Random(1981))
    dump_schemas()
    dump_levels(random.Random(2017))
    dump_readback(dump_texts(random.Random(1969)))
    dump_prenex_levels(random.Random(2026))
    dump_prenex_sizes(random.Random(2026))


if __name__ == "__main__":
    main()
