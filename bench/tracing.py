"""Spans around arithver's public functions, installed from outside.

Only the traced run installs a Tracer.  It replaces each traced function
on its defining module and on every arithver module that bound the same
function object with `from .x import f`, and puts the originals back on
uninstall.  Nothing under src/ is edited.

A span records its name, start, end, parent span and the verdict it
belongs to (-1 during set-up).  Recursive functions, and functions that
share one span name, open a span only at their outermost call.  Counts
that describe a call's result (steps, nodes, bits, ...) are taken after
the span has closed, and their time is charged to no span.
"""

import dataclasses
import gzip
import importlib
import sys
import time
from array import array


def _after_run(t, args, kwargs, result):
    t.count("whilelang.run.steps", result.steps)
    t.count("whilelang.run.out_of_fuel", not result.terminated)
    prog = args[0]
    if id(prog) in t.programs_seen:
        t.count("whilelang.run.reused", 1)
    else:
        t.programs_seen[id(prog)] = prog  # kept alive so the id stays unique


def _after_instantiate(t, args, kwargs, result):
    from arithver import terms
    if result is not None:
        t.count("alpha.instantiate_alpha.nodes",
                count_nodes(result, (terms.Formula, terms.Term)))


def _after_seq_encode(t, args, kwargs, result):
    t.maximum("coding.seq_encode.max_bits", result.bit_length())


def _after_check_triple(t, args, kwargs, result):
    from arithver import whilelang
    triple = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    sweep = list(triple.params) + whilelang.program_vars(triple.prog)
    points = (grid + 1) ** len(sweep)
    if result.status == "counterexample":
        # the sweep stops at the counterexample: its rank in product order
        points = 0
        for v in sweep:
            points = points * (grid + 1) + result.input[v]
        points += 1
    t.count("alpha.check_triple.points", points)


def _after_check_proof(t, args, kwargs, result):
    t.count("proofs.check_proof.caveats", len(result.caveats))


def _after_eval_formula(t, args, kwargs, result):
    t.count("evaluator.eval_formula.unknown", not result.is_exact())


def _after_compile(t, args, kwargs, result):
    from arithver import whilelang
    t.count("xrec.program_assigns",
            count_nodes(result[0], whilelang.Program, whilelang.Assign))


def _before_parse(t, args, kwargs):
    # counted before the call, so that texts the parser fails on count too
    t.count("syntax.parse.bytes", len(args[0]))


# span name -> (module, function names, hook run on the result)
TRACED = {
    "whilelang.run": ("arithver.whilelang", ("run",), _after_run),
    "coding.split": ("arithver.coding", ("split",), None),
    "coding.seq_encode": ("arithver.coding", ("seq_encode",), _after_seq_encode),
    "alpha.instantiate_alpha": ("arithver.alpha", ("instantiate_alpha",),
                                _after_instantiate),
    "alpha.vc_instance": ("arithver.alpha", ("vc_instance",), None),
    "alpha.check_triple": ("arithver.alpha", ("check_triple",),
                           _after_check_triple),
    "proofs.check_proof": ("arithver.proofs", ("check_proof",),
                           _after_check_proof),
    "evaluator.eval_formula": ("arithver.evaluator", ("eval_formula",),
                               _after_eval_formula),
    "evaluator.find_witnesses": ("arithver.evaluator", ("find_witnesses",), None),
    "hierarchy.classify": ("arithver.hierarchy", ("classify",), None),
    "hierarchy.prenexify": ("arithver.hierarchy", ("prenexify",), None),
    "xrec.sigma1_to_program": ("arithver.xrec", ("sigma1_to_program",), None),
    "xrec.compile_to_while": ("arithver.xrec", ("compile_to_while",),
                              _after_compile),
    "xrec.gamma_instance": ("arithver.xrec", ("gamma_instance",), None),
    "xrec.xrec_eval": ("arithver.xrec", ("xrec_eval",), None),
    "terms.substitute": ("arithver.terms",
                         ("substitute", "substitute_simultaneous"), None),
    "terms.alpha_equal": ("arithver.terms", ("alpha_equal",), None),
    "syntax.parse": ("arithver.syntax",
                     ("parse_term", "parse_formula", "parse_bool",
                      "parse_program", "parse_schema", "parse_proof",
                      "parse_triple"), None),
    "cli.main": ("arithver.cli", ("main",), None),
}

# span name -> hook run on the arguments, before the call
BEFORE = {"syntax.parse": _before_parse}

# counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = ("whilelang.run.steps", "alpha.instantiate_alpha.nodes",
                 "coding.seq_encode.max_bits", "xrec.program_assigns",
                 "proofs.check_proof.caveats")

_FIELDS = {}


def count_nodes(root, kinds, counted=None):
    """Nodes of a dataclass tree whose children are instances of kinds.

    Counts every node, or only instances of `counted` when given.  Walks
    with an explicit stack: instances nest thousands deep.
    """
    n = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if counted is None or isinstance(node, counted):
            n += 1
        cls = type(node)
        names = _FIELDS.get(cls)
        if names is None:
            names = _FIELDS[cls] = [f.name for f in dataclasses.fields(cls)]
        for name in names:
            child = getattr(node, name)
            if isinstance(child, kinds):
                stack.append(child)
    return n


class Tracer:
    def __init__(self):
        self.verdict = -1
        self.span_names = list(TRACED)
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        # one row per span, in opening order
        self.sp_name = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("i")
        self.sp_verdict = array("i")
        self._open = []       # stack of [span index, ns covered by children]
        self._active = set()  # span names with an open outermost call
        self.calls = dict.fromkeys(self.span_names, 0)
        self.self_ns = dict.fromkeys(self.span_names, 0)
        self.counts = {}
        self.programs_seen = {}
        self._patched = []

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, n):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def _charge_hook(self, start):
        # a hook's time is the tracer's, not the enclosing span's
        if self._open:
            self._open[-1][1] += time.perf_counter_ns() - start

    def _wrap(self, name, fn, after):
        tracer, active, open_ = self, self._active, self._open
        before = BEFORE.get(name)
        sid = self._ids[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            if before is not None:
                hook_start = clock()
                before(tracer, args, kwargs)
                tracer._charge_hook(hook_start)
            idx = len(tracer.sp_name)
            tracer.sp_name.append(sid)
            tracer.sp_parent.append(open_[-1][0] if open_ else -1)
            tracer.sp_verdict.append(tracer.verdict)
            frame = [idx, 0]
            open_.append(frame)
            tracer.sp_end.append(0)
            start = clock()
            tracer.sp_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.sp_end[idx] = end
                open_.pop()
                active.discard(name)
                dur = end - start
                if open_:
                    open_[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
            if after is not None:
                hook_start = clock()
                after(tracer, args, kwargs, result)
                tracer._charge_hook(hook_start)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        importlib.import_module("arithver.cli")  # imports every module
        modules = [m for n, m in sys.modules.items()
                   if n == "arithver" or n.startswith("arithver.")]
        for name, (modname, funcs, after) in TRACED.items():
            home = sys.modules[modname]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(name, orig, after)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def write_spans(self, path):
        """Spans as gzipped TSV, one row per span in opening order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tverdict\n")
            names = self.span_names
            for i in range(len(self.sp_name)):
                fh.write(f"{i}\t{names[self.sp_name[i]]}\t{self.sp_start[i]}\t"
                         f"{self.sp_end[i]}\t{self.sp_parent[i]}\t"
                         f"{self.sp_verdict[i]}\n")

    def layer_metrics(self):
        """Per-layer values keyed by metric name (without the unit)."""
        c, s, n = self.counts.get, self.self_ns, self.calls
        out = {}
        for name in self.span_names:
            out[name + ".self_s"] = s[name] / 1e9
            out[name + ".calls"] = n[name]
        runs = n["whilelang.run"]
        run_s = s["whilelang.run"] / 1e9
        out["whilelang.run.steps"] = c("whilelang.run.steps", 0)
        out["whilelang.run.msteps_per_s"] = (
            out["whilelang.run.steps"] / run_s / 1e6 if run_s else 0.0)
        out["whilelang.run.out_of_fuel"] = c("whilelang.run.out_of_fuel", 0)
        out["whilelang.run.program_reuse_share"] = (
            c("whilelang.run.reused", 0) / runs if runs else 0.0)
        out["coding.seq_encode.max_bits"] = c("coding.seq_encode.max_bits", 0)
        out["alpha.instantiate_alpha.nodes"] = c("alpha.instantiate_alpha.nodes", 0)
        out["alpha.check_triple.points"] = c("alpha.check_triple.points", 0)
        out["proofs.check_proof.caveats"] = c("proofs.check_proof.caveats", 0)
        evals = n["evaluator.eval_formula"]
        out["evaluator.eval_formula.unknown_share"] = (
            c("evaluator.eval_formula.unknown", 0) / evals if evals else 0.0)
        out["xrec.program_assigns"] = c("xrec.program_assigns", 0)
        parse_s = s["syntax.parse"] / 1e9
        out["syntax.parse.bytes_per_s"] = (
            c("syntax.parse.bytes", 0) / parse_s if parse_s else 0.0)
        return out
