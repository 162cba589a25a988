"""sweep: many small checks.

check_triple over input grids (thousands of runs of a few steps each),
check_proof on proof files parsed from text, classification, prenexing
and budgeted evaluation of the thirty hierarchy fixtures, and
find_witnesses on the Sigma_1 fixtures.  Per-call overhead dominates, not
per-step cost, and the evaluator searches many small assignments instead
of one huge formula.  Some inputs honestly answer unknown.
"""

from arithver import alpha, evaluator, hierarchy, proofs, syntax
from arithver.evaluator import Budget
from arithver.terms import Exists, Var, free_vars

from hierarchy_fixtures import FIXTURES
from test_acceptance import SIGMA1_FIXTURES

from common import PROOF_TEXTS, Op, expect, round_rng

TRACE_ROUNDS = 20
Y = Var("y")
COUNT = "y := 0; while y < x do y := y + 1 od"
# name, pre, program, post, params, grid, fuel, q_bound, expected outcome,
# runs per round.  Outcomes: verified, counterexample (at the all-zero
# first point), inconclusive, or caveated (verified only with a caveat
# per grid point).  Grids are fixed, so a triple costs the same in every
# round; count-exit runs six times, so that p90 falls inside one class of
# equal verdicts instead of in a gap between two.
TRIPLES = [
    ("count-n", "x = n", COUNT, "y = n", "n", 10, 2000, None, "verified", 1),
    ("count-exit", "true", COUNT, "~(y < x)", "", 10, 2000, None,
     "verified", 6),
    ("swap", "x = a /\\ y = b", "t := x; x := y; y := t", "x = b /\\ y = a",
     "a,b", 4, 10, None, "verified", 1),
    ("count-off-by-one", "true", COUNT, "y = x + 1", "", 5, 2000, None,
     "counterexample", 1),
    ("count-n-off", "x = n", COUNT, "y = n + 1", "n", 5, 2000, None,
     "counterexample", 1),
    ("negative", "true", "x := x", "x < 0", "", 5, 10, None,
     "counterexample", 1),
    ("unsettled-post", "true", "x := 0", "exists z. z = y + 6", "", 3, 100, 3,
     "inconclusive", 1),
    ("diverges", "true", "while 0 < 1 do x := x od", "false", "", 3, 50,
     None, "caveated", 1),
]

# name, grid range, q_bound, expected (accepted, rejected or caveated),
# runs per round
PROOFS = [
    ("count", (3, 8), None, "accepted", 2),
    ("lie", (3, 8), None, "rejected", 1),
    ("unsettled", (2, 3), 3, "caveated", 1),
]

# the truth of each fixture over N, derived by hand; v maps names to values
FIXTURE_TRUTH = {
    "x = y": lambda v: v["x"] == v["y"],
    "x < y /\\ y < z": lambda v: v["x"] < v["y"] < v["z"],
    "~(x = 0) \\/ true": lambda v: True,
    "forall i<x. i < x": lambda v: True,
    "forall i<x. exists j<i. j < x": lambda v: v["x"] == 0,
    "x < 3 -> x < 4": lambda v: True,
    "exists y. y + y = x": lambda v: v["x"] % 2 == 0,
    "exists y. exists z. x = y + z": lambda v: True,
    "exists y. forall i<y. i < x": lambda v: True,
    "(exists y. y = x) /\\ x < 5": lambda v: v["x"] < 5,
    "(exists y. y = x) \\/ (exists z. z + z = x)": lambda v: True,
    "forall i<x. exists y. y + i = x": lambda v: True,
    "forall y. x < y \\/ y < x \\/ x = y": lambda v: True,
    "forall y. forall z. y + z = z + y": lambda v: True,
    "~(exists y. y + y = x)": lambda v: v["x"] % 2 == 1,
    "(forall y. x < y + 1) /\\ x = x": lambda v: v["x"] == 0,
    "forall i<x. forall y. i < y + x + 1": lambda v: True,
    "exists i<x. forall y. x < y + i + 1": lambda v: False,
    "exists y. forall z. x * z < y + 1": lambda v: v["x"] == 0,
    "exists y. ~(exists z. z + y = x)": lambda v: True,
    "exists x. exists y. forall z. z < x + y \\/ x = y": lambda v: True,
    "~(forall y. exists z. y < z + x)": lambda v: False,
    "exists y. (forall z. z + y < x + z + 1) /\\ y < x": lambda v: v["x"] > 0,
    "(exists y. forall z. z < y \\/ z = z) /\\ (exists w. w = x)":
        lambda v: True,
    "(forall y. y < x + y + 1) /\\ (exists z. z = x)": lambda v: True,
    "forall x. exists y. y = x + 1": lambda v: True,
    "forall y. exists z. x < z /\\ y < z": lambda v: True,
    "forall e. exists d. forall i<d. i + e < d + e + 1": lambda v: True,
    "exists a. forall b. exists c. a + b = c \\/ c < b": lambda v: True,
    "forall a. exists b. forall c. c < b \\/ a < c + 1": lambda v: True,
}
FIXTURE_BUDGET = Budget(q_bound=8)


class Inputs:
    """Everything parsed from text at set-up."""

    def __init__(self, seed):
        self.seed = seed
        self.triples = []
        for name, pre, prog, post, params, grid, fuel, q, want, runs in TRIPLES:
            params = tuple(Var(p) for p in params.split(",") if p)
            t = alpha.HoareTriple(syntax.parse_formula(pre),
                                  syntax.parse_program(prog),
                                  syntax.parse_formula(post), params)
            budget = Budget() if q is None else Budget(q_bound=q)
            self.triples += [(name, t, grid, fuel, budget, want)] * runs
        self.proofs = [(name, syntax.parse_proof(PROOF_TEXTS[name]), grids,
                        Budget() if q is None else Budget(q_bound=q), want, runs)
                       for name, grids, q, want, runs in PROOFS]
        self.fixtures = [(src, syntax.parse_formula(src), level)
                         for src, *level in FIXTURES]
        self.searched = [(name, hierarchy.prenexify(Exists(Y, f)), oracle)
                         for name, f, oracle, _ in SIGMA1_FIXTURES]

    def describe(self):
        return ([f"triple {row}" for row in TRIPLES]
                + [f"proof {row} {PROOF_TEXTS[row[0]]}" for row in PROOFS]
                + [f"fixture {row}" for row in FIXTURES]
                + [f"witness {name}: {f}" for name, f, *_ in SIGMA1_FIXTURES])


def setup(seed):
    return Inputs(seed)


def _triple_op(name, triple, grid, fuel, budget, want):
    desc = f"triple {name} grid={grid} fuel={fuel}"

    def fn():
        v = alpha.check_triple(triple, grid, fuel, budget)
        status = "caveated" if v.status == "verified" and v.caveats else v.status
        expect(status == want, f"{desc}: {status}, expected {want}")
        if want == "counterexample":
            expect(not any(v.input.values()),
                   f"{desc}: first counterexample at {v.input}")
        return status in ("verified", "counterexample")
    return Op("triple", desc, fn)


def _proof_op(name, proof, grid, budget, want):
    desc = f"proof {name} grid={grid}"

    def fn():
        rep = proofs.check_proof(proof, grid, budget)
        got = ("rejected" if not rep.accepted else
               "caveated" if rep.caveats else "accepted")
        expect(got == want, f"{desc}: {got}, expected {want}")
        return got != "caveated"
    return Op("proof", desc, fn)


def _fixture_op(src, f, level, values):
    desc = f"fixture {src} at {values}"

    def fn():
        lvl = hierarchy.classify(f)
        got = (lvl.kind, lvl.n, lvl.strict, lvl.both)
        expect(got == tuple(level), f"{desc}: level {got}, expected {level}")
        g = hierarchy.prenexify(f)
        env = {Var(name): n for name, n in values.items()}
        truth = "true" if FIXTURE_TRUTH[src](values) else "false"
        exact = True
        for which, h in (("formula", f), ("prenex form", g)):
            r = evaluator.eval_formula(h, env, FIXTURE_BUDGET)
            if level[1] == 0:
                expect(r.is_exact(), f"{desc}: level-0 {which} is unknown")
            expect(not r.is_exact() or r.value == truth,
                   f"{desc}: {which} is {r.value}, truly {truth}")
            exact = exact and r.is_exact()
        return exact
    return Op("fixture", desc, fn)


def _witness_op(name, searched, oracle, n):
    want = oracle(n)
    budget = Budget(q_bound=max(want + 2, 8))
    desc = f"witness {name}({n})"

    def fn():
        w = evaluator.find_witnesses(searched, {Var("x"): n}, budget)
        if w is None:
            return False
        got = dict(w)[Y]
        expect(got == want, f"{desc}: least witness {got}, expected {want}")
        return True
    return Op("witness", desc, fn)


def round_ops(ctx, i):
    rng = round_rng(ctx.seed, i)
    ops = [_triple_op(name, t, grid, fuel, budget, want)
           for name, t, grid, fuel, budget, want in ctx.triples]
    for name, pf, grids, budget, want, runs in ctx.proofs:
        for _ in range(runs):
            ops.append(_proof_op(name, pf, rng.randint(*grids), budget, want))
    for src, f, level in ctx.fixtures:
        names = sorted(v.name for v in free_vars(f))
        ops.append(_fixture_op(src, f, level,
                               {n: rng.randrange(7) for n in names}))
    ops += [_witness_op(name, searched, oracle, rng.randint(0, 6))
            for name, searched, oracle in ctx.searched]
    rng.shuffle(ops)
    return ops
