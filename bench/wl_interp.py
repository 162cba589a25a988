"""interp: long runs of compiled code.

Set-up compiles the five Sigma_1 fixtures of acceptance criterion 7 with
sigma1_to_program, the eight stdlib schemas with compile_to_while and
three Pi_1 least-counterexample searchers.  One verdict is one
whilelang.run of a compiled program at one input.  Nearly all the time
goes to the interpreter; the coding layer is never called.
"""

import itertools

from arithver import whilelang, xrec
from arithver.terms import Add, Lit, Lt, Mul, Var

from test_acceptance import SIGMA1_FIXTURES

from common import STDLIB_ORACLES, Op, expect, round_rng

TRACE_ROUNDS = 1
Y = Var("y")
# every Sigma_1 fixture runs on every input 0..hi once per round; doubling
# is capped below criterion 7's 10, where one run takes seconds
SIGMA1_CAP = {"doubling": 6}
SIGMA1_FUEL = 10 ** 8
STDLIB_RUNS = 2          # per schema and round, at seeded arguments 0..30
SEARCH_FUEL = 10 ** 7
# the searcher for a true sentence runs out of fuel after exactly this many
# steps, a fixed cost among the grid's heavy runs; three such runs a round
# put p90 inside one band of similar runs instead of in a gap between two
NONHALTING_FUEL = 4 * 10 ** 5
NONHALTING_RUNS = 3


class Inputs:
    def __init__(self, seed):
        self.seed = seed
        self.described = []  # the inputs, not what arithver compiled them to
        self.sigma1 = []
        for name, f, oracle, hi in SIGMA1_FIXTURES:
            prog, res, ps, _ = xrec.sigma1_to_program(f, Y)
            hi = min(hi, SIGMA1_CAP.get(name, hi))
            self.sigma1.append((name, prog, res, ps[0], oracle, hi))
            self.described.append(f"sigma1 {name}: {f} at 0..{hi}")
        self.stdlib = []
        for name, oracle in STDLIB_ORACLES.items():
            prog, res, ps = xrec.compile_to_while(xrec.stdlib(name))
            self.stdlib.append((name, prog, res, ps, oracle))
        rng = round_rng(seed, "setup")
        k1, k2 = rng.randint(4, 7), rng.randint(5, 20)
        # (text, psi, Python reading of psi, or None when forall y psi holds)
        searchers = [(f"y < {k1}", Lt(Y, Lit(k1)), lambda n: n < k1),
                     (f"y * y < {k2}", Lt(Mul(Y, Y), Lit(k2)),
                      lambda n: n * n < k2),
                     ("0 < y + 1", Lt(Lit(0), Add(Y, Lit(1))), None)]
        self.searchers = []
        for text, psi, holds in searchers:
            prog, res, ps, _ = xrec.pi1_counterexample_program(psi, Y)
            least = (None if holds is None else
                     next(n for n in itertools.count() if not holds(n)))
            self.searchers.append((text, prog, res, ps[0], least))

    def describe(self):
        return (self.described + [f"stdlib {name}" for name, *_ in self.stdlib]
                + [f"pi1 {text}" for text, *_ in self.searchers])


def setup(seed):
    return Inputs(seed)


def _run_op(kind, desc, prog, res, state, fuel, expected):
    def fn():
        out = whilelang.run(prog, state, fuel)
        if not out.terminated:
            # out of fuel: undecided, and the right answer when expected
            # is None (a searcher for a true Pi_1 sentence never halts)
            return False
        got = out.state.get(res)
        expect(expected is not None and got == expected,
               f"{desc}: halted with {got}, expected {expected}")
        return True
    return Op(kind, f"{desc} fuel={fuel}", fn)


def round_ops(ctx, i):
    rng = round_rng(ctx.seed, i)
    ops = []
    for name, prog, res, p, oracle, hi in ctx.sigma1:
        for n in range(hi + 1):
            ops.append(_run_op("sigma1", f"{name}({n})", prog, res, {p: n},
                               SIGMA1_FUEL, oracle(n)))
    for name, prog, res, ps, oracle in ctx.stdlib:
        for _ in range(STDLIB_RUNS):
            args = [rng.randint(0, 30) for _ in ps]
            ops.append(_run_op("stdlib", f"{name}{tuple(args)}", prog, res,
                               dict(zip(ps, args)), SEARCH_FUEL, oracle(*args)))
    for text, prog, res, p, least in ctx.searchers:
        fuel, runs = ((NONHALTING_FUEL, NONHALTING_RUNS) if least is None
                      else (SEARCH_FUEL, 1))
        for _ in range(runs):
            # the input is a dummy: the answer is the same at every x
            x = rng.randint(0, 9)
            ops.append(_run_op("pi1", f"search[{text}]({x})", prog, res,
                               {p: x}, fuel, least))
    rng.shuffle(ops)
    return ops
