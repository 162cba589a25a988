"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion is a single test; the one-line verdicts are printed on the
real stdout so they survive pytest's capture.  The suite as a whole is
budgeted to stay under sixty seconds on a commodity machine; where a sweep
would blow that budget its range is trimmed and the trim is noted inline.
"""

import functools
import itertools
import math
import random
import sys
import zlib

from arithver.terms import (Add, And, BForall, Eq, Exists, FalseC, Lit, Lt,
                            Mul, Not, Or, TrueC, Var, free_vars)
from arithver.coding import beta_index, pair, seq_encode, split
from arithver.evaluator import Budget, eval_formula, find_witnesses
from arithver.hierarchy import classify, prenexify
from arithver.whilelang import Assign, Seq, While, program_vars, run
from arithver.alpha import (HoareTriple, check_triple, encode_alpha,
                            instantiate_alpha, vc_instance)
from arithver.xrec import (STDLIB, AddF, Cn, Const, Mn, Proj, cases, gamma,
                           gamma_instance, compile_to_while,
                           pi1_counterexample_program, prod_of,
                           sigma1_to_program, stdlib, sum_of, xrec_eval)
from arithver.proofs import (AssignAxiom, ConseqRule, SeqRule, WhileRule,
                             check_proof)
from arithver.syntax import parse_formula

from generators import random_program
from hierarchy_fixtures import FIXTURES

x, y, z = Var("x"), Var("y"), Var("z")

INC = Assign(y, Add(y, Lit(1)))
LOOP = While(Lt(y, x), INC)
COUNT = Seq(Assign(y, Lit(0)), LOOP)


def criterion(num, name):
    """Print one pass/fail line per criterion on the unredirected stdout."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {num:2d} ({name}): PASS", file=sys.__stdout__)
        return wrapper
    return deco


# -- 1. program-encoding oracle --------------------------------------------

@criterion(1, "program encoding agrees with the interpreter")
def test_alpha_oracle_on_random_programs():
    rng = random.Random(101)
    terminating = 0
    for _ in range(200):
        prog = random_program(rng)
        xs = program_vars(prog)
        state = {v: rng.randrange(7) for v in xs}
        out = run(prog, dict(state), 10 ** 4)
        if not out.terminated:
            continue
        inst = instantiate_alpha(prog, dict(state), 10 ** 4)
        assert inst is not None
        assert eval_formula(inst, {}).is_true(), prog
        terminating += 1

        # wrong outputs must never be certified; the only honest verdict
        # under a tiny search budget is Unknown, never True
        alpha, axs, ays = encode_alpha(prog)
        good = tuple(out.state.get(v, 0) for v in axs)
        for _ in range(5):
            bad = tuple(rng.randrange(8) for _ in axs)
            if bad == good:
                continue
            env = {v: state.get(v, 0) for v in axs}
            env.update(dict(zip(ays, bad)))
            r = eval_formula(alpha, env, Budget(q_bound=1))
            assert not r.is_true(), (prog, state, bad)
    assert terminating >= 100  # the generator favours terminating programs


# -- 2. pairing and sequence codes -----------------------------------------

@criterion(2, "pairing and sequence codes")
def test_pairing_and_sequence_codes():
    for a in range(201):
        for b in range(201):
            assert split(pair(a, b)) == (a, b)
    rng = random.Random(7)
    for _ in range(500):
        xs = [rng.randrange(51) for _ in range(rng.randrange(1, 9))]
        w = seq_encode(xs)
        assert [beta_index(w, i) for i in range(len(xs))] == xs


# -- 3. hierarchy classification and prenexing ------------------------------

@criterion(3, "hierarchy fixtures classify and prenex soundly")
def test_hierarchy_fixture_set():
    assert len(FIXTURES) == 30
    for src, kind, n, strict, both in FIXTURES:
        lvl = classify(parse_formula(src))
        assert (lvl.kind, lvl.n, lvl.strict, lvl.both) == (kind, n, strict, both), src
    for src, kind, n, strict, both in FIXTURES:
        f = parse_formula(src)
        g = prenexify(f)
        rng = random.Random(zlib.crc32(src.encode()))
        fv = sorted(free_vars(f) | free_vars(g), key=lambda v: v.name)
        budget = Budget(q_bound=24)
        for _ in range(50):
            env = {v: rng.randrange(7) for v in fv}
            rf = eval_formula(f, env, budget)
            rg = eval_formula(g, env, budget)
            if n == 0:
                # level-0 verdicts are always exact and must agree outright
                assert rf.is_exact() and rg.is_exact()
            if rf.is_exact() and rg.is_exact():
                assert rf.value == rg.value, (src, env)


# -- 4. schema library vs direct arithmetic ---------------------------------

@criterion(4, "schema library identities")
def test_stdlib_identities():
    unary = {"pred": lambda a: max(a - 1, 0),
             "sg": lambda a: min(a, 1),
             "sgbar": lambda a: 1 - min(a, 1)}
    binary = {"monus": lambda a, b: max(a - b, 0),
              "chi_eq": lambda a, b: int(a == b),
              "chi_lt": lambda a, b: int(a < b),
              "max": max, "min": min}
    for name, oracle in unary.items():
        h = stdlib(name)
        for a in range(31):
            assert xrec_eval(h, [a], fuel=10 ** 7).value == oracle(a), (name, a)
    for name, oracle in binary.items():
        h = stdlib(name)
        for a in range(31):
            for b in range(31):
                got = xrec_eval(h, [a, b], fuel=10 ** 7).value
                assert got == oracle(a, b), (name, a, b)
    # combinators: running sums/products of a + i, and |a - b| by cases
    s, p = sum_of(AddF()), prod_of(AddF())
    lt, ge = stdlib("chi_lt"), Cn(stdlib("sgbar"), (stdlib("chi_lt"),))
    mo = stdlib("monus")
    absdiff = cases([(lt, Cn(mo, (Proj(2, 2), Proj(1, 2)))), (ge, mo)])
    for a in range(31):
        for b in range(31):
            assert xrec_eval(s, [a, b], fuel=10 ** 7).value == \
                sum(a + i for i in range(b + 1)), (a, b)
            assert xrec_eval(p, [a, b], fuel=10 ** 7).value == \
                math.prod(a + i for i in range(b + 1)), (a, b)
            assert xrec_eval(absdiff, [a, b], fuel=10 ** 7).value == abs(a - b)


# -- 5. schema defining formulas (representability) -------------------------

@criterion(5, "defining formulas represent the schemas")
def test_gamma_representability():
    for name in STDLIB:
        h = stdlib(name)
        g, xs, yv = gamma(h)
        # the witness searches inside the defining formulas multiply out,
        # so the no-false-positive sweep gets the smallest honest budget
        tight = Budget(q_bound=1 if h.arity == 1 else 0)
        for args in itertools.product(range(11), repeat=h.arity):
            b = xrec_eval(h, list(args), fuel=10 ** 7).value
            inst = gamma_instance(h, list(args), b)
            assert eval_formula(inst, {}).is_true(), (name, args)
            env = dict(zip(xs, args))
            for bad in range(21):
                if bad == b:
                    continue
                env[yv] = bad
                assert not eval_formula(g, env, tight).is_true(), (name, args, bad)


# -- 6. compilation of schemas to while-programs ----------------------------

@criterion(6, "compiled schemas match the evaluator")
def test_compilation_agreement():
    for name in STDLIB:
        h = stdlib(name)
        prog, res, ps = compile_to_while(h)
        for args in itertools.product(range(11), repeat=h.arity):
            expected = xrec_eval(h, list(args), fuel=10 ** 7).value
            out = run(prog, dict(zip(ps, args)), 10 ** 6)
            assert out.terminated and out.state[res] == expected, (name, args)
    # an empty search diverges identically on both sides
    empty = Mn(Const(1, 1))
    assert xrec_eval(empty, [], fuel=10 ** 3).diverged
    prog, res, ps = compile_to_while(empty)
    assert not run(prog, {}, 10 ** 3).terminated


# -- 7. functional Sigma_1 formulas to programs -----------------------------

SIGMA1_FIXTURES = [
    # (name, formula in x/y, python oracle, max input)
    ("doubling", Exists(z, And(Eq(z, x), Eq(y, Add(z, z)))),
     lambda n: 2 * n, 10),
    # squaring's least-witness search costs 81.7 M interpreted steps at
    # x = 10 (66 s measured on a shared 2-vCPU host) and 1.9 M at x = 6,
    # so its sweep stops at 6 to hold the budget
    ("squaring", Eq(y, Mul(x, x)), lambda n: n * n, 6),
    ("identity", Eq(y, x), lambda n: n, 10),
    ("successor", Eq(y, Add(x, Lit(1))), lambda n: n + 1, 10),
    ("parity", Or(Exists(z, And(Eq(x, Add(z, z)), Eq(y, Lit(0)))),
                  Exists(z, And(Eq(x, Add(Add(z, z), Lit(1))), Eq(y, Lit(1))))),
     lambda n: n % 2, 10),
]


@criterion(7, "functional Sigma_1 formulas compile correctly")
def test_sigma1_pipeline():
    for name, f, oracle, hi in SIGMA1_FIXTURES:
        prog, res, ps, xs = sigma1_to_program(f, y)
        assert xs == [x]
        searched = prenexify(Exists(y, f))
        for n in range(hi + 1):
            out = run(prog, {ps[0]: n}, 10 ** 8)
            assert out.terminated, (name, n)
            assert out.state[res] == oracle(n), (name, n)
            # the evaluator's own least-witness search must agree
            w = dict(find_witnesses(searched, {x: n},
                                    Budget(q_bound=max(oracle(n) + 2, 8))))
            assert w[y] == oracle(n), (name, n)


# -- 8. least-counterexample searcher ---------------------------------------

@criterion(8, "counterexample searcher halts exactly on failures")
def test_pi1_searcher():
    cases_ = [(Lt(y, Lit(5)), 5),               # fails first at 5
              (Lt(Lit(0), Add(y, Lit(1))), None),  # true: runs forever
              (Not(Eq(y, y)), 0)]               # fails immediately
    for psi, expected in cases_:
        prog, res, ps, xs = pi1_counterexample_program(psi, y)
        if expected is None:
            out = run(prog, {p: 0 for p in ps}, 10 ** 4)
            assert not out.terminated, psi
            assert out.steps == 10 ** 4
        else:
            out = run(prog, {p: 0 for p in ps}, 10 ** 7)
            assert out.terminated and out.state[res] == expected, psi


# -- 9. desk-scale triple checking ------------------------------------------

@criterion(9, "triple checker fixtures")
def test_triple_checker_fixtures():
    n = Var("n")
    good = HoareTriple(And(TrueC(), Eq(x, n)), COUNT, Eq(y, x), params=(n,))
    v = check_triple(good, grid=10, fuel=2000)
    assert v.is_verified() and not v.caveats
    bad = HoareTriple(TrueC(), Assign(x, x), Lt(x, Lit(0)))
    w = check_triple(bad, grid=3, fuel=10)
    assert w.status == "counterexample"
    assert w.input == {x: 0}
    # cross-check: witnessed VC instances agree with both verdicts
    for k in range(5):
        inst = vc_instance(HoareTriple(Eq(x, Lit(k)), COUNT, Eq(y, x)),
                           {x: k}, 2000)
        assert eval_formula(inst, {}).is_true(), k
    inst = vc_instance(bad, {x: 0}, 10)
    assert eval_formula(inst, {}).is_false()


# -- 10. proof objects -------------------------------------------------------

@criterion(10, "proof checker accepts the counting loop and rejects lies")
def test_proof_checker():
    I, B = TrueC(), Lt(y, x)
    ax = AssignAxiom(HoareTriple(TrueC(), INC, I))
    body = ConseqRule(ax, HoareTriple(And(I, B), INC, I))
    wr = WhileRule(I, body, HoareTriple(I, LOOP, And(I, Not(B))))
    left = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    sq = SeqRule(left, wr, HoareTriple(TrueC(), COUNT, And(I, Not(B))))
    pf = ConseqRule(sq, HoareTriple(TrueC(), COUNT, Not(B)))
    rep = check_proof(pf, grid=5)
    assert rep.accepted and not rep.caveats

    lie = ConseqRule(sq, HoareTriple(TrueC(), COUNT, FalseC()))
    rep2 = check_proof(lie, grid=5)
    assert not rep2.accepted
    assert "consequence fails" in rep2.first_rejection().detail
