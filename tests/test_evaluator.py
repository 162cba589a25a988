import functools
import math
import random

import pytest
from hypothesis import given, strategies as st

from arithver import evaluator
from arithver.syntax import format_formula, parse_formula
from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, FalseC,
                            Forall, Iff, Implies, Lit, Lt, Mul, Not, Or,
                            TrueC, Var, conj)
from arithver.evaluator import (FALSE, TRUE, Budget, WitnessSearchError,
                                assignments, compile_formula, compile_term,
                                eval_formula, eval_term, find_witnesses,
                                format_assignment, unknown)

from generators import VARS, random_atom, random_formula, random_term

x, y, z = Var("x"), Var("y"), Var("z")


def test_tristate_is_not_a_bool():
    with pytest.raises(TypeError):
        bool(TRUE)
    assert TRUE.is_true() and not TRUE.is_false() and TRUE.is_exact()
    assert FALSE.is_false() and FALSE.is_exact()
    assert not unknown("why").is_exact()


def test_eval_term_missing_vars_read_zero():
    assert eval_term(Add(x, Lit(3)), {}) == 3


def test_atoms():
    assert eval_formula(Eq(Add(x, y), Lit(5)), {x: 2, y: 3}).is_true()
    assert eval_formula(Lt(x, x), {x: 4}).is_false()
    assert eval_formula(TrueC(), {}).is_true()
    assert eval_formula(FalseC(), {}).is_false()


def test_connectives_exact():
    f = Implies(Lt(x, y), Lt(x, Add(y, Lit(1))))
    for a in range(4):
        for b in range(4):
            assert eval_formula(f, {x: a, y: b}).is_true()
    assert eval_formula(Iff(Eq(x, x), FalseC()), {}).is_false()


def test_strong_kleene_short_circuits_through_unknown():
    u = Exists(z, Eq(Mul(z, z), Lit(7)))  # never true; Unknown at any budget
    b = Budget(q_bound=5)
    assert eval_formula(And(FalseC(), u), {}, b).is_false()
    assert eval_formula(And(u, FalseC()), {}, b).is_false()
    assert eval_formula(Or(TrueC(), u), {}, b).is_true()
    assert eval_formula(Or(u, TrueC()), {}, b).is_true()
    assert not eval_formula(And(TrueC(), u), {}, b).is_exact()
    assert not eval_formula(Not(u), {}, b).is_exact()


def test_long_and_chain_at_default_recursion_limit():
    # conj nests right, one level per conjunct; the parser nests left
    eqs = [Eq(Lit(n), Lit(n)) for n in range(20000)]
    left = eqs[0]
    for e in eqs[1:]:
        left = And(left, e)
    for chain in (conj(eqs), left):
        assert eval_formula(chain, {}).is_true()
        assert compile_formula(chain)({}).is_true()
    assert eval_formula(conj(eqs + [FalseC()]), {}).is_false()
    assert compile_formula(conj(eqs + [FalseC()]))({}).is_false()


def test_and_chain_unknown_then_false_is_false():
    u = Exists(z, Eq(Mul(z, z), Lit(7)))
    b = Budget(q_bound=5)
    assert eval_formula(conj([u, TrueC(), FalseC()]), {}, b).is_false()
    assert eval_formula(conj([TrueC(), u, FalseC(), TrueC()]), {}, b).is_false()


def _compiled(f, v, budget=Budget()):
    return compile_formula(f, budget)(v)


BOTH_PATHS = pytest.mark.parametrize("evaluate", [eval_formula, _compiled],
                                     ids=["eval", "compiled"])


@pytest.mark.parametrize("x_value", [1, 0], ids=["exact-true", "exact-false"])
@pytest.mark.parametrize("unknown_first", [True, False],
                         ids=["unknown-left", "unknown-right"])
@BOTH_PATHS
def test_iff_with_one_unknown_side_is_unknown(x_value, unknown_first, evaluate):
    # strong Kleene: `<->` is Unknown when either side is, whichever the
    # exact side's value and whichever side is exact
    u = Exists(y, Eq(Add(y, y), Lit(1)))  # never true; Unknown at any budget
    f = Iff(u, Eq(x, Lit(1))) if unknown_first else Iff(Eq(x, Lit(1)), u)
    r = evaluate(f, {x: x_value}, Budget(q_bound=4))
    assert r == unknown("no witness <= 4")


def test_and_chain_reports_first_unknown():
    u1 = Exists(z, Eq(Mul(z, z), Lit(7)))
    u2 = Forall(z, Lt(z, Lit(100)))
    b = Budget(q_bound=5)
    for evaluate in (eval_formula, _compiled):
        assert evaluate(conj([u1, TrueC(), u2]), {}, b) == unknown(
            "no witness <= 5")
        assert evaluate(conj([u2, TrueC(), u1]), {}, b) == unknown(
            "no counterexample <= 5")
        assert evaluate(Or(Or(u2, FalseC()), u1), {}, b) == unknown(
            "no counterexample <= 5")


# Unknown at z = 2 from an unbounded search, at z = 3 from a range past
# the search budget, and the dual constant elsewhere
HUGE = Lit(evaluator.PROBES + 1)
LAST = Or(And(Eq(z, Lit(2)), Exists(x, FalseC())),
          And(Eq(z, Lit(3)), BExists(y, HUGE, FalseC())))
LAST_DUAL = And(Implies(Eq(z, Lit(2)), Forall(x, TrueC())),
                Implies(Eq(z, Lit(3)), BForall(y, HUGE, TrueC())))


@pytest.mark.parametrize("f", [
    BExists(z, Lit(4), LAST), Exists(z, LAST),
    BForall(z, Lit(4), LAST_DUAL), Forall(z, LAST_DUAL),
], ids=["BExists", "Exists", "BForall", "Forall"])
@BOTH_PATHS
def test_quantifier_reports_last_unknown(f, evaluate):
    r = evaluate(f, {}, Budget(q_bound=3))
    assert r == unknown("search budget spent at y")


class _Unreadable:
    """A value that raises when it is compared."""

    def __eq__(self, other):
        raise AssertionError("evaluated past the first hit")


@pytest.mark.parametrize("f, hit", [
    (BExists(z, Lit(4), Or(Eq(z, Lit(0)), Eq(x, Lit(0)))), TRUE),
    (Exists(z, Or(Eq(z, Lit(0)), Eq(x, Lit(0)))), TRUE),
    (BForall(z, Lit(4), And(Lt(Lit(0), z), Eq(x, Lit(0)))), FALSE),
    (Forall(z, And(Lt(Lit(0), z), Eq(x, Lit(0)))), FALSE),
], ids=["BExists", "Exists", "BForall", "Forall"])
@BOTH_PATHS
def test_quantifier_stops_at_first_hit(f, hit, evaluate):
    # the hit is at z = 0; at any later z the body compares x
    assert evaluate(f, {x: _Unreadable()}, Budget(q_bound=3)) == hit


def test_and_chain_stops_at_first_false():
    # a non-formula raises TypeError if it is ever evaluated
    never = "never evaluated"
    assert eval_formula(conj([TrueC(), FalseC(), never, never]), {}).is_false()
    assert eval_formula(And(And(TrueC(), FalseC()), never), {}).is_false()
    with pytest.raises(TypeError):
        eval_formula(conj([TrueC(), never, FalseC()]), {})


def test_left_nested_chains_at_default_recursion_limit():
    # the parser nests `/\` and `\/` to the left, one level per operand
    f = g = Eq(x, Lit(1))
    for _ in range(20000):
        f, g = And(f, Eq(x, Lit(1))), Or(g, Eq(x, Lit(1)))
    assert eval_formula(f, {x: 1}).is_true()
    assert eval_formula(f, {x: 2}).is_false()
    assert eval_formula(g, {x: 1}).is_true()
    assert eval_formula(g, {x: 2}).is_false()


def test_nested_chains_keep_kleene_order():
    u1 = Exists(z, Eq(Mul(z, z), Lit(7)))
    u2 = Forall(z, Lt(z, Lit(100)))
    b = Budget(q_bound=5)
    never = "never evaluated"
    # And: False at the first false conjunct, else the first Unknown
    assert eval_formula(And(And(u1, u2), TrueC()), {}, b) == unknown("no witness <= 5")
    assert eval_formula(And(And(u2, TrueC()), u1), {}, b) == unknown(
        "no counterexample <= 5")
    assert eval_formula(And(And(u1, FalseC()), never), {}, b).is_false()
    # Or is the dual: True at the first true disjunct, else the first Unknown
    assert eval_formula(Or(Or(u1, FalseC()), u2), {}, b) == unknown("no witness <= 5")
    assert eval_formula(Or(Or(FalseC(), u2), u1), {}, b) == unknown(
        "no counterexample <= 5")
    assert eval_formula(Or(Or(u1, TrueC()), never), {}, b).is_true()
    assert eval_formula(Or(Or(FalseC(), FalseC()), FalseC()), {}, b).is_false()
    with pytest.raises(TypeError):
        eval_formula(Or(Or(FalseC(), never), TrueC()), {}, b)


def test_shared_eq_is_not_reused_under_a_binder():
    # one Eq object outside and inside a binder of its variable: the
    # verdict outside says nothing about the body, and the reverse
    e = Eq(x, Lit(0))

    def fresh():
        return Eq(x, Lit(0))

    cases = [
        (lambda p, q: And(p, BForall(x, Lit(3), q)), {x: 0}, False),
        (lambda p, q: Or(p, BExists(x, Lit(3), q)), {x: 5}, True),
        (lambda p, q: And(BExists(x, Lit(3), q), p), {x: 5}, False),
        (lambda p, q: And(Exists(x, q), Not(p)), {x: 5}, True),
        (lambda p, q: Or(Forall(x, q), p), {x: 0}, True),
    ]
    for build, v, want in cases:
        got = eval_formula(build(e, e), v, Budget(q_bound=3))
        assert got == eval_formula(build(fresh(), fresh()), v, Budget(q_bound=3))
        assert got == (TRUE if want else FALSE)


@given(st.integers(0, 2 ** 32), st.lists(st.integers(0, 4), min_size=3,
                                         max_size=3))
def test_shared_subformulas_evaluate_as_unshared(seed, vals):
    # And(f, ~~f) holds every node of f twice; the rebuilt copy holds none
    rng = random.Random(seed)
    f = random_formula(rng)
    shared = And(f, Not(Not(f)))
    unshared = parse_formula(format_formula(shared))
    v = dict(zip((x, y, z), vals))
    b = Budget(q_bound=3)
    assert eval_formula(shared, v, b) == eval_formula(unshared, v, b)


def _interpreted(f, v, budget):
    """eval_formula with every search interpreted to its end, compiling
    nothing: the reference semantics for the compiled paths."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_compile", lambda g, b, depth: (
            lambda w: evaluator._eval(g, w, b, depth, None)))
        return eval_formula(f, v, budget)


@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.integers(0, 40))
def test_compiled_formula_agrees_with_eval_formula(seed, q, probes):
    # value and reason, where the small search budget runs out too; the
    # quantifiers' reused dicts must not leak into the caller's
    rng = random.Random(seed)
    budget = Budget(q_bound=q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "PROBES", probes)
        for _ in range(10):
            f = random_formula(rng, rng.randint(1, 4))
            compiled = compile_formula(f, budget)
            for _ in range(3):
                v = {w: rng.randrange(5) for w in VARS}
                before = dict(v)
                assert compiled(v) == _interpreted(f, v, budget)
                assert v == before


@given(st.integers(0, 2 ** 32))
def test_compiled_term_agrees_with_eval_term(seed):
    rng = random.Random(seed)
    t = random_term(rng, 4)
    v = {w: rng.randrange(5) for w in VARS[:2]}  # the third reads as 0
    assert compile_term(t)(v) == eval_term(t, v)


@given(st.integers(0, 2 ** 32))
def test_products_agree_nested_either_way(seed):
    # compile_term reads a product's factors flat and eval_term walks its
    # left spine by a loop; both give the product of the factors
    rng = random.Random(seed)
    factors = [random_term(rng, 1) for _ in range(rng.randint(2, 6))]
    v = {w: rng.randrange(5) for w in VARS[:2]}  # the third reads as 0
    want = math.prod(eval_term(t, v) for t in factors)
    left = functools.reduce(Mul, factors)
    right = functools.reduce(lambda a, b: Mul(b, a), reversed(factors))
    assert compile_term(left)(v) == eval_term(left, v) == want
    assert compile_term(right)(v) == eval_term(right, v) == want


@given(st.integers(0, 2 ** 32))
def test_inline_reads_agree_with_the_interpreter(seed):
    # compiled atoms and sums read a Var operand inline, and a variable
    # the assignment leaves out reads as 0 there too; an exact verdict is
    # TRUE or FALSE itself, as the sweeps' identity tests assume
    rng = random.Random(seed)
    budget = Budget(q_bound=2)
    for _ in range(20):
        f = random_atom(rng)
        g = rng.choice([f, Not(f), Exists(z, f), Forall(z, f)])
        v = {w: rng.randrange(5) for w in VARS if rng.random() < 0.6}
        for t in (f.left, f.right):
            assert compile_term(t)(v) == eval_term(t, v)
        r = compile_formula(g, budget)(v)
        assert r == _interpreted(g, v, budget)
        assert (r is TRUE or r is FALSE) == r.is_exact()


@pytest.fixture
def compiled_bodies(monkeypatch):
    """The formulas that eval_formula hands to the compiler, in order;
    the compiler's calls to itself are not counted."""
    calls, real, inside = [], evaluator._compile, []

    def counting(f, budget, depth):
        if not inside:
            calls.append(f)
        inside.append(f)
        try:
            return real(f, budget, depth)
        finally:
            inside.pop()
    monkeypatch.setattr(evaluator, "_compile", counting)
    return calls


@pytest.mark.parametrize("f, budget", [
    (Exists(z, Eq(z, Lit(1))), Budget(q_bound=0)),
    (BExists(z, Lit(1), Eq(z, Lit(1))), Budget()),
    (Exists(z, Eq(z, Lit(0))), Budget()),
    (BForall(z, Lit(5), Eq(z, Lit(1))), Budget()),
    # a search of two values: compiled, its last value would run once
    (Exists(z, Eq(z, Lit(5))), Budget(q_bound=1)),
    (BForall(z, Lit(2), Lt(z, Lit(5))), Budget()),
], ids=["q_bound-0", "bound-1", "exists-hit-at-0", "forall-hit-at-0",
        "q_bound-1", "bound-2"])
def test_search_that_stops_early_compiles_nothing(f, budget, compiled_bodies):
    eval_formula(f, {}, budget)
    assert compiled_bodies == []


@pytest.mark.parametrize("f", [
    Exists(z, Eq(z, Lit(3))), Forall(z, Lt(z, Lit(9))),
    BExists(z, Lit(4), Eq(z, Lit(9))), BForall(z, Lit(3), Lt(z, Lit(2)))])
def test_search_that_goes_on_compiles_its_body_once(f, compiled_bodies):
    # one compile per entry, made on reaching the second value
    for n in (1, 2):
        eval_formula(f, {}, Budget(q_bound=5))
        assert compiled_bodies == [f.body] * n


def test_quantifiers_in_a_compiled_body_compile_nothing(compiled_bodies):
    # the inner search compiles its body while the outer one interprets
    # its first value; the outer body, compiled at y = 1, holds the inner
    # search already compiled
    f = Exists(y, Exists(z, Eq(Add(y, z), Lit(100))))
    assert eval_formula(f, {}, Budget(q_bound=5)) == unknown(
        "no witness <= 5")
    assert compiled_bodies == [f.body.body, f.body]


def test_bounded_quantifiers_are_exact():
    f = BExists(z, x, Eq(Mul(z, z), y))
    assert eval_formula(f, {x: 4, y: 9}).is_true()
    assert eval_formula(f, {x: 3, y: 9}).is_false()  # bound is strict
    g = BForall(z, x, Lt(z, x))
    assert eval_formula(g, {x: 6}).is_true()
    assert eval_formula(g, {x: 0}).is_true()  # empty range


def test_search_budget_per_evaluation(monkeypatch):
    # each search books its whole range on entry, nested searches
    # included; an empty range costs nothing, and each evaluation, each
    # call of a compiled formula too, starts with the whole budget
    for evaluate in (eval_formula, _compiled):
        monkeypatch.setattr(evaluator, "PROBES", 10)
        f = BForall(z, x, Lt(z, Add(x, Lit(1))))
        assert evaluate(f, {x: 10}) is TRUE
        assert evaluate(f, {x: 11}) == unknown("search budget spent at z")
        compiled = compile_formula(f)
        assert compiled({x: 10}) is TRUE and compiled({x: 10}) is TRUE
        six = BForall(y, Lit(6), TrueC())
        pair = And(six, BExists(z, Lit(5), TrueC()))
        assert evaluate(pair, {}) == unknown("search budget spent at z")
        assert evaluate(And(six, pair), {}) == unknown(
            "search budget spent at y")
        nested = BForall(y, Lit(3), BForall(z, Lit(2), TrueC()))
        assert evaluate(nested, {}) is TRUE  # 3 + 3 * 2 values
        # an unbounded search books q_bound + 1 values, even one that
        # would stop at its first
        g = Exists(y, Eq(y, Lit(0)))
        assert evaluate(g, {}, Budget(q_bound=9)) is TRUE
        assert evaluate(g, {}, Budget(q_bound=10)) == unknown(
            "search budget spent at y")
        g = Exists(y, BForall(z, Lit(3), Lt(z, y)))  # y books 6, z 3 at y=0
        assert evaluate(g, {}, Budget(q_bound=5)) == unknown(
            "search budget spent at z")
        monkeypatch.setattr(evaluator, "PROBES", 0)
        assert evaluate(BForall(z, Lit(0), FalseC()), {}) is TRUE


def test_unbounded_exists_found():
    f = Exists(z, Eq(Mul(z, z), Lit(49)))
    assert eval_formula(f, {}, Budget(q_bound=10)).is_true()


def test_unbounded_exists_not_found_is_unknown():
    f = Exists(z, Eq(Mul(z, z), Lit(50)))
    r = eval_formula(f, {}, Budget(q_bound=100))
    assert not r.is_exact()
    assert "witness" in r.reason


def test_unbounded_forall_counterexample():
    f = Forall(z, Lt(z, Lit(3)))
    assert eval_formula(f, {}, Budget(q_bound=10)).is_false()


def test_unbounded_forall_no_counterexample_is_unknown():
    f = Forall(z, Lt(z, Add(z, Lit(1))))
    r = eval_formula(f, {}, Budget(q_bound=20))
    assert not r.is_exact()


def test_depth_guard():
    # past 16 nested unbounded binders the search is Unknown; at q_bound 1
    # the 2 ** 16 bodies above it fit in the search budget, at the
    # default they do not
    f = Exists(x, Eq(x, x))
    for _ in range(20):
        f = Exists(Var("v"), f)
    for evaluate in (eval_formula, _compiled):
        assert evaluate(f, {}, Budget(q_bound=1)) == unknown(
            "unbounded-quantifier depth guard exceeded")
        assert evaluate(f, {}) == unknown("search budget spent at v")


def test_nested_alternation():
    # forall z <= bound fails fast, exists certifies on a witness
    f = Exists(y, Forall(z, Or(Lt(z, y), Eq(z, z))))
    r = eval_formula(f, {}, Budget(q_bound=4))
    assert not r.is_exact()  # the forall can never be certified true
    g = Forall(y, Exists(z, Eq(z, Add(y, Lit(1)))))
    assert not eval_formula(g, {}, Budget(q_bound=6)).is_exact()


def test_find_witnesses_single():
    f = Exists(z, Eq(Mul(z, z), Lit(36)))
    assert find_witnesses(f, {}) == [(z, 6)]


def test_find_witnesses_block_lexicographic_least():
    f = Exists(x, Exists(y, Eq(Add(x, y), Lit(4))))
    assert find_witnesses(f, {}) == [(x, 0), (y, 4)]


def test_find_witnesses_empty_block():
    assert find_witnesses(Eq(Lit(2), Lit(2)), {}) == []
    assert find_witnesses(Eq(Lit(2), Lit(3)), {}) is None


def test_find_witnesses_none_in_range():
    f = Exists(z, Eq(z, Lit(99)))
    assert find_witnesses(f, {}, Budget(q_bound=10)) is None


def test_find_witnesses_inexact_body_raises():
    f = Exists(x, Forall(z, Lt(x, Add(z, Lit(1)))))
    with pytest.raises(WitnessSearchError):
        find_witnesses(f, {}, Budget(q_bound=3))


def test_find_witnesses_stops_at_the_search_budget():
    # 65^3 points fit in PROBES and are all searched; 65^4 do not
    for k, want in ((3, None), (4, "search budget spent at y0")):
        ys = [Var(f"y{i}") for i in range(k)]
        f = functools.reduce(lambda body, v: Exists(v, body), reversed(ys),
                             Eq(ys[0], Lit(100)))
        if want is None:
            assert find_witnesses(f, {}) is None
        else:
            with pytest.raises(WitnessSearchError, match=want):
                find_witnesses(f, {})


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(q_bound=-1)


def test_assignments_product_order():
    assert list(assignments([x, y], 1)) == [
        {x: 0, y: 0}, {x: 0, y: 1}, {x: 1, y: 0}, {x: 1, y: 1}]
    assert len(list(assignments([x, y, z], 2))) == 27


def test_assignments_on_top_of_base():
    base = {z: 5, x: 9}
    assert list(assignments([x], 1, base)) == [{z: 5, x: 0}, {z: 5, x: 1}]
    assert base == {z: 5, x: 9}


def test_assignments_empty_vars_yield_base_once():
    base = {z: 1}
    points = list(assignments([], 3, base))
    assert points == [{z: 1}] and points[0] is not base
    assert list(assignments([], 0)) == [{}]


def test_assignments_yield_fresh_dicts():
    points = []
    for p in assignments([x], 2, {y: 0}):
        points.append(p)
        p[y] = 99  # mutating one point must not leak into the next
    assert [p[x] for p in points] == [0, 1, 2]
    assert len({id(p) for p in points}) == 3


def test_assignments_guard_keeps_product_order_and_fresh_dicts():
    # binder-free conjuncts only: the kept points are exactly those where
    # the guard is not False, in product order, each a dict of its own
    w = Var("w")
    guard = And(And(Lt(x, Lit(2)), TrueC()), And(Not(Eq(z, y)), Lt(y, w)))
    base = {w: 2, y: 7}
    points = list(assignments([x, y, z], 2, base, guard))
    assert points == [p for p in assignments([x, y, z], 2, base)
                      if eval_formula(guard, p) is not FALSE]
    assert [list(p) for p in points] == [[w, y, x, z]] * len(points)
    assert len(points) == 8 and len({id(p) for p in points}) == 8
    points[0][y] = 99  # mutating one point must not leak into the next
    assert points[1][y] == 0 and base == {w: 2, y: 7}


def test_assignments_guard_skips_a_false_prefix(monkeypatch):
    # each conjunct is tested once per value of its last variable, and
    # only below the prefixes the conjuncts before it keep
    tested = []
    compile_ = evaluator._compile

    def counted(f, budget, depth):
        g = compile_(f, budget, depth)
        return lambda v: tested.append(f) or g(v)
    monkeypatch.setattr(evaluator, "_compile", counted)
    guard = And(Eq(x, Lit(3)), Lt(y, Lit(2)))
    points = list(assignments([x, y, z], 9, guard=guard))
    assert points == [{x: 3, y: b, z: c} for b in range(2) for c in range(10)]
    assert tested.count(guard.left) == 10 and tested.count(guard.right) == 10
    assert len(tested) == 20


def test_assignments_guard_never_tests_a_binder():
    # each of these is False at every point, but its verdict may depend
    # on the search budget, so it is left to the caller
    w = Var("w")
    for g in (Forall(w, Lt(w, x)), BForall(w, Lit(3), Lt(w, x)),
              Not(Exists(w, Eq(w, w))), Or(FalseC(), BExists(w, x, TrueC()))):
        assert list(assignments([x], 2, guard=And(g, Lt(x, Lit(2))))) == [
            {x: 0}, {x: 1}]


def test_assignments_guard_reads_unswept_variables_from_base():
    guard = And(Eq(z, Lit(5)), Lt(x, Lit(2)))
    assert list(assignments([x], 3, {z: 5}, guard)) == [
        {z: 5, x: 0}, {z: 5, x: 1}]
    assert list(assignments([x], 3, {z: 4}, guard)) == []
    assert list(assignments([x], 3, None, guard)) == []  # z reads as 0
    assert list(assignments([x], 1, None, Eq(z, Lit(0)))) == [{x: 0}, {x: 1}]
    assert list(assignments([], 3, {z: 4}, guard)) == []
    assert list(assignments([], 3, {z: 5}, guard)) == [{z: 5}]


def test_format_assignment():
    assert format_assignment({x: 1, y: 2}) == "x=1,y=2"
    assert format_assignment({}) == "the empty assignment"


def test_find_witnesses_shadowed_binder_gets_zero():
    a = Var("a")
    f = Exists(a, Exists(y, Exists(a, Eq(Add(a, y), Lit(3)))))
    assert find_witnesses(f, {}) == [(a, 0), (y, 0), (a, 3)]
