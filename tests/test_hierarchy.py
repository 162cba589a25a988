import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from arithver import hierarchy
from arithver.terms import (And, BExists, BForall, Eq, Exists, Forall,
                            Implies, Lit, Lt, Names, Not, Or, Var, conj,
                            free_vars)
from arithver.evaluator import Budget, eval_formula
from arithver.hierarchy import PI, SIGMA, classify, nnf, prenexify
from arithver.syntax import parse_formula

from generators import (VARS, bounded_ladder, layered_chain,
                        layered_formula, random_formula)
from hierarchy_fixtures import FIXTURES

x, y, z = Var("x"), Var("y"), Var("z")


def test_fixture_count():
    assert len(FIXTURES) == 30


@pytest.mark.parametrize("src,kind,n,strict,both", FIXTURES)
def test_classification_fixtures(src, kind, n, strict, both):
    lvl = classify(parse_formula(src))
    assert (lvl.kind, lvl.n, lvl.strict, lvl.both) == (kind, n, strict, both), src


def test_nnf_pushes_negation():
    f = Not(Exists(y, Forall(z, Lt(y, z))))
    g = nnf(f, Names())
    assert isinstance(g, Forall) and isinstance(g.body, Exists)
    assert g.body.body == Not(Lt(y, z))


def test_nnf_bounded_duality():
    f = Not(BForall(y, x, Lt(y, x)))
    g = nnf(f, Names([x]))
    assert isinstance(g, BExists)
    assert g.bound == x


def test_nnf_renames_clashing_binders():
    # a binder whose name is taken gets a fresh one, in its body and in
    # the bounds below it, but not in its own bound
    f = And(Exists(y, Lt(x, y)),
            BForall(x, y, Exists(y, BExists(z, y, Eq(x, z)))))
    g = nnf(f, Names([x, y]))
    x1, y1, y2 = Var("x'"), Var("y'"), Var("y''")
    assert g == And(Exists(y1, Lt(x, y1)),
                    BForall(x1, y, Exists(y2, BExists(z, y2, Eq(x1, z)))))


def _sample_env(fv, rng):
    return {v: rng.randrange(7) for v in fv}


@pytest.mark.parametrize("src", [s for s, *_ in FIXTURES])
def test_prenexify_preserves_level(src):
    f = parse_formula(src)
    before, after = classify(f), classify(prenexify(f))
    assert after.n == before.n
    # prenexify targets the formula's own class; a both-class formula may
    # come out as either of its two forms
    if not before.both:
        assert after.kind == before.kind or after.both


def test_prenexify_output_is_strict():
    for src, _, n, _, _ in FIXTURES:
        lvl = classify(prenexify(parse_formula(src)))
        assert lvl.strict, src


@pytest.mark.parametrize("src", [s for s, *_ in FIXTURES])
def test_prenexify_never_flips_verdicts(src):
    f = parse_formula(src)
    g = prenexify(f)
    rng = random.Random(zlib.crc32(src.encode()))
    fv = sorted(free_vars(f) | free_vars(g), key=lambda v: v.name)
    b = Budget(q_bound=24)
    for _ in range(50):
        env = _sample_env(fv, rng)
        rf = eval_formula(f, env, b)
        rg = eval_formula(g, env, b)
        if rf.is_exact() and rg.is_exact():
            assert rf.value == rg.value, (src, env)


@pytest.mark.parametrize("src,kind,n,strict,both",
                         [fx for fx in FIXTURES if fx[2] == 0])
def test_prenexify_exact_on_level0(src, kind, n, strict, both):
    f = parse_formula(src)
    g = prenexify(f)
    assert classify(g).n == 0
    rng = random.Random(0)
    fv = sorted(free_vars(f) | free_vars(g), key=lambda v: v.name)
    for _ in range(50):
        env = _sample_env(fv, rng)
        rf, rg = eval_formula(f, env), eval_formula(g, env)
        assert rf.is_exact() and rg.is_exact()
        assert rf.value == rg.value


def test_prenex_merges_blocks_with_minimal_alternation():
    # exists /\ exists should merge into one block, staying Sigma_1
    f = And(Exists(y, Eq(y, x)), Exists(z, Eq(z, x)))
    g = prenexify(f)
    lvl = classify(g)
    assert (lvl.kind, lvl.n, lvl.strict) == (SIGMA, 1, True)


# each is Sigma_2, and so must be its prenex form: a merge that picks the
# leading kind per pair of operands, not once per tree, lands a level
# higher.  In the last, the bounded binder's tree must follow the kind
# that leads the tree above it, which its operands' prefixes do not show.
SIGMA2_TREES = [
    "(exists a. a = x) /\\ (forall b. b = x) /\\ (exists c. forall d. c = d)",
    "exists x. ((exists a. a = x) /\\ (forall b. b = x))",
    "(forall i<x. ((exists a. a = i) /\\ (forall b. b = i)))"
    " /\\ (exists c. forall d. c = d)"]


@pytest.mark.parametrize("src", SIGMA2_TREES)
def test_prenex_tree_led_by_its_level(src):
    f = parse_formula(src)
    lvl = classify(prenexify(f))
    assert (lvl.kind, lvl.n, lvl.strict) == (SIGMA, 2, True)
    assert (classify(f).kind, classify(f).n) == (SIGMA, 2)


def test_prenexify_keeps_the_level_of_chains():
    # each `/\`/`\/` tree is merged once, led by the kind its levels
    # give, so the strict prenex form lands at classify's level
    rng = random.Random(2026)
    for _ in range(400):
        f = layered_chain(rng)
        before, after = classify(f), classify(prenexify(f))
        assert (after.n, after.strict) == (before.n, True), f
        if not before.both:
            assert after.kind == before.kind, f


def test_prenexify_keeps_the_verdicts_of_chains():
    # on sampled assignments, where both verdicts are exact; a search over
    # a prefix of k quantifiers visits (q_bound + 1)**k points, so only
    # the chains whose prenex form has k <= 4 are evaluated
    rng = random.Random(2027)
    budget, checked = Budget(q_bound=3), 0
    while checked < 150:
        f = layered_chain(rng)
        g = h = prenexify(f)
        k = 0
        while isinstance(h, (Exists, Forall)):
            h, k = h.body, k + 1
        if k > 4:
            continue
        checked += 1
        for _ in range(3):
            env = {v: rng.randrange(4) for v in VARS}
            rf, rg = eval_formula(f, env, budget), eval_formula(g, env, budget)
            if rf.is_exact() and rg.is_exact():
                assert rf.value == rg.value, (f, env)


def test_prenex_lifts_through_bounded_quantifier():
    # forall i<x . exists y . ... becomes exists-led and stays Sigma_1
    f = parse_formula("forall i<x. exists y. y + i = x")
    g = prenexify(f)
    lvl = classify(g)
    assert (lvl.kind, lvl.n, lvl.strict) == (SIGMA, 1, True)
    assert isinstance(g, Exists)
    # semantics spot check: true for every x
    for n in range(6):
        r = eval_formula(g, {x: n}, Budget(q_bound=32))
        assert r.is_true()


def test_prenex_lift_dual():
    f = parse_formula("exists i<x. forall y. x < y + i + 1")
    g = prenexify(f)
    lvl = classify(g)
    assert (lvl.kind, lvl.n, lvl.strict) == (PI, 1, True)
    assert isinstance(g, Forall)


def test_prenex_renames_clashing_binders():
    f = And(Exists(y, Eq(y, x)), Exists(y, Eq(y, Lit(3))))
    g = prenexify(f)
    assert classify(g).strict
    r = eval_formula(g, {x: 5}, Budget(q_bound=10))
    assert r.is_true()


def _binder_names(f):
    """Binder names of a negation-normal formula, outermost first."""
    if isinstance(f, (Forall, Exists, BForall, BExists)):
        return [f.var.name] + _binder_names(f.body)
    if isinstance(f, (And, Or)):
        return _binder_names(f.left) + _binder_names(f.right)
    return []


@given(st.integers(0, 2 ** 32))
def test_nnf_renames_apart(seed):
    # nnf renames as it rewrites: every binder has its own name, free
    # nowhere, before the prefix is pulled out
    rng = random.Random(seed)
    for f in (random_formula(rng, 4), layered_formula(rng, 3)):
        free = free_vars(f)
        names = _binder_names(nnf(f, Names(free)))
        assert len(names) == len(set(names))
        assert not set(names) & {v.name for v in free}


@given(st.integers(0, 2 ** 32))
def test_prenex_renames_apart(seed):
    # every binder of the prenex form has its own name, free nowhere
    f = random_formula(random.Random(seed), 4)
    names = _binder_names(prenexify(f))
    assert len(names) == len(set(names))
    assert not set(names) & {v.name for v in free_vars(f)}


def test_prenex_names_follow_the_name_supply():
    # from the fourth prime on, names are numbered, as Names hands them out
    f = conj([Exists(x, Eq(x, Lit(k))) for k in range(5)])
    names = _binder_names(prenexify(f))
    assert names == ["x", "x'", "x''", "x'''", "x_4"]


def test_classify_desugars_connectives():
    f = parse_formula("(exists y. y = x) -> false")
    lvl = classify(f)
    assert (lvl.kind, lvl.n) == (PI, 1)


# 30 `<->` in a chain: each side is read in both polarities, so a walk
# that expands them takes 2**30 steps
IFF_CHAIN = " <-> ".join(["x = 1"] * 31)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_classify_iff_chain_is_linear():
    # in a subprocess, so an exponential walk fails by the timeout
    code = ("import sys; from arithver.hierarchy import classify; "
            "from arithver.syntax import parse_formula; "
            "print(classify(parse_formula(sys.argv[1])))")
    out = subprocess.run([sys.executable, "-c", code, IFF_CHAIN],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=10, check=True)
    assert out.stdout == "Sigma_0 (strict, also dual)\n"


def test_classify_deep_parenthesised_term_is_linear():
    # in a subprocess, so a parser that re-reads the text inside each `(`
    # fails by the timeout
    term = "(" * 3000 + "x" + " + 1)" * 3000
    code = ("import sys; from arithver.hierarchy import classify; "
            "from arithver.syntax import parse_formula; "
            "print(classify(parse_formula(sys.argv[1])))")
    out = subprocess.run([sys.executable, "-c", code, term + " = y"],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=10, check=True)
    assert out.stdout == "Sigma_0 (strict, also dual)\n"


@given(st.integers(0, 2 ** 32))
def test_classify_agrees_with_its_negation_normal_form(seed):
    # classify reads polarity and `->`/`<->` in place, and nnf rewrites
    # them: the two must give one level
    f = layered_formula(random.Random(seed), 3)
    g = nnf(f, Names(free_vars(f)))
    assert classify(f) == classify(g)
    assert nnf(g, Names(free_vars(g))) == g


def test_lift_through_bounded_binder_is_linear():
    # in a subprocess, so a lift that rebuilds the bounded binder's body
    # and pulls it again, once per quantifier, fails by the timeout
    exists = " ".join(f"exists y{k}." for k in range(160))
    matrix = " /\\ ".join(f"y{k % 160} < x + {k}" for k in range(200))
    code = ("import sys; from arithver.hierarchy import classify, prenexify; "
            "from arithver.syntax import parse_formula; "
            "print(classify(prenexify(parse_formula(sys.argv[1]))))")
    out = subprocess.run([sys.executable, "-c", code,
                          f"forall i < x. {exists} {matrix}"],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=10, check=True)
    assert out.stdout == "Sigma_1 (strict)\n"


def test_bounded_ladder_prenexes_linearly():
    # in a subprocess, so a lift that caps the caps it makes, and so grows
    # the prenex form exponentially in the alternations, fails by the
    # timeout: each of the 24 quantifiers gets one cap
    code = ("import sys; from arithver.hierarchy import classify, prenexify; "
            "from arithver.syntax import parse_formula; "
            "g = prenexify(parse_formula(sys.argv[1])); s = str(g); "
            "print(classify(g), s.count('exists') + s.count('forall'))")
    out = subprocess.run([sys.executable, "-c", code, str(bounded_ladder(24))],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=10, check=True)
    assert out.stdout == "Sigma_24 (strict) 49\n"


# a quantifier is capped only when a bounded binder of the other kind is
# on its own scope path, and then once: (source, caps, level)
CAPPED = [
    ("forall i < x. ((exists a. forall b. a + b = i + b)"
     " /\\ (forall c. c < i + c + 1))", 2, "Sigma_2 (strict)"),
    (str(bounded_ladder(3)), 3, "Sigma_3 (strict)"),
    ("exists d < z. ((forall u. x = u) /\\ (exists v. v = x))", 1,
     "Pi_2 (strict)")]


@pytest.mark.parametrize("src, caps, level", CAPPED,
                         ids=["two-conjuncts", "ladder-3", "bounded-exists"])
def test_prenex_caps_each_quantifier_once(src, caps, level):
    g = prenexify(parse_formula(src))
    names = _binder_names(g)  # caps are named w, w', ..., and bind a cap
    assert sum(name.startswith("w") for name in names) == caps
    assert str(classify(g)) == level


def test_prenex_form_grows_linearly():
    # each quantifier gets at most one cap, so the prenex form has at most
    # twice the binders of the negation normal form, at the same level
    rng1, rng2 = random.Random(1), random.Random(2)
    draws = ([layered_formula(rng1) for _ in range(300)]
             + [layered_chain(rng2) for _ in range(600)])
    for f in draws:
        g = prenexify(f)
        binders = len(_binder_names(nnf(f, Names(free_vars(f)))))
        assert len(_binder_names(g)) <= 2 * binders, f
        assert classify(g).n == classify(f).n, f


def test_deep_implies_chain_classifies_and_prenexes():
    # one stack frame per `->`, at the default recursion limit
    f = Eq(x, Lit(1))
    for _ in range(900):
        f = Implies(Lt(x, Lit(1)), f)
    assert classify(f) == classify(Eq(x, Lit(1)))
    assert classify(prenexify(f)).n == 0


def test_classify_builds_no_normal_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify called nnf")
    monkeypatch.setattr(hierarchy, "nnf", refuse)
    lvl = classify(parse_formula("~(exists y. ~(forall z. ~(y + z = x)))"))
    assert (lvl.kind, lvl.n, lvl.strict) == (PI, 1, True)
