import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, FalseC,
                            Forall, Iff, Implies, KEYWORDS, Lit, Lt, Mul,
                            Names, Not, Or, TrueC, Var, alpha_equal, conj,
                            free_vars, strip_exists, substitute,
                            substitute_simultaneous, term_vars,
                            variables)
from arithver.evaluator import Budget, eval_formula, eval_term
from arithver.alpha import encode_alpha
from arithver.syntax import (ParseError, parse_formula, parse_program,
                             tokenize)

from generators import random_formula, random_term

x, y, z = Var("x"), Var("y"), Var("z")


def test_var_name_validation():
    Var("abc_1'")
    with pytest.raises(ValueError):
        Var("1abc")
    with pytest.raises(ValueError):
        Var("")
    for word in KEYWORDS:
        with pytest.raises(ValueError, match=f"keyword '{word}' is not a variable"):
            Var(word)


@given(st.text(alphabet="aAz_09'.- ~", max_size=6) | st.sampled_from(sorted(KEYWORDS)))
def test_a_variable_is_one_identifier_and_no_keyword(s):
    # terms states what a name is once, and the lexer reads the same
    try:
        toks = [t[:2] for t in tokenize(s)]
    except ParseError:  # a character no token begins with
        toks = None
    try:
        made = Var(s).name == s
    except ValueError:
        made = False
    assert made == (toks == [("ident", s), ("eof", "")] and s not in KEYWORDS)


def test_var_is_interned_and_hashes_by_identity():
    # one live Var per name, so identity is equality and the hash is
    # object's own, which costs no Python call
    for name in ("x", "y'", "w_12"):
        v = Var(name)
        assert hash(v) == object.__hash__(v)
        # one live Var per name, however it is made
        assert Var(name) is v
        assert pickle.loads(pickle.dumps(v)) is v
        assert copy.copy(v) is v and copy.deepcopy(v) is v
        assert Names().fresh(name) is v
    assert Var("x") != Var("y") and Var("x") != Lit(0)
    assert repr(Var("x")) == "Var(name='x')"
    f = parse_formula("x = x")
    assert f.left is f.right


def test_term_vars():
    assert term_vars(Add(Mul(x, y), Lit(3))) == {x, y}
    assert term_vars(Lit(0)) == set()


def test_free_vars_quantifiers():
    f = Forall(x, Lt(x, y))
    assert free_vars(f) == {y}
    g = Exists(y, f)
    assert free_vars(g) == set()


def test_free_vars_bounded_bound_term_is_free():
    # the bound term sits outside the binder's scope
    f = BForall(x, Add(y, Lit(1)), Lt(x, z))
    assert free_vars(f) == {y, z}


def test_variables_read_a_bound_outside_its_scope():
    # exists x < x' . (forall y < x . y < x): the inner bound's x is bound
    # by the outer binder, the outer bound's x' is free
    xp = Var("x'")
    f = BExists(x, xp, BForall(y, x, Lt(y, x)))
    assert list(variables(f)) == [xp]
    g = Forall(x, BExists(y, x, Eq(y, x)))
    assert list(variables(g)) == []
    # the bound is read before the body
    assert list(variables(BExists(y, x, Eq(y, z)))) == [x, z]


def test_variables_shadowing_and_first_occurrence_order():
    # an inner binder of x ends its scope, and the outer one still binds x
    f = And(Eq(z, y), Forall(x, And(Exists(x, Eq(x, y)), Lt(x, Lit(1)))))
    assert list(variables(f)) == [z, y]
    # x is free again once its binder's scope ends, and counts once
    g = And(Exists(x, Eq(x, z)), Eq(y, x))
    assert list(variables(g)) == [z, y, x]
    assert list(variables(And(Eq(x, Lit(0)), g))) == [x, z, y]
    assert list(variables(Add(Mul(y, Lit(2)), x))) == [y, x]


def test_variables_refuses_a_non_node():
    for bad in (3, "x", None, [x]):
        with pytest.raises(TypeError):
            variables(bad)
        with pytest.raises(TypeError):
            free_vars(bad)


def test_free_vars_of_deep_binders_at_the_default_recursion_limit():
    # one stack loop: 20,000 nested binders, each kind in turn, read
    # without recursion and in well under half a second
    f = Eq(x, y)
    for i in range(20000):
        v = Var(f"v{i % 7}")
        f = (Forall(v, f), Exists(v, f), BForall(v, z, f), BExists(v, z, f))[i % 4]
    start = time.perf_counter()
    assert free_vars(f) == {x, y, z}
    assert time.perf_counter() - start < 0.5


def test_bounded_quantifier_rejects_self_bound():
    with pytest.raises(ValueError, match=r"bound term of forall x<\.\.\. mentions x"):
        BForall(x, Add(x, Lit(1)), TrueC())
    with pytest.raises(ValueError, match=r"bound term of exists y<\.\.\. mentions y"):
        BExists(y, Mul(Lit(2), y), TrueC())


def test_substitute_basic():
    f = Eq(Add(x, y), z)
    g = substitute(f, x, Lit(3))
    assert g == Eq(Add(Lit(3), y), z)


def test_substitute_shadowed_is_noop():
    f = Forall(x, Eq(x, y))
    assert substitute(f, x, Lit(5)) == f


def test_substitute_capture_avoidance():
    # [y := x] into forall x . y < x must rename the binder
    f = Forall(x, Lt(y, x))
    g = substitute(f, y, x)
    assert isinstance(g, Forall)
    assert g.var != x
    assert g.body == Lt(x, g.var)


def test_substitute_bounded_capture_avoidance():
    f = BForall(x, Lit(9), Lt(y, x))
    g = substitute(f, y, Add(x, Lit(1)))
    assert g.var != x
    assert g.bound == Lit(9)


def test_substitute_bound_term_is_substituted():
    f = BExists(x, y, Eq(x, x))
    g = substitute(f, y, Lit(7))
    assert g.bound == Lit(7)


def test_simultaneous_is_not_sequential():
    f = Eq(x, y)
    g = substitute_simultaneous(f, [(x, y), (y, x)])
    assert g == Eq(y, x)


def test_simultaneous_renamed_binder_is_not_a_later_target():
    # y := x renames the binder x to x'; x' is a target too, but the
    # renamed occurrences are substituted once, not read as that target
    xp = Var("x'")
    f = BExists(x, Lit(3), Eq(x, y))
    g = substitute_simultaneous(f, [(y, x), (xp, Lit(1))])
    assert g == BExists(xp, Lit(3), Eq(xp, x))


def test_substitute_renames_binder_its_bound_would_mention():
    # x := x' puts x' into the bound of the binder x'
    xp, xpp = Var("x'"), Var("x''")
    g = substitute(BForall(xp, x, Lt(xp, y)), x, xp)
    assert g == BForall(xpp, xp, Lt(xpp, y))


def test_substitute_keeps_binders_it_need_not_rename():
    f = Forall(y, Exists(z, Eq(Add(y, z), x)))
    g = substitute(f, x, Lit(4))
    assert g.var is f.var and g.body.var is f.body.var
    assert substitute(f, x, x) is f


def test_simultaneous_rejects_duplicates():
    with pytest.raises(ValueError):
        substitute_simultaneous(Eq(x, y), [(x, y), (x, z)])


def test_alpha_equal_renames():
    f = Forall(x, Lt(x, y))
    g = Forall(z, Lt(z, y))
    assert alpha_equal(f, g)
    assert not alpha_equal(f, Forall(z, Lt(z, x)))


def test_alpha_equal_bounded():
    f = BExists(x, y, Eq(x, Lit(0)))
    g = BExists(z, y, Eq(z, Lit(0)))
    assert alpha_equal(f, g)
    assert not alpha_equal(f, BExists(z, x, Eq(z, Lit(0))))


def test_alpha_distinguishes_free_from_bound():
    assert not alpha_equal(Forall(x, Eq(x, x)), Forall(x, Eq(x, y)))


def test_alpha_equal_restores_shadowed_binders():
    # the inner x ends its scope before the outer x is read again
    w = Var("w")
    f = Forall(x, And(Forall(x, Eq(x, Lit(0))), Eq(x, Lit(1))))
    assert alpha_equal(f, Forall(z, And(Forall(w, Eq(w, Lit(0))),
                                        Eq(z, Lit(1)))))
    assert not alpha_equal(f, Forall(z, And(Forall(w, Eq(w, Lit(0))),
                                            Eq(w, Lit(1)))))


def test_alpha_equal_compares_programs():
    text = "x := 0; while x < y do x := x + 1 od"
    p = parse_program(text)
    assert alpha_equal(p, parse_program(text))
    assert not alpha_equal(p, parse_program(text.replace("+ 1", "+ 2")))
    assert not alpha_equal(p, parse_program(text.replace("x", "z")))
    assert not alpha_equal(p, p.first)


def test_alpha_equal_deep_alpha():
    # the alpha of a 3,000-statement chain nests thousands of binders; the
    # walk keeps them on its stack, not Python's
    chain = "; ".join(["y := y + 1"] * 3000)
    one, two = (encode_alpha(parse_program(chain))[0] for _ in range(2))
    assert one is not two and alpha_equal(one, two)
    other = encode_alpha(parse_program(chain[:-1] + "2"))[0]
    assert not alpha_equal(one, other)


def _key(f, depth=0, bound=None):
    """The canonical key alpha_equal's answers are checked against: bound
    variables replaced by their binding depth, built by recursion."""
    bound = {} if bound is None else bound
    cls = type(f)
    if cls is Var:
        return ("bv", bound[f]) if f in bound else ("fv", f.name)
    if cls is Lit:
        return ("lit", f.n)
    if cls in (Forall, Exists, BForall, BExists):
        inner = {**bound, f.var: depth}
        bnd = ([_key(f.bound, depth, bound)] if cls in (BForall, BExists)
               else [])
        return (cls.__name__, *bnd, _key(f.body, depth + 1, inner))
    return (cls.__name__, *(_key(getattr(f, k), depth, bound)
                            for k in cls.__match_args__))


def _mentioned(f):
    cls = type(f)
    if cls in (Var, Lit):
        return {f} if cls is Var else set()
    return set().union(*(_mentioned(getattr(f, k))
                         for k in cls.__match_args__))


def _rename(f, rng, env):
    """f with each binder renamed at random, apart from every name the
    renamed body and bound could mention, so the result is alpha-equal."""
    cls = type(f)
    if cls in (Var, Lit):
        return env.get(f, f)
    if cls in (Forall, Exists, BForall, BExists):
        bnd = [_rename(f.bound, rng, env)] if cls in (BForall, BExists) else []
        taken = {env.get(v, v) for v in _mentioned(f.body)}
        taken |= set().union(*map(_mentioned, bnd))
        pool = [v for v in map(Var, "abcduvwxyz") if v not in taken]
        new = rng.choice(pool) if pool and rng.random() < 0.7 else Var(
            f"r{len(env)}_{rng.randrange(10 ** 6)}")
        return cls(new, *bnd, _rename(f.body, rng, {**env, f.var: new}))
    return cls(*(_rename(getattr(f, k), rng, env) for k in cls.__match_args__))


_SWAP = {Add: Mul, Mul: Add, Eq: Lt, Lt: Eq, And: Or, Or: And,
         Implies: Iff, Iff: Implies, Forall: Exists, Exists: Forall,
         BForall: BExists, BExists: BForall, TrueC: FalseC, FalseC: TrueC}


def _mutate(f, rng):
    """f with one node changed: the node a random walk from the root
    stops at."""
    cls = type(f)
    if cls is Var:
        return rng.choice([v for v in map(Var, "abcdxyz") if v is not f])
    if cls is Lit:
        return Lit(f.n + 1)
    args = [getattr(f, a) for a in cls.__match_args__]
    first = cls in (Forall, Exists, BForall, BExists)  # skip a binder's var
    if len(args) > first and rng.random() < 0.75:
        i = rng.randrange(first, len(args))
        args[i] = _mutate(args[i], rng)
        try:
            return cls(*args)
        except ValueError:  # a bound now mentions its binder
            args[i] = getattr(f, cls.__match_args__[i])
    if cls is Not:
        return f.body
    if first and rng.random() < 0.5:
        try:  # a binder of another name: alpha-equal if the old is unused
            return cls(_mutate(f.var, rng), *args[1:])
        except ValueError:
            pass
    return _SWAP[cls](*args)


def test_alpha_equal_agrees_with_a_canonical_key():
    # differential: 4,800 pairs from 1,200 seeded formulas, each against a
    # renaming of itself and against that renaming with one node changed
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(1200):
        f = random_formula(rng, depth=rng.randint(1, 5))
        g = _rename(f, rng, {})
        assert _key(f) == _key(g), (f, g)  # the renaming is alpha-equal
        h = _mutate(g, rng)
        for a, b in ((f, g), (f, h), (h, f), (g, h)):
            want = _key(a) == _key(b)
            assert alpha_equal(a, b) == want, (a, b)
            seen[want] += 1
    assert seen[True] > 1200 and seen[False] > 2000, seen


def test_conj_disj():
    assert conj([]) == TrueC()
    f = conj([Eq(x, x), Lt(x, y), TrueC()])
    assert f == And(Eq(x, x), And(Lt(x, y), TrueC()))


_names = st.sampled_from(["x", "y", "z", "u"])


@st.composite
def terms_st(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.builds(Var, _names),
            st.builds(Lit, st.integers(0, 9))))
    kind = draw(st.integers(0, 3))
    if kind <= 1:
        return draw(terms_st(depth=0))
    sub = terms_st(depth=depth - 1)
    ctor = Add if kind == 2 else Mul
    return ctor(draw(sub), draw(sub))


@given(terms_st(), terms_st())
def test_subst_term_then_eval(t, r):
    f = Eq(t, Lit(0))
    g = substitute(f, x, r)
    env = {y: 3, z: 5, Var("u"): 7}
    env_with = dict(env)
    env_with[x] = eval_term(r, env)
    assert (eval_term(g.left, env) ==
            eval_term(f.left, env_with))


# random_formula's binder names; their primed copies are the names a
# renamed binder gets first, so they are targets too
_BINDERS = [Var(c) for c in "abcduvw"]
_TARGETS = [x, y, z] + [Var(c + "'") for c in "abcduvw"]


@settings(max_examples=400)
@given(st.integers(0, 2 ** 32))
def test_substitution_lemma(seed):
    # eval(f[ts/vs], v) = eval(f, v[vs := eval ts]) for distinct targets
    rng = random.Random(seed)
    f = random_formula(rng)
    targets = rng.sample(_TARGETS, rng.randint(1, 3))
    pairs = [(v, random_term(rng, 2, [x, y, z] + _BINDERS)) for v in targets]
    val = {v: rng.randrange(4) for v in [x, y, z] + _BINDERS + _TARGETS}
    moved = dict(val)
    moved.update((v, eval_term(t, val)) for v, t in pairs)
    b = Budget(q_bound=3)
    got = eval_formula(substitute_simultaneous(f, pairs), val, b)
    assert got.value == eval_formula(f, moved, b).value


def test_names_fresh_sequence():
    names = Names()
    got = [names.fresh("x").name for _ in range(6)]
    assert got == ["x", "x'", "x''", "x'''", "x_4", "x_5"]


def test_names_avoid_and_fresh_vec():
    names = Names([Var("x"), Var("x''")])
    got = [v.name for v in names.fresh_vec(["x", "x", "y"])]
    assert got == ["x'", "x'''", "y"]


def _fresh_by_probing(used, base):
    # the definition: the first free candidate, probing from the start
    primes = 0
    name = base
    while name in used:
        primes += 1
        name = base + "'" * primes if primes <= 3 else f"{base}_{primes}"
    used.add(name)
    return name


def test_names_fresh_matches_probing_from_the_start():
    rng = random.Random(5)
    for _ in range(50):
        avoid = {rng.choice(["x", "x'", "x_5", "x'_4", "y", "y''"])
                 for _ in range(3)}
        names, used = Names([Var(n) for n in avoid]), set(avoid)
        for _ in range(40):
            base = rng.choice(["x", "x'", "y"])
            assert names.fresh(base).name == _fresh_by_probing(used, base)


def test_strip_exists():
    f = Exists(x, Exists(y, Forall(z, Exists(x, Eq(x, y)))))
    assert strip_exists(f) == ([x, y], f.body.body)
    assert strip_exists(Eq(x, y)) == ([], Eq(x, y))
