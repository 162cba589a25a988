import random

import pytest
from hypothesis import given, strategies as st

from arithver.coding import (beta, beta_graph, beta_index, beta_inst, mod_graph,
                             mod_inst, pair, pair_graph, pair_inst, seq_encode,
                             seq_inst, split, tuple_decode, tuple_encode,
                             tuple_graph, tuple_inst)
from arithver.evaluator import eval_formula
from arithver.terms import Add, Eq, Lit, Names, Var


def test_pair_known_values():
    # the standard diagonal enumeration: <0,0>=0, <0,1>=1, <1,0>=2, ...
    assert pair(0, 0) == 0
    assert pair(0, 1) == 1
    assert pair(1, 0) == 2
    assert pair(0, 2) == 3
    assert pair(1, 1) == 4
    assert pair(2, 0) == 5


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        split(-1)


def test_split_pair_identity_small():
    for x in range(60):
        for y in range(60):
            assert split(pair(x, y)) == (x, y)


def test_pair_is_bijective_on_initial_segment():
    seen = {pair(x, y) for x in range(40) for y in range(40)}
    # the diagonal block up to x+y < 40 is exactly an initial segment
    diag = {pair(x, y) for x in range(40) for y in range(40) if x + y < 40}
    assert diag == set(range(40 * 41 // 2))
    assert len(seen) == 1600


@given(st.integers(0, 10 ** 40), st.integers(0, 10 ** 40))
def test_split_pair_identity_bignum(x, y):
    assert split(pair(x, y)) == (x, y)


@given(st.integers(0, 10 ** 40))
def test_pair_split_identity(z):
    x, y = split(z)
    assert pair(x, y) == z


def test_tuple_roundtrip():
    for xs in ([5], [3, 4], [0, 0, 0], [9, 1, 7, 2], list(range(8))):
        assert tuple_decode(tuple_encode(xs), len(xs)) == xs


def test_tuple_singleton_is_identity():
    assert tuple_encode([42]) == 42


def test_tuple_errors():
    with pytest.raises(ValueError):
        tuple_encode([])
    with pytest.raises(ValueError):
        tuple_decode(5, 0)


@given(st.lists(st.integers(0, 10 ** 12), min_size=1, max_size=6))
def test_tuple_roundtrip_random(xs):
    assert tuple_decode(tuple_encode(xs), len(xs)) == xs


def test_beta_decodes_sequences():
    for xs in ([0], [7], [1, 2, 3], [50, 0, 50, 0], [10 ** 9, 5, 10 ** 18]):
        w = seq_encode(xs)
        for i, a in enumerate(xs):
            assert beta_index(w, i) == a


def test_beta_consistent_with_split():
    w = seq_encode([4, 9, 2])
    b, c = split(w)
    for i in range(3):
        assert beta(b, c, i) == beta_index(w, i)


def test_seq_encode_rejects_empty():
    with pytest.raises(ValueError):
        seq_encode([])


def test_many_random_sequences_decode():
    rng = random.Random(7)
    for _ in range(500):
        xs = [rng.randrange(51) for _ in range(rng.randrange(1, 9))]
        w = seq_encode(xs)
        assert [beta_index(w, i) for i in range(len(xs))] == xs


@given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=10))
def test_seq_encode_random(xs):
    w = seq_encode(xs)
    assert [beta_index(w, i) for i in range(len(xs))] == xs


@given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=10))
def test_seq_inst_is_beta_inst_at_every_position(xs):
    w = seq_encode(xs)
    assert seq_inst(xs) == [beta_inst(w, i, x) for i, x in enumerate(xs)]


@given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=10))
def test_seq_inst_shares_one_pair_instance(xs):
    # every position holds the same pair-equation object, and still equals
    # the position's own beta_inst
    w = seq_encode(xs)
    insts = seq_inst(xs)
    assert len({id(inst.left) for inst in insts}) == 1
    for i, inst in enumerate(insts):
        assert inst == beta_inst(w, i, xs[i])
        assert inst.left is not beta_inst(w, i, xs[i]).left


# -- defining formulas against the numeric decoders -------------------------

z, a, b, w, i, v = (Var(n) for n in ("z", "a", "b", "w", "i", "v"))


def _holds(f, env):
    r = eval_formula(f, env)
    assert r.is_exact(), r.reason
    return r.is_true()


def test_pair_graph_round_trip():
    f = pair_graph(z, a, b)
    for x in range(5):
        for y in range(5):
            hits = [n for n in range(pair(4, 4) + 2) if _holds(f, {z: n, a: x, b: y})]
            assert hits == [pair(x, y)]
            assert _holds(pair_inst(pair(x, y), x, y), {})
            assert not _holds(pair_inst(pair(x, y) + 1, x, y), {})


def test_mod_graph_round_trip():
    f = mod_graph(v, a, b, Names([v, a, b]))
    for n in range(12):
        for m in range(1, 5):
            hits = [r for r in range(6) if _holds(f, {v: r, a: n, b: m})]
            assert hits == [n % m]
            assert _holds(mod_inst(n % m, n, m), {})
            assert not _holds(mod_inst(n % m + 1, n, m), {})


def test_beta_graph_round_trip():
    f = beta_graph(w, i, v, Names([w, i, v]))
    for code in range(0, 24, 5):
        for k in range(3):
            want = beta_index(code, k)
            hits = [r for r in range(8) if _holds(f, {w: code, i: k, v: r})]
            assert hits == [want]
            assert _holds(beta_inst(code, k, want), {})
            assert not _holds(beta_inst(code, k, want + 1), {})


def test_tuple_graph_round_trip():
    cs = [Var(f"c{k}") for k in range(3)]
    f = tuple_graph(z, cs, Names([z] + cs))
    for vals in ([0, 0, 0], [1, 2, 1], [2, 0, 1], [0, 3, 0]):
        t = tuple_encode(vals)
        env = dict(zip(cs, vals))
        hits = [n for n in range(t + 3) if _holds(f, {**env, z: n})]
        assert hits == [t]
        assert _holds(tuple_inst(t, vals), {})
        assert not _holds(tuple_inst(t + 1, vals), {})
    # a 1-tuple codes as itself
    assert _holds(tuple_graph(z, [a], Names()), {z: 7, a: 7})
    assert _holds(tuple_inst(7, [7]), {}) and not _holds(tuple_inst(8, [7]), {})


def test_tuple_graph_of_thousands_of_components():
    # built by a loop, so 3,000 components pass at the default recursion
    # limit; the rest of the tuple after each component is its own r
    cs = [Var(f"c{k}") for k in range(3000)]
    f = tuple_graph(z, cs, Names([z] + cs))
    rest, rs = z, []
    for c in cs[:-1]:
        r = f.var
        assert f.bound == Add(rest, Lit(1))
        assert f.body.left == pair_graph(rest, c, r)
        rs.append(r)
        rest, f = r, f.body.right
    assert f == Eq(rest, cs[-1])
    assert len({r.name for r in rs} | {z.name} | {c.name for c in cs}) == 6000
