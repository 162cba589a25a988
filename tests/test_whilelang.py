import random

import pytest
from hypothesis import given, strategies as st

from arithver import whilelang
from arithver.syntax import parse_program
from arithver.terms import (Add, Eq, Exists, Implies, Lit, Lt, Not, TrueC, Var,
                            alpha_equal)
from arithver.whilelang import (Assign, If, Seq, While, compile_program,
                                is_guard, program_vars, run, seq)

from generators import VARS, random_bool, random_program

x, y, z = Var("x"), Var("y"), Var("z")

COUNT = Seq(Assign(y, Lit(0)), While(Lt(y, x), Assign(y, Add(y, Lit(1)))))


def test_assign():
    out = run(Assign(x, Add(x, Lit(1))), {x: 4}, 10)
    assert out.terminated and out.state[x] == 5 and out.steps == 1


def test_input_state_not_mutated():
    st = {x: 4}
    run(Assign(x, Lit(9)), st, 10)
    assert st == {x: 4}


def test_seq_and_if():
    p = Seq(Assign(y, Lit(3)),
            If(Lt(x, y), Assign(z, Lit(1)), Assign(z, Lit(2))))
    assert run(p, {x: 0}, 10).state[z] == 1
    assert run(p, {x: 5}, 10).state[z] == 2


def test_counting_loop():
    for n in range(8):
        out = run(COUNT, {x: n}, 100)
        assert out.terminated
        assert out.state[y] == n
        # 1 init + (n+1) guard tests + n body assignments
        assert out.steps == 1 + (n + 1) + n


def test_fuel_exhaustion_reports_steps_equal_fuel():
    diverge = While(Lt(x, Lit(1)), Assign(x, x))
    out = run(diverge, {x: 0}, 37)
    assert not out.terminated
    assert out.steps == 37


def test_fuel_exact_boundary():
    out = run(COUNT, {x: 2}, 6)
    assert out.terminated and out.steps == 6
    out = run(COUNT, {x: 2}, 5)
    assert not out.terminated


def test_state_at_exhaustion():
    # init, guard, body, guard: the fourth unit is the last spent
    out = run(COUNT, {x: 10}, 4)
    assert not out.terminated and out.steps == 4
    assert out.state == {x: 10, y: 1}


def test_fuel_validation():
    with pytest.raises(ValueError):
        run(COUNT, {}, 0)
    with pytest.raises(ValueError):
        compile_program(COUNT)({}, 0)


@given(st.integers(0, 2 ** 32))
def test_compiled_program_agrees_with_run(seed):
    # the outcome, the state at exhaustion and the steps, at every fuel
    rng = random.Random(seed)
    for _ in range(3):
        p = random_program(rng)
        compiled = compile_program(p)
        st0 = {v: rng.randrange(5) for v in VARS}
        before = dict(st0)
        for fuel in range(1, 41):
            assert compiled(st0, fuel) == run(p, st0, fuel)
        assert st0 == before


def test_missing_vars_read_zero():
    out = run(COUNT, {}, 10)
    assert out.terminated and out.state[y] == 0


@pytest.mark.parametrize("guard", [
    Eq(x, y), TrueC(), Exists(z, Lt(z, x)), Implies(Lt(x, y), Eq(x, y)),
    Not(Not(Exists(z, Lt(z, x))))])
def test_if_and_while_refuse_a_non_guard(guard):
    # a guard is built from Lt, Not and Implies, so it never evaluates to
    # Unknown and an Unknown is never read as false
    assert not is_guard(guard)
    with pytest.raises(TypeError, match="not a boolean expression"):
        If(guard, Assign(x, Lit(0)), Assign(x, Lit(1)))
    with pytest.raises(TypeError, match="not a boolean expression"):
        While(guard, Assign(x, Lit(0)))


def test_guard_classes_are_formula_classes():
    assert whilelang.Less is Lt
    assert whilelang.NotB is Not


def test_program_vars_first_occurrence_order():
    p = Seq(Assign(z, Add(x, y)), Assign(x, z))
    assert program_vars(p) == [z, x, y]
    assert program_vars(COUNT) == [y, x]


def test_program_vars_guards_counted():
    p = While(Lt(x, y), Assign(z, Lit(0)))
    assert program_vars(p) == [x, y, z]


def test_nested_loop_terminates():
    inner = While(Lt(z, y), Assign(z, Add(z, Lit(1))))
    p = Seq(Assign(y, Lit(0)),
            While(Lt(y, x), Seq(Seq(Assign(z, Lit(0)), inner),
                                Assign(y, Add(y, Lit(1))))))
    out = run(p, {x: 4}, 10 ** 4)
    assert out.terminated and out.state[y] == 4


def test_seq_splices_and_nests_to_the_right():
    a, b, c = Assign(x, Lit(1)), Assign(y, Lit(2)), Assign(z, Lit(3))
    loop = While(Lt(y, x), Seq(Seq(a, b), c))  # a statement, not spliced
    p = seq([Seq(Seq(a, b), c), Seq(b, Seq(c, a)), loop])
    assert p == Seq(a, Seq(b, Seq(c, Seq(b, Seq(c, Seq(a, loop))))))
    assert seq([a]) is a and seq([loop]) is loop
    # the parser's tree, even for a chain too deep for `==`
    long = seq([Seq(Seq(a, b), c)] * 1000)
    assert alpha_equal(parse_program(str(long)), long)
    node = long
    while isinstance(node, Seq):
        assert not isinstance(node.first, Seq)
        node = node.second


def test_deep_sequence_runs():
    p = Assign(y, Add(y, Lit(1)))
    for _ in range(2999):
        p = Seq(Assign(y, Add(y, Lit(1))), p)
    out = run(p, {}, 10 ** 4)
    assert out.terminated and out.steps == 3000 and out.state[y] == 3000
    assert program_vars(p) == [y]
    left = Assign(y, Add(y, Lit(1)))
    for _ in range(2999):
        left = Seq(left, Assign(y, Add(y, Lit(1))))
    for chain in (p, left):
        for fuel in (1500, 10 ** 4):
            assert compile_program(chain)({}, fuel) == run(p, {}, fuel)
