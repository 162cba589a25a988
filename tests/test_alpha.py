import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from arithver import coding
from arithver.coding import (beta_index, beta_inst, seq_encode, tuple_encode,
                             tuple_inst)
from arithver.terms import (Add, And, Eq, Exists, FalseC, Forall, Lit, Lt,
                            Mul, Not, TrueC, Var, conj, free_vars)
from arithver.evaluator import (Budget, compile_formula, eval_formula,
                                format_assignment)
from arithver.hierarchy import (PI, SIGMA, HierarchyLevel, classify,
                                prenexify)
from arithver.syntax import parse_formula
from arithver.whilelang import (Assign, If, Seq, While, compile_program,
                                program_vars, run)
from arithver.alpha import (HoareTriple, Verdict, check_triple, encode_alpha,
                            encode_alpha_out, instantiate_alpha, vc,
                            vc_instance)
from arithver.xrec import gamma_instance, monus_schema

from generators import (VARS, random_atom, random_formula, random_program,
                        same)

x, y, z = Var("x"), Var("y"), Var("z")

COUNT = Seq(Assign(y, Lit(0)), While(Lt(y, x), Assign(y, Add(y, Lit(1)))))
BRANCH = If(Lt(x, Lit(3)), Assign(y, Lit(0)), Assign(y, Lit(1)))


def test_encode_alpha_shapes():
    f, xs, ys = encode_alpha(COUNT)
    assert xs == [y, x]
    assert [v.name for v in ys] == ["y'", "x'"]
    # y is overwritten before being read, so it need not occur free
    assert free_vars(f) <= set(xs) | set(ys)
    assert set(ys) <= free_vars(f)


def test_alpha_is_generalized_sigma1():
    lvl = classify(encode_alpha(COUNT)[0])
    assert (lvl.kind, lvl.n) == (SIGMA, 1)
    # loop-free programs encode with no unbounded quantifiers at all
    for prog in (BRANCH, Assign(x, Add(x, Lit(1)))):
        assert classify(encode_alpha(prog)[0]).n == 0, prog


def _alpha_env(prog, state, fuel=1000):
    """Environment binding inputs and primed outputs from an actual run."""
    f, xs, ys = encode_alpha(prog)
    out = run(prog, state, fuel)
    assert out.terminated
    env = {v: state.get(v, 0) for v in xs}
    env.update({yv: out.state.get(xv, 0) for xv, yv in zip(xs, ys)})
    return f, env, out


def test_assignment_alpha_exact():
    prog = Assign(x, Add(x, Lit(1)))
    f, env, _ = _alpha_env(prog, {x: 4})
    assert eval_formula(f, env).is_true()
    env_bad = dict(env)
    env_bad[Var("x'")] = 7
    assert eval_formula(f, env_bad).is_false()


def test_conditional_alpha_exact():
    f, xs, ys = encode_alpha(BRANCH)
    for n in range(6):
        out = run(BRANCH, {x: n}, 100)
        env = {x: n, y: 0}
        env.update({yv: out.state.get(xv, 0) for xv, yv in zip(xs, ys)})
        assert eval_formula(f, env).is_true()
        env[Var("y'")] = 5
        assert eval_formula(f, env).is_false()


def test_instantiate_alpha_counting_loop():
    for n in range(6):
        inst = instantiate_alpha(COUNT, {x: n}, 1000)
        assert free_vars(inst) == set()
        assert eval_formula(inst, {}).is_true()


def test_instantiate_alpha_counting_loop_by_hand():
    # COUNT at x=2 over (y, x): the loop heads are (0,2), (1,2), (2,2), and
    # each head's state is built from its code read back out of w
    heads = [[0, 2], [1, 2], [2, 2]]
    w = seq_encode([tuple_encode(h) for h in heads])

    def state(j):
        t = beta_index(w, j)
        return And(beta_inst(w, j, t), tuple_inst(t, heads[j]))

    def step(j):
        return And(Lt(Lit(j), Lit(2)),
                   conj([Eq(Lit(j + 1), Add(Lit(j), Lit(1))), Eq(Lit(2), Lit(2))]))

    loop = conj([state(0)]
                + [p for j in range(2) for p in (state(j), state(j + 1), step(j))]
                + [state(2), Not(Lt(Lit(2), Lit(2)))])
    want = And(conj([Eq(Lit(0), Lit(0)), Eq(Lit(2), Lit(2))]), loop)
    assert same(instantiate_alpha(COUNT, {x: 2}, 1000), want)


def test_instantiate_alpha_counting_loop_at_200():
    # 201 loop heads: the shared pair equation of w is evaluated once
    inst = instantiate_alpha(COUNT, {x: 200}, 1000)
    assert eval_formula(inst, {}).is_true()


def test_instantiate_alpha_long_sequence():
    # a `;` chain of 3,000 statements is walked by a loop, not recursion
    step = Assign(y, Add(y, Lit(1)))
    prog = step
    for _ in range(2999):
        prog = Seq(step, prog)
    inst = instantiate_alpha(prog, {y: 0}, 10000)
    assert eval_formula(inst, {}).is_true()
    assert same(inst.left, Eq(Lit(1), Add(Lit(0), Lit(1))))


@pytest.mark.parametrize("build", [
    lambda: instantiate_alpha(COUNT, {x: 20}, 1000),
    lambda: vc_instance(HoareTriple(TrueC(), COUNT, Not(Lt(y, x))), {x: 5}, 1000),
    lambda: gamma_instance(monus_schema(), [3, 2], 1),
], ids=["instantiate_alpha", "vc_instance", "gamma_instance-nested-pr"])
def test_each_trace_code_split_once(build, monkeypatch):
    # the instance builders take each trace code's <b, c> from the
    # remaindering that makes the code, once, and never split it back
    calls = {"split": 0, "_seq_parts": 0}
    for name in calls:
        def counted(*args, _fn=getattr(coding, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(coding, name, counted)
    build()
    assert calls["split"] == 0 < calls["_seq_parts"]


def test_instantiate_alpha_nested_loop():
    inner = While(Lt(z, y), Assign(z, Add(z, Lit(1))))
    prog = Seq(Assign(z, Lit(0)), Seq(COUNT, inner))
    inst = instantiate_alpha(prog, {x: 3}, 1000)
    assert eval_formula(inst, {}).is_true()


def test_instantiate_alpha_fuel_exhaustion_returns_none():
    diverge = While(Lt(x, Lit(1)), Assign(x, x))
    assert instantiate_alpha(diverge, {x: 0}, 50) is None


def test_instances_none_exactly_when_run_exhausts_fuel():
    # the instances replay a run that run has checked, so "None" follows
    # run's cost model, including fuel below 1, which run itself rejects
    rng = random.Random(8)
    for _ in range(300):
        p = random_program(rng)
        st = {v: rng.randrange(4) for v in program_vars(p)}
        t = HoareTriple(TrueC(), p, TrueC())
        for fuel in (-1, 0, 1, 2, 3, 5, 40):
            halts = fuel >= 1 and run(p, st, fuel).terminated
            assert (instantiate_alpha(p, st, fuel) is None) == (not halts)
            assert (vc_instance(t, st, fuel) is None) == (not halts)


def test_alpha_no_false_positive_outputs():
    # wrong outputs must never be certified; the search budget must stay
    # tiny because the trace codes inside alpha are astronomically large,
    # so the honest verdict here is Unknown, never True
    rng = random.Random(3)
    f, xs, ys = encode_alpha(COUNT)
    for n in range(4):
        out = run(COUNT, {x: n}, 1000)
        good = tuple(out.state.get(v, 0) for v in xs)
        for _ in range(5):
            bad = tuple(rng.randrange(8) for _ in xs)
            if bad == good:
                continue
            env = {x: n, y: 0}
            env.update(dict(zip(ys, bad)))
            r = eval_formula(f, env, Budget(q_bound=1))
            assert not r.is_true(), (n, bad)


def test_encode_alpha_out():
    f, ins, res = encode_alpha_out(COUNT, 1, [x])
    assert ins == [x]
    assert free_vars(f) == {x, res}
    with pytest.raises(IndexError):
        encode_alpha_out(COUNT, 3, [x])
    with pytest.raises(ValueError):
        encode_alpha_out(COUNT, 1, [Var("nope")])


def test_vc_is_closed():
    t = HoareTriple(TrueC(), COUNT, Not(Lt(y, x)))
    assert free_vars(vc(t)) == set()


# the counting loop's VCs, as the levels of their pres and posts predict:
# alpha is generalized Sigma_1, a pre counts at its dual level, and
# forall ys.(alpha -> Q) is Pi_max(1,n) for Q in Pi_n, Pi_(n+1) for Q in
# Sigma_n
VC_POSTS = ["y = x", "forall z. z < y \\/ x < z + 1", "exists z. z + x = y",
            "forall u. exists z. z = u + y",
            "exists u. forall z. z < u \\/ y < z"]


@pytest.mark.parametrize("pre, levels", [
    ("true", [1, 1, 2, 2, 3]),
    ("exists z. z + z = x", [1, 1, 2, 2, 3]),
    ("forall z. z < x + 1", [2, 2, 2, 2, 3])])
def test_vc_levels_of_the_counting_loop(pre, levels):
    for post, n in zip(VC_POSTS, levels):
        f = vc(HoareTriple(parse_formula(pre), COUNT, parse_formula(post)))
        assert classify(f) == HierarchyLevel(PI, n, False), post
        assert classify(prenexify(f)) == HierarchyLevel(PI, n, True), post


def test_vc_instance_true_for_valid_triple():
    t = HoareTriple(TrueC(), COUNT, Not(Lt(y, x)))
    for n in range(5):
        inst = vc_instance(t, {x: n}, 1000)
        assert eval_formula(inst, {}).is_true()


def test_vc_instance_false_for_invalid_triple():
    t = HoareTriple(TrueC(), COUNT, Lt(y, x))
    inst = vc_instance(t, {x: 0}, 1000)
    assert eval_formula(inst, {}).is_false()


def test_vc_instance_fuel_exhaustion():
    diverge = While(Lt(x, Lit(1)), Assign(x, x))
    t = HoareTriple(TrueC(), diverge, FalseC())
    assert vc_instance(t, {x: 0}, 20) is None


def test_check_triple_verified():
    t = HoareTriple(TrueC(), COUNT, Not(Lt(y, x)))
    v = check_triple(t, grid=5, fuel=500)
    assert v.is_verified() and not v.caveats


def test_check_triple_counterexample():
    t = HoareTriple(TrueC(), Assign(x, x), Lt(x, Lit(0)))
    v = check_triple(t, grid=3, fuel=10)
    assert v.status == "counterexample"
    assert v.input[x] == 0 and v.output[x] == 0


def test_check_triple_divergence_caveat():
    diverge = While(Not(Lt(x, Lit(0))), Assign(x, Add(x, Lit(1))))
    t = HoareTriple(TrueC(), diverge, FalseC())
    v = check_triple(t, grid=2, fuel=50)
    assert v.is_verified()
    assert any("fuel exhausted" in c for c in v.caveats)


def test_check_triple_false_pre_passes():
    t = HoareTriple(FalseC(), Assign(x, x), FalseC())
    v = check_triple(t, grid=2, fuel=10)
    assert v.is_verified() and not v.caveats


def test_check_triple_with_params():
    # {x = n} count {y = n} with parameter n
    n = Var("n")
    t = HoareTriple(Eq(x, n), COUNT, Eq(y, n), params=(n,))
    v = check_triple(t, grid=4, fuel=500)
    assert v.is_verified() and not v.caveats


def test_check_triple_param_counterexample():
    n = Var("n")
    t = HoareTriple(Eq(x, n), COUNT, Lt(y, n), params=(n,))
    v = check_triple(t, grid=3, fuel=500)
    assert v.status == "counterexample"


def test_check_triple_sweeps_a_param_that_is_a_program_variable_once(monkeypatch):
    import arithver.alpha as alpha_mod
    points = []

    def counted(prog):
        compiled = compile_program(prog)
        return lambda st, fuel: points.append(st) or compiled(st, fuel)
    monkeypatch.setattr(alpha_mod, "compile_program", counted)
    t = HoareTriple(TrueC(), Assign(y, x), Eq(y, x), params=(x,))
    assert check_triple(t, grid=2, fuel=10).is_verified()
    assert len(points) == 9  # x and y over 0..2, each once


def test_check_triple_counts_skipped_points_as_decided():
    # the pre is False wherever x > 0, where the sweep skips; those points
    # are decided, so the Unknown posts at x = 0 leave a verified verdict
    w = Var("w")
    post = Exists(w, Eq(w, Add(y, Lit(5))))
    budget = Budget(q_bound=2)
    v = check_triple(HoareTriple(Eq(x, Lit(0)), Assign(y, x), post), 2, 10,
                     budget)
    assert v.status == "verified" and len(v.caveats) == 3
    v = check_triple(HoareTriple(TrueC(), Assign(y, x), post), 2, 10, budget)
    assert v.status == "inconclusive" and len(v.caveats) == 9


def _unpruned_check_triple(triple, grid, fuel, budget):
    # check_triple as a plain loop over the whole product: the pre is
    # evaluated at every point, and the interpreter runs the program
    sweep = list(dict.fromkeys([*triple.params, *program_vars(triple.prog)]))
    pre = compile_formula(triple.pre, budget)
    post = compile_formula(triple.post, budget)
    caveats, decided, unknowns = [], 0, 0
    for values in itertools.product(range(grid + 1), repeat=len(sweep)):
        point = dict(zip(sweep, values))
        at = format_assignment(point)
        pre_v = pre(point)
        if pre_v.is_false():
            decided += 1
            continue
        if not pre_v.is_exact():
            unknowns += 1
            caveats.append(f"pre Unknown at {at}: {pre_v.reason}")
            continue
        out = run(triple.prog, point, fuel)
        if not out.terminated:
            caveats.append(f"fuel exhausted at {at}; divergence assumed")
            continue
        post_v = post(out.state)
        if post_v.is_false():
            return Verdict("counterexample", grid, fuel, input=point,
                           output=out.state)
        if post_v.is_true():
            decided += 1
        else:
            unknowns += 1
            caveats.append(f"post Unknown at {at}: {post_v.reason}")
    status = "inconclusive" if unknowns and not decided else "verified"
    return Verdict(status, grid, fuel, caveats=tuple(caveats))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_check_triple_agrees_with_the_unpruned_sweep(seed):
    # pres mix binder-free conjuncts, which the sweep prunes on, with
    # quantified ones, Unknown at some points, and true; n and m read as
    # 0 where they are not swept
    rng = random.Random(seed)
    n, m, w = Var("n"), Var("m"), Var("w")
    vs = [*VARS, n, m]

    def conjunct():
        k = rng.randrange(5)
        if k == 0:
            return TrueC()
        if k == 1:
            return rng.choice([Exists, Forall])(w, random_atom(rng, [*vs, w]))
        if k == 2:
            return random_formula(rng, 2, vs)
        return random_atom(rng, vs)
    parts = [conjunct() for _ in range(rng.randint(1, 4))]
    pre = rng.choice([conj, lambda ps: functools.reduce(And, ps)])(parts)
    post = rng.choice([random_atom(rng, vs),
                       Exists(w, random_atom(rng, [*vs, w]))])
    triple = HoareTriple(pre, random_program(rng), post,
                         tuple(rng.sample([x, n, m], rng.randrange(3))))
    for grid, fuel, q in ((0, 1, 0), (2, 5, 1), (3, 50, 2)):
        budget = Budget(q_bound=q)
        got = check_triple(triple, grid, fuel, budget)
        want = _unpruned_check_triple(triple, grid, fuel, budget)
        assert (got.status, got.caveats) == (want.status, want.caveats)
        assert got.input == want.input and got.output == want.output
        assert list(got.input or ()) == list(want.input or ())


def test_vc_binds_a_param_that_is_a_program_variable_once():
    t = HoareTriple(TrueC(), Assign(y, x), Eq(y, x), params=(x,))
    f, binders = vc(t), []
    while hasattr(f, "var"):
        binders.append(f.var.name)
        f = f.body
    assert binders == ["x", "y", "y'", "x'"]


def test_vc_names_outputs_apart_from_params_and_assertions():
    # an output binder named x' captured the param x', and the VC of a
    # refuted triple came out valid; a free x' of pre or post likewise
    xp = Var("x'")
    for params, env in (((xp,), {}), ((), {xp: 0})):
        t = HoareTriple(Eq(xp, Lit(0)), Assign(x, Add(x, Lit(1))), Eq(x, xp),
                        params)
        assert check_triple(t, grid=2, fuel=10).status == "counterexample"
        assert eval_formula(vc(t), env, Budget(q_bound=2)).is_false()


def test_check_triple_validation():
    t = HoareTriple(TrueC(), COUNT, TrueC())
    with pytest.raises(ValueError):
        check_triple(t, grid=-1, fuel=10)
    with pytest.raises(ValueError):
        check_triple(t, grid=1, fuel=0)
