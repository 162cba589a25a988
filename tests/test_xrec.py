import itertools
import random
from dataclasses import fields

import pytest

from arithver.alpha import encode_alpha, encode_alpha_out
from arithver.coding import beta_inst, seq_encode
from arithver.terms import (Add, And, BExists, Eq, Exists, Lit, Lt, Mul, Not,
                            Or, Var, alpha_equal, conj, free_vars)
from arithver.evaluator import Budget, eval_formula
from arithver.hierarchy import SIGMA, classify
from arithver.whilelang import If, Program, Seq, While, program_vars, run
from arithver.syntax import parse_formula, parse_program
from arithver.xrec import (STDLIB, AddF, Cn, Const, EvalResult,
                           FunctionalityError, Mn, MulF, NotLevelZero, Pr,
                           Proj, ShapeError, bexists, bforall, cases,
                           chi_eq_schema, chi_lt_schema, compile_to_while,
                           gamma, gamma_instance, max_schema, min_schema,
                           monus_schema, pi1_counterexample_program,
                           pred_schema, prod_of, sg_schema, sgbar_schema,
                           sigma0_char, sigma1_to_program, sigma1_to_xrec,
                           stdlib, sum_of, xrec_eval)

from generators import random_formula, random_program, same
from test_acceptance import SIGMA1_FIXTURES

x, y, z = Var("x"), Var("y"), Var("z")


# ---------------------------------------------------------------------------
# schema construction and evaluation


def test_arity_validation():
    with pytest.raises(ValueError):
        Proj(0, 2)
    with pytest.raises(ValueError):
        Proj(3, 2)
    with pytest.raises(ValueError):
        Cn(AddF(), (Proj(1, 1),))  # Add needs two inner functions
    with pytest.raises(ValueError):
        Cn(AddF(), (Proj(1, 1), Proj(2, 2)))  # mixed inner arities
    with pytest.raises(ValueError):
        Pr(Proj(1, 1), Proj(1, 2))  # g must have arity f.arity + 2
    with pytest.raises(ValueError):
        Mn(Const(0, 0))
    with pytest.raises(ValueError):
        Const(-1, 0)


@pytest.mark.parametrize("build,message", [
    (lambda: Cn(AddF(3), (Proj(1, 1),) * 3), "AddF takes 2 arguments, not 3"),
    (lambda: xrec_eval(AddF(1), [5]), "AddF takes 2 arguments, not 1"),
    (lambda: gamma(AddF(1)), "AddF takes 2 arguments, not 1"),
    (lambda: compile_to_while(MulF(0)), "MulF takes 2 arguments, not 0"),
], ids=["cn-add-3", "eval-add-1", "gamma-add-1", "compile-mul-0"])
def test_add_and_mul_take_two_arguments(build, message):
    # an AddF of arity 3 once summed only its first two arguments, and
    # arities 0 and 1 raised IndexError wherever the schema was used
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_add_and_mul_keep_their_arity_field():
    # the arity field stays, so the schemas' repr is unchanged
    assert (repr(AddF()), repr(MulF(2))) == ("AddF(arity=2)", "MulF(arity=2)")
    assert AddF(2) == AddF() and AddF().arity == MulF().arity == 2


def test_basic_eval():
    assert xrec_eval(Const(7, 2), [9, 9]).value == 7
    assert xrec_eval(Proj(2, 3), [4, 5, 6]).value == 5
    assert xrec_eval(AddF(), [3, 4]).value == 7
    assert xrec_eval(MulF(), [3, 4]).value == 12


def test_eval_arity_mismatch():
    with pytest.raises(ValueError):
        xrec_eval(AddF(), [1])


def test_primitive_recursion_eval():
    # doubling by recursion: d(0)=0, d(y+1)=d(y)+2
    d = Pr(Const(0, 0), Cn(AddF(), (Proj(2, 2), Const(2, 2))))
    for n in range(10):
        assert xrec_eval(d, [n]).value == 2 * n


def test_mn_eval_and_divergence():
    # least y with y + x = 10 -> diverges for x > 10
    f = Cn(stdlib("chi_eq"), (Cn(AddF(), (Proj(2, 2), Proj(1, 2))), Const(10, 2)))
    # chi_eq is 1 on equality; Mn wants 0, so flip it
    g = Mn(Cn(stdlib("sgbar"), (f,)))
    assert xrec_eval(g, [4]).value == 6
    r = xrec_eval(g, [11], fuel=2000)
    assert r.diverged and r.fuel_spent == 2000


def test_fuel_accounting():
    r = xrec_eval(AddF(), [1, 2], fuel=10)
    assert r.fuel_spent == 1
    with pytest.raises(ValueError):
        xrec_eval(AddF(), [1, 2], fuel=0)


# ---------------------------------------------------------------------------
# standard library vs direct arithmetic oracles


def _sgn(n):
    return 1 if n > 0 else 0


def test_stdlib_identities_exhaustive():
    rng = range(16)
    pred, monus = pred_schema(), monus_schema()
    sg, sgbar = sg_schema(), sgbar_schema()
    chi_eq, chi_lt = chi_eq_schema(), chi_lt_schema()
    mx, mn_ = max_schema(), min_schema()
    for a in rng:
        assert xrec_eval(pred, [a]).value == max(a - 1, 0)
        assert xrec_eval(sg, [a]).value == _sgn(a)
        assert xrec_eval(sgbar, [a]).value == 1 - _sgn(a)
        for b in rng:
            assert xrec_eval(monus, [a, b]).value == max(a - b, 0)
            assert xrec_eval(chi_eq, [a, b]).value == (1 if a == b else 0)
            assert xrec_eval(chi_lt, [a, b]).value == (1 if a < b else 0)
            assert xrec_eval(mx, [a, b]).value == max(a, b)
            assert xrec_eval(mn_, [a, b]).value == min(a, b)


def test_sum_and_prod():
    f = Cn(AddF(), (Proj(2, 2), Proj(1, 2)))  # f(x, i) = x + i
    s = sum_of(f)
    p = prod_of(Cn(AddF(), (Proj(2, 2), Const(1, 2))))
    for xx in range(5):
        for yy in range(6):
            assert xrec_eval(s, [xx, yy]).value == sum(xx + i for i in range(yy + 1))
    import math
    for yy in range(6):
        assert xrec_eval(p, [0, yy]).value == math.factorial(yy + 1)


def test_cases():
    # |x - y| by cases on the order
    a, b = Proj(1, 2), Proj(2, 2)
    lt = chi_lt_schema()
    ge = Cn(sgbar_schema(), (Cn(monus_schema(), (b, a)),))
    h = cases([(lt, Cn(monus_schema(), (b, a))), (ge, Cn(monus_schema(), (a, b)))])
    for xx in range(8):
        for yy in range(8):
            assert xrec_eval(h, [xx, yy]).value == abs(xx - yy)


def test_cases_validation():
    with pytest.raises(ValueError):
        cases([])
    with pytest.raises(ValueError):
        cases([(Proj(1, 1), Proj(1, 2))])


def test_bounded_quantifier_characteristics():
    # (exists v < y . v*v = x) and its dual
    c = sigma0_char(Eq(Mul(z, z), x), var_order=[x, z])
    be, bf = bexists(c), bforall(c)
    for xx in range(12):
        for yy in range(6):
            e = 1 if any(v * v == xx for v in range(yy)) else 0
            a = 1 if all(v * v == xx for v in range(yy)) else 0
            assert xrec_eval(be, [xx, yy], fuel=10 ** 6).value == e
            assert xrec_eval(bf, [xx, yy], fuel=10 ** 6).value == a


def test_stdlib_catalog():
    assert stdlib("pred").arity == 1
    assert stdlib("max").arity == 2
    with pytest.raises(ValueError):
        stdlib("pred", Proj(1, 1))
    with pytest.raises(ValueError):
        stdlib("nope")


# ---------------------------------------------------------------------------
# defining formulas


def test_gamma_basic_clauses_evaluate_exactly():
    f, xs, yv = gamma(AddF())
    assert eval_formula(f, {xs[0]: 2, xs[1]: 3, yv: 5}).is_true()
    assert eval_formula(f, {xs[0]: 2, xs[1]: 3, yv: 6}).is_false()
    g, xs2, yv2 = gamma(Const(4, 1))
    assert eval_formula(g, {xs2[0]: 9, yv2: 4}).is_true()


def test_gamma_cn_with_witness_search():
    h = Cn(AddF(), (Proj(1, 1), Proj(1, 1)))  # doubling
    f, xs, yv = gamma(h)
    lvl = classify(f)
    assert (lvl.kind, lvl.n) == (SIGMA, 1)
    r = eval_formula(f, {xs[0]: 3, yv: 6}, Budget(q_bound=8))
    assert r.is_true()
    r = eval_formula(f, {xs[0]: 3, yv: 7}, Budget(q_bound=8))
    assert not r.is_true()


def test_gamma_is_generalized_sigma1():
    for h in (pred_schema(), monus_schema(),
              Mn(chi_lt_schema())):
        lvl = classify(gamma(h)[0])
        assert lvl.kind == SIGMA and lvl.n <= 1, h


def test_gamma_instance_true_across_schemas():
    f = Cn(AddF(), (Proj(2, 2), Proj(1, 2)))
    table = [
        (pred_schema(), [5]), (monus_schema(), [7, 3]), (sg_schema(), [4]),
        (max_schema(), [3, 9]), (sum_of(f), [2, 4]),
        (Mn(sigma0_char(Lt(Mul(z, z), x), var_order=[x, z])), [10]),
    ]
    for h, args in table:
        v = xrec_eval(h, args, fuel=10 ** 6).value
        inst = gamma_instance(h, args, v)
        assert free_vars(inst) == set()
        assert eval_formula(inst, {}).is_true(), (h, args)


def test_gamma_instance_rejects_wrong_value():
    with pytest.raises(ValueError):
        gamma_instance(pred_schema(), [5], 9)


def test_gamma_no_false_positive_small_budget():
    f, xs, yv = gamma(monus_schema())
    for wrong in (0, 3, 9):
        if wrong == 4:
            continue
        r = eval_formula(f, {xs[0]: 7, xs[1]: 3, yv: wrong}, Budget(q_bound=2))
        assert not r.is_true()


# ---------------------------------------------------------------------------
# characteristic functions of level-0 formulas


def test_sigma0_char_connectives():
    f = Or(And(Lt(x, y), Not(Eq(x, Lit(0)))), Eq(y, Lit(5)))
    c = sigma0_char(f, var_order=[x, y])
    for a in range(8):
        for b in range(8):
            want = 1 if ((a < b and a != 0) or b == 5) else 0
            assert xrec_eval(c, [a, b], fuel=10 ** 6).value == want


# level-0 formulas with the constants, `->` and `<->`, over x and y
CHAR_FORMULAS = ["x < y <-> y = x", "(x = 1 <-> y = 1) -> x < y",
                 "true -> x = y", "x < y \\/ false", "x = y /\\ true",
                 "(false -> x = 1) <-> y < x", "~(x < y -> false)",
                 "exists z < y . (z = x <-> true)"]


@pytest.mark.parametrize("text", CHAR_FORMULAS)
def test_sigma0_char_constants_and_implications(text):
    f = parse_formula(text)
    c = sigma0_char(f)  # order [x, y]
    for a, b in itertools.product(range(4), repeat=2):
        want = eval_formula(f, {x: a, y: b})
        assert want.is_exact()
        assert xrec_eval(c, [a, b], fuel=10 ** 6).value == int(want.is_true())


def test_sigma0_char_agrees_with_eval_formula_on_random_formulas():
    # random level-0 formulas over x, y, z, each compared at every point
    # of {0, 1, 2}^3; a binder may reuse the name of one further out
    rng, kept = random.Random(35), 0
    while kept < 60:
        f = random_formula(rng, 3, [x, y, z])
        if classify(f).n != 0:
            continue
        kept += 1
        c = sigma0_char(f, var_order=[x, y, z])
        for point in itertools.product(range(3), repeat=3):
            want = eval_formula(f, dict(zip((x, y, z), point)))
            assert want.is_exact()
            got = xrec_eval(c, list(point), fuel=10 ** 6)
            assert got.value == int(want.is_true()), (str(f), point)


def test_sigma0_char_inner_binder_shadows():
    f = parse_formula("y < 2 /\\ exists y < 3 . y = x")
    c = sigma0_char(f, var_order=[x, y])
    for a, b in itertools.product(range(4), repeat=2):
        want = int(b < 2 and a < 3)
        assert xrec_eval(c, [a, b], fuel=10 ** 6).value == want


def test_sigma0_char_rejects_higher_levels():
    with pytest.raises(NotLevelZero):
        sigma0_char(Exists(y, Eq(y, x)))


def test_sigma0_char_default_var_order_sorted_by_name():
    c = sigma0_char(Lt(y, x))  # order [x, y]
    assert c.arity == 2
    assert xrec_eval(c, [5, 2], fuel=10 ** 5).value == 1  # y=2 < x=5


# ---------------------------------------------------------------------------
# compilation to while-programs


def test_compile_result_is_first_variable():
    prog, res, ps = compile_to_while(monus_schema())
    assert program_vars(prog)[0] == res
    assert program_vars(prog)[1:len(ps) + 1] == ps


def test_compile_agrees_with_eval():
    for h in (pred_schema(), monus_schema(), max_schema(), chi_eq_schema()):
        prog, res, ps = compile_to_while(h)
        for a in range(6):
            for b in range(6):
                args = [a, b][:h.arity]
                out = run(prog, dict(zip(ps, args)), 10 ** 5)
                assert out.terminated
                assert out.state[res] == xrec_eval(h, args).value, (h, args)


def test_compile_mn_divergence_matches():
    # empty search: least y with chi_lt(x, y-ish) ... use an unsatisfiable test
    h = Mn(Const(1, 1))  # probe never 0
    r = xrec_eval(h, [], fuel=1000)
    assert r.diverged
    prog, res, ps = compile_to_while(h)
    out = run(prog, {}, 1000)
    assert not out.terminated


def _loops(prog):
    # While nodes, by an explicit walk: compiled `;` chains run deep
    todo, n = [prog], 0
    while todo:
        p = todo.pop()
        n += isinstance(p, While)
        todo += [getattr(p, f.name) for f in fields(p)
                 if isinstance(getattr(p, f.name), Program)]
    return n


@pytest.mark.parametrize("comb", [Mn, sum_of, prod_of, bexists, bforall])
def test_combinators_emit_their_function_once(comb):
    # comb(f) compiles to W(f) + k loops with k fixed; a second copy of f
    # in the program would make it 2 W(f) + k
    small = chi_lt_schema()
    big = sigma0_char(BExists(z, x, Eq(Mul(z, z), y)), var_order=[x, y])
    extra = [_loops(compile_to_while(comb(f))[0])
             - _loops(compile_to_while(f)[0]) for f in (small, big)]
    assert _loops(compile_to_while(big)[0]) > _loops(compile_to_while(small)[0])
    assert extra[0] == extra[1]
    with pytest.raises(ValueError, match=comb.__name__):
        comb(Const(0, 0))


# ---------------------------------------------------------------------------
# Sigma_1 pipeline


def test_sigma1_to_xrec_add():
    f = Exists(z, And(Eq(z, x), Eq(y, Add(z, Lit(3)))))
    h, xs = sigma1_to_xrec(f, y)
    assert xs == [x]
    for n in range(6):
        assert xrec_eval(h, [n], fuel=10 ** 7).value == n + 3


def test_sigma1_to_xrec_rejects_non_result():
    f = Eq(y, x)
    with pytest.raises(ShapeError):
        sigma1_to_xrec(f, z)


def test_calculus_errors_are_value_errors():
    # the command line catches ValueError as a usage error (exit 3)
    for cls in (NotLevelZero, ShapeError, FunctionalityError):
        assert issubclass(cls, ValueError), cls


def test_sigma1_functionality_check():
    f = Or(Eq(y, x), Eq(y, Add(x, Lit(1))))
    with pytest.raises(FunctionalityError):
        sigma1_to_xrec(f, y)


def test_sigma1_to_program():
    f = Eq(y, Mul(x, x))
    prog, res, ps, xs = sigma1_to_program(f, y)
    for n in range(5):
        out = run(prog, {ps[0]: n}, 10 ** 7)
        assert out.terminated and out.state[res] == n * n


def _straight_line(p):
    if isinstance(p, (If, While)):
        return False
    return not isinstance(p, Seq) or (_straight_line(p.first)
                                      and _straight_line(p.second))


def test_straight_line_alpha_compiles_back_to_its_program():
    # program -> alpha -> schema -> program: the one-point rule leaves no
    # intermediate to search, so an output <= 3 needs a cap of at most 4
    rng, kept = random.Random(2), 0
    while kept < 200:
        p = random_program(rng)
        if not _straight_line(p):
            continue
        xs = program_vars(p)
        points = [dict(zip(xs, a))
                  for a in itertools.product(range(3), repeat=len(xs))]
        outs = [run(p, point, 100).state for point in points]
        index = next((i for i, v in enumerate(xs, 1)
                      if all(out[v] <= 3 for out in outs)), None)
        if index is None:
            continue
        kept += 1
        f, _, result = encode_alpha_out(p, index, xs)
        prog, res, ps, ins = sigma1_to_program(f, result)
        for point, out in zip(points, outs):
            got = run(prog, {q: point[v] for q, v in zip(ps, ins)}, 10 ** 6)
            assert got.terminated, (str(p), index, point)
            assert got.state[res] == out[xs[index - 1]], (str(p), index, point)


# ---------------------------------------------------------------------------
# Pi_1 counterexample searcher


def test_pi1_searcher_finds_least_counterexample():
    prog, res, ps, _ = pi1_counterexample_program(Lt(y, Lit(5)), y)
    out = run(prog, {p: 0 for p in ps}, 10 ** 7)
    assert out.terminated and out.state[res] == 5


def test_pi1_searcher_diverges_on_true_sentence():
    prog, res, ps, _ = pi1_counterexample_program(Lt(Lit(0), Add(y, Lit(1))), y)
    out = run(prog, {p: 0 for p in ps}, 10 ** 4)
    assert not out.terminated


def test_pi1_searcher_immediate_counterexample():
    prog, res, ps, _ = pi1_counterexample_program(Not(Eq(y, y)), y)
    out = run(prog, {p: 0 for p in ps}, 10 ** 7)
    assert out.terminated and out.state[res] == 0


PI1_BODIES = ("y < 9", "y * y < y + 3", "~(y = 3)",
              "exists z < y . z + z = y", "forall z < y . z * z < y")
# ROADMAP item 12's six-conjunct psi
PSI6 = ("(y < 3 -> y * y < 9) /\\ (y < 4 \\/ 5 < y) /\\ ~(y = 7) /\\ "
        "y + y < 30 /\\ ~(y = 9) /\\ (y < 2 \\/ 3 < y)")
# binders named as the searcher's variable and its dummy input
SHADOWING = ("y < 3 /\\ exists y < 4 . y = 3", "forall x < y . x < 5")


@pytest.mark.parametrize("body", PI1_BODIES + (PSI6,) + SHADOWING)
def test_pi1_searcher_halts_on_least_counterexample(body):
    psi = parse_formula(body)
    least = next(n for n in range(21)
                 if not eval_formula(psi, {y: n}).is_true())
    prog, res, ps, xs = pi1_counterexample_program(psi, y)
    assert len(ps) == len(xs) == 1
    out = run(prog, {ps[0]: 0}, 10 ** 6)
    assert out.terminated and out.state[res] == least


def test_pi1_searcher_is_one_mu_search():
    # one mu-search over chi_psi, not the Sigma_1 compiler's cap and
    # result searches, which took 69,155 steps here
    prog, res, ps, _ = pi1_counterexample_program(parse_formula("y < 9"), y)
    out = run(prog, {ps[0]: 0}, 5000)
    assert out.terminated and out.state[res] == 9


def test_pi1_searcher_input_validation():
    with pytest.raises(ShapeError):
        pi1_counterexample_program(Exists(z, Eq(z, y)), y)
    with pytest.raises(ShapeError):
        pi1_counterexample_program(Lt(x, y), y)  # stray free variable


# ---------------------------------------------------------------------------
# compiled programs read back


CHI_LT = chi_lt_schema()
# the stdlib, the one-schema combinators and one cases, by name
SCHEMAS = {**{name: make() for name, make in STDLIB.items()},
           **{f"{comb.__name__}(chi_lt)": comb(CHI_LT)
              for comb in (sum_of, prod_of, bforall, bexists)},
           "cases": cases([(CHI_LT, Proj(1, 2)), (CHI_LT, Proj(2, 2))])}
# each program the three compilers build here, by name, as a thunk
COMPILED = {
    **{name: lambda h=h: compile_to_while(h)[0]
       for name, h in SCHEMAS.items()},
    **{name: lambda f=f: sigma1_to_program(f, y)[0]
       for name, f, _, _ in SIGMA1_FIXTURES},
    **{body: lambda body=body: pi1_counterexample_program(
        parse_formula(body), y)[0] for body in PI1_BODIES}}


@pytest.mark.parametrize("name", list(COMPILED))
def test_compiled_program_reads_back(name):
    # the compilers nest `;` as the parser does, so the text of a compiled
    # program reads back as the same tree
    prog = COMPILED[name]()
    again = parse_program(str(prog))
    assert alpha_equal(again, prog)
    assert str(again) == str(prog)


@pytest.mark.parametrize("name", [*SCHEMAS, *PI1_BODIES])
def test_compiled_program_alpha_reads_back(name):
    # alpha of the text read back is alpha of the compiled program.  The
    # Sigma_1 programs are left out: their alpha takes 2 to 32 s each
    prog = COMPILED[name]()
    again = parse_program(str(prog))
    assert alpha_equal(encode_alpha(again)[0], encode_alpha(prog)[0])


def test_xrec_eval_rejects_negative_arguments():
    with pytest.raises(ValueError, match="naturals"):
        xrec_eval(monus_schema(), [-3, -2])


def _eq(a):
    return Eq(Lit(a), Lit(a))


def _pr_inst(trace, base, steps):
    # the shape of gamma for Pr, filled in: the trace code w, then
    # (w)_0 = f(vec), each step (w)_i -> (w)_{i+1}, and (w)_count = result
    w, n = seq_encode(trace), len(trace) - 1
    return conj([And(beta_inst(w, 0, trace[0]), base)]
                + [conj([beta_inst(w, i, trace[i]),
                         beta_inst(w, i + 1, trace[i + 1]), s])
                   for i, s in enumerate(steps)]
                + [And(beta_inst(w, n, trace[n]), _eq(trace[n]))])


def _pred_inst(k):
    # pred = pr(const(0,0); proj(1,2)): trace 0, 0, 1, ..., k-1
    return _pr_inst([0] + list(range(k)), _eq(0), [_eq(i) for i in range(k)])


def test_gamma_instance_nested_pr_by_hand():
    # monus = pr(proj(1,1); cn(pred; proj(3,3))), with pred a Pr inside
    # the step; monus(3, 2) runs the trace 3, 2, 1
    want = _pr_inst([3, 2, 1], _eq(3),
                    [conj([_eq(3), _pred_inst(3)]),
                     conj([_eq(2), _pred_inst(2)])])
    inst = gamma_instance(monus_schema(), [3, 2], 1)
    assert same(inst, want)
    assert eval_formula(inst, {}).is_true()


def test_gamma_instance_mn_by_hand():
    # f(0) = 1, f(y+1) = 0, so mn(f) = 1 after one nonzero probe
    f = Pr(Const(1, 0), Const(0, 2))
    want = conj([_pr_inst([1, 0], _eq(1), [_eq(0)]),
                 And(_pr_inst([1], _eq(1), []), Not(Eq(Lit(1), Lit(0))))])
    inst = gamma_instance(Mn(f), [], 1)
    assert same(inst, want)
    assert eval_formula(inst, {}).is_true()
