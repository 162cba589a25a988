"""The X-recursive function calculus: schemas, evaluation, defining
formulas, the standard library of arithmetic combinators, characteristic
functions of level-0 formulas, and compilation to while-programs.
"""

import functools
from dataclasses import dataclass
from types import SimpleNamespace

from . import coding
from .coding import beta_graph
from .terms import (Add as AddT, And, BExists, BForall, Eq, Exists, FalseC,
                    Iff, Implies, Lit, Lt, Mul as MulT, Names, Not, Or, TrueC,
                    Var, conj, free_vars, operands, strip_exists, substitute,
                    term_vars)
from .evaluator import assignments, compile_formula, eval_term
from .hierarchy import classify, prenexify
from .whilelang import Assign, While, seq


class XRecSchema:
    __slots__ = ()


@dataclass(frozen=True)
class Const(XRecSchema):
    value: int
    arity: int

    def __post_init__(self):
        if self.value < 0 or self.arity < 0:
            raise ValueError("Const needs a natural value and arity")


@dataclass(frozen=True)
class Proj(XRecSchema):
    index: int  # 1-based
    arity: int

    def __post_init__(self):
        if not 1 <= self.index <= self.arity:
            raise ValueError(f"projection index {self.index} out of 1..{self.arity}")


def _two_arguments(h):
    if h.arity != 2:
        raise ValueError(f"{type(h).__name__} takes 2 arguments, not {h.arity}")


@dataclass(frozen=True)
class AddF(XRecSchema):
    arity: int = 2
    __post_init__ = _two_arguments


@dataclass(frozen=True)
class MulF(XRecSchema):
    arity: int = 2
    __post_init__ = _two_arguments


@dataclass(frozen=True)
class Cn(XRecSchema):
    f: XRecSchema
    gs: tuple

    def __post_init__(self):
        gs = tuple(self.gs)
        object.__setattr__(self, "gs", gs)
        if self.f.arity != len(gs):
            raise ValueError(f"Cn: f takes {self.f.arity} args, got {len(gs)} inner functions")
        if gs and any(g.arity != gs[0].arity for g in gs):
            raise ValueError("Cn: inner functions must share one arity")

    @property
    def arity(self):
        return self.gs[0].arity if self.gs else 0


@dataclass(frozen=True)
class Pr(XRecSchema):
    f: XRecSchema
    g: XRecSchema

    def __post_init__(self):
        if self.g.arity != self.f.arity + 2:
            raise ValueError("Pr: g must take two more arguments than f")

    @property
    def arity(self):
        return self.f.arity + 1


@dataclass(frozen=True)
class Mn(XRecSchema):
    f: XRecSchema

    def __post_init__(self):
        if self.f.arity < 1:
            raise ValueError("Mn: f needs the search argument")

    @property
    def arity(self):
        return self.f.arity - 1


# the one table of the schema constructors, which the parser and the
# printer read: each one's keyword and the fields its concrete syntax
# lists, in order: const(m,n), proj(i,n), add, mul, cn(f; g1, ..., gm),
# pr(f; g) and mn(f)
SCHEMAS = {Const: ("const", ("value", "arity")),
           Proj: ("proj", ("index", "arity")), AddF: ("add", ()),
           MulF: ("mul", ()), Cn: ("cn", ("f", "gs")), Pr: ("pr", ("f", "g")),
           Mn: ("mn", ("f",))}


@dataclass(frozen=True)
class EvalResult:
    value: int = None
    diverged: bool = False
    fuel_spent: int = 0


class _OutOfFuel(Exception):
    pass


def xrec_eval(h, args, fuel=10 ** 6):
    """Call-by-value evaluation; Mn burns fuel per probe and may diverge."""
    if len(args) != h.arity:
        raise ValueError(f"arity mismatch: {h.arity} expected, got {len(args)}")
    if any(a < 0 for a in args):
        raise ValueError(f"arguments must be naturals, got {list(args)}")
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    tank = SimpleNamespace(left=fuel)
    try:
        v = _eval(h, list(args), tank)
    except _OutOfFuel:
        return EvalResult(diverged=True, fuel_spent=fuel)
    return EvalResult(value=v, fuel_spent=fuel - tank.left)


def _eval(h, args, tank):
    tank.left -= 1
    if tank.left < 0:
        raise _OutOfFuel
    if isinstance(h, Const):
        return h.value
    if isinstance(h, Proj):
        return args[h.index - 1]
    if isinstance(h, AddF):
        return args[0] + args[1]
    if isinstance(h, MulF):
        return args[0] * args[1]
    if isinstance(h, Cn):
        mids = [_eval(g, args, tank) for g in h.gs]
        return _eval(h.f, mids, tank)
    if isinstance(h, Pr):
        xs, y = args[:-1], args[-1]
        acc = _eval(h.f, xs, tank)
        for i in range(y):
            acc = _eval(h.g, xs + [i, acc], tank)
        return acc
    if isinstance(h, Mn):
        y = 0
        while True:
            if _eval(h.f, args + [y], tank) == 0:
                return y
            y += 1
    raise TypeError(f"not a schema: {h!r}")


# ---------------------------------------------------------------------------
# Defining formulas


def gamma(h):
    """The defining formula of h: a generalized Sigma_1 formula with
    gamma_h(xs, y) true iff h(xs) = y.  Returns (formula, xs, y)."""
    names = Names()
    xs = names.fresh_vec([f"x{i}" for i in range(1, h.arity + 1)])
    y = names.fresh("y")
    return _gamma(h, names, xs, y), xs, y


def _basic(h, args):
    """The term a basic schema computes from argument terms: a numeral, an
    argument, a sum or a product."""
    if isinstance(h, Const):
        return Lit(h.value)
    if isinstance(h, Proj):
        return args[h.index - 1]
    if isinstance(h, AddF):
        return AddT(*args)
    if isinstance(h, MulF):
        return MulT(*args)
    raise TypeError(f"not a schema: {h!r}")


def _gamma(h, names, xs, y):
    if isinstance(h, Cn):
        zs = names.fresh_vec([f"z{i}" for i in range(1, len(h.gs) + 1)])
        parts = [_gamma(g, names, xs, z) for g, z in zip(h.gs, zs)]
        parts.append(_gamma(h.f, names, zs, y))
        out = conj(parts)
        for z in reversed(zs):
            out = Exists(z, out)
        return out
    if isinstance(h, Pr):
        # xs = vec + [count]; exists w: (w)_0 = f(vec), steps, (w)_count = y
        vec, count = xs[:-1], xs[-1]
        w = names.fresh("w")
        i = names.fresh("i")
        u, v, t = names.fresh("u"), names.fresh("v"), names.fresh("t")
        base = BExists(u, AddT(w, Lit(1)),
                       And(beta_graph(w, Lit(0), u, names),
                           _gamma(h.f, names, vec, u)))
        step = BExists(u, AddT(w, Lit(1)),
                       BExists(v, AddT(w, Lit(1)),
                               conj([beta_graph(w, i, u, names),
                                     beta_graph(w, AddT(i, Lit(1)), v, names),
                                     _gamma(h.g, names, vec + [i, u], v)])))
        last = BExists(t, AddT(w, Lit(1)),
                       And(beta_graph(w, count, t, names), Eq(t, y)))
        return Exists(w, conj([base, BForall(i, count, step), last]))
    if isinstance(h, Mn):
        i = names.fresh("i")
        z = names.fresh("z")
        zero = _gamma(h.f, names, xs + [y], Lit(0))
        prior = BForall(i, y,
                        Exists(z, And(_gamma(h.f, names, xs + [i], z),
                                      Not(Eq(z, Lit(0))))))
        return And(zero, prior)
    return Eq(y, _basic(h, xs))


def gamma_instance(h, args, value):
    """A witnessed closed instance of gamma_h(args, value).

    Mirrors evaluation: every existential, including the beta-trace codes
    of primitive recursion, is filled in with the concrete number it must
    take, so the instance is quantifier-free and evaluates exactly.
    Raises ValueError when h(args) != value or h diverges at desk fuel.
    """
    r = xrec_eval(h, list(args), fuel=10 ** 7)
    if r.diverged or r.value != value:
        raise ValueError("gamma_instance needs the true value of h(args)")
    return _gamma_inst(h, [Lit(a) for a in args])[0]


def _gamma_inst(h, args):
    # (instance, value) over numeral arguments, built bottom-up;
    # gamma_instance has already seen h(args) halt, so every subcomputation
    # replayed here halts too
    if isinstance(h, Cn):
        inner = [_gamma_inst(g, args) for g in h.gs]
        outer, v = _gamma_inst(h.f, [Lit(m) for _, m in inner])
        return conj([i for i, _ in inner] + [outer]), v
    if isinstance(h, Pr):
        vec, count = args[:-1], args[-1].n
        base, acc = _gamma_inst(h.f, vec)
        trace, steps = [acc], []
        for i in range(count):
            step, acc = _gamma_inst(h.g, vec + [Lit(i), Lit(acc)])
            trace.append(acc)
            steps.append(step)
        betas = coding.seq_inst(trace)
        parts = [And(betas[0], base)]
        for i, step in enumerate(steps):
            parts.append(conj([betas[i], betas[i + 1], step]))
        parts.append(And(betas[count], Eq(Lit(acc), Lit(acc))))
        return conj(parts), acc
    if isinstance(h, Mn):
        prior, y = [], 0
        while True:
            inst, z = _gamma_inst(h.f, args + [Lit(y)])
            if z == 0:
                return conj([inst] + prior), y
            prior.append(And(inst, Not(Eq(Lit(z), Lit(0)))))
            y += 1
    t = _basic(h, args)
    v = eval_term(t, {})
    return Eq(Lit(v), t), v


# ---------------------------------------------------------------------------
# Standard library


def _cn(f, *gs):
    return Cn(f, tuple(gs))


def _projs(n):
    return [Proj(i, n) for i in range(1, n + 1)]


def pred_schema():
    # p(0) = 0; p(x+1) = x
    return Pr(Const(0, 0), Proj(1, 2))


def monus_schema():
    # x - 0 = x; x - (y+1) = pred(x - y)
    return Pr(Proj(1, 1), _cn(pred_schema(), Proj(3, 3)))


def sgbar_schema():
    # 1 - x
    return _cn(monus_schema(), Const(1, 1), Proj(1, 1))


def sg_schema():
    # 1 - (1 - x)
    return _cn(monus_schema(), Const(1, 1), sgbar_schema())


def chi_lt_schema():
    # sg(y - x)
    return _cn(sg_schema(), _cn(monus_schema(), Proj(2, 2), Proj(1, 2)))


def chi_eq_schema():
    # 1 - (sg(x-y) + sg(y-x))
    x, y = Proj(1, 2), Proj(2, 2)
    return _cn(monus_schema(), Const(1, 2),
               _cn(AddF(), _cn(sg_schema(), _cn(monus_schema(), x, y)),
                   _cn(sg_schema(), _cn(monus_schema(), y, x))))


def cases(branches):
    """Definition by cases: sum of g_i * chi_i over (chi_i, g_i) pairs.

    The guards must be mutually exclusive and collectively exhaustive on
    the inputs actually used; that is a semantic obligation checked by the
    callers' tests, not here.
    """
    if not branches:
        raise ValueError("cases needs at least one branch")
    n = branches[0][1].arity
    for c, g in branches:
        if c.arity != n or g.arity != n:
            raise ValueError("cases: all guards and branches share one arity")
    total = None
    for c, g in branches:
        term = _cn(MulF(), g, c)
        total = term if total is None else _cn(AddF(), total, term)
    return total


def max_schema():
    x, y = Proj(1, 2), Proj(2, 2)
    ge = _cn(sgbar_schema(), _cn(monus_schema(), y, x))   # 1 iff x >= y
    lt = chi_lt_schema()                                  # 1 iff x < y
    return cases([(ge, x), (lt, y)])


def min_schema():
    x, y = Proj(1, 2), Proj(2, 2)
    ge = _cn(sgbar_schema(), _cn(monus_schema(), y, x))
    lt = chi_lt_schema()
    return cases([(ge, y), (lt, x)])


def sum_of(f):
    """g(xs, y) = sum of f(xs, i) for i = 0..y."""
    return _upto(_fold(AddF(), 0, f, "sum_of"))


def prod_of(f):
    """h(xs, y) = product of f(xs, i) for i = 0..y."""
    return _upto(_fold(MulF(), 1, f, "prod_of"))


def _upto(g):
    # g(xs, y + 1): an exclusive fold over the inclusive range i <= y
    n = g.arity
    return _cn(g, *_projs(n)[:n - 1], _cn(AddF(), Proj(n, n), Const(1, n)))


def _fold(op, unit, f, name):
    # op(...op(unit, f(xs, 0)) ..., f(xs, y - 1)) by recursion on y
    n = f.arity
    if n < 1:
        raise ValueError(f"{name} needs f of arity >= 1")
    return Pr(Const(unit, n - 1),
              _cn(op, Proj(n + 1, n + 1), _cn(f, *_projs(n + 1)[:n])))


def bforall(c):
    """chi of (forall v < y . R(xs, v)) from chi_R = c(xs, v); y is last.

    sgbar(sum_{i<y} sgbar(c(xs, i))) -- the empty range is true.
    """
    return _cn(sgbar_schema(), _fold(AddF(), 0, _cn(sgbar_schema(), c), "bforall"))


def bexists(c):
    """chi of (exists v < y . R(xs, v)): sg(sum_{i<y} c(xs, i))."""
    return _cn(sg_schema(), _fold(AddF(), 0, c, "bexists"))


STDLIB = {
    "pred": pred_schema,
    "monus": monus_schema,
    "sg": sg_schema,
    "sgbar": sgbar_schema,
    "chi_eq": chi_eq_schema,
    "chi_lt": chi_lt_schema,
    "max": max_schema,
    "min": min_schema,
}

STDLIB_COMBINATORS = {
    "sum_of": sum_of,
    "prod_of": prod_of,
    "bforall": bforall,
    "bexists": bexists,
    "cases": cases,
}


def stdlib(name, *args):
    """Schema from the documented catalog; combinators take arguments."""
    if name in STDLIB:
        if args:
            raise ValueError(f"{name} takes no arguments")
        return STDLIB[name]()
    if name in STDLIB_COMBINATORS:
        return STDLIB_COMBINATORS[name](*args)
    raise ValueError(f"unknown stdlib schema: {name}")


# ---------------------------------------------------------------------------
# Characteristic functions of level-0 formulas


class NotLevelZero(ValueError):
    pass


def _term_schema(t, order):
    n = len(order)
    if isinstance(t, Var):
        return Proj(n - order[::-1].index(t), n)
    if isinstance(t, (AddT, MulT)):
        op = AddF() if isinstance(t, AddT) else MulF()
        return _cn(op, _term_schema(t.left, order), _term_schema(t.right, order))
    return Const(eval_term(t, {}), n)


def sigma0_char(f, var_order=None):
    """A schema computing the 0/1 characteristic function of a level-0
    formula over the given variable order (default: sorted by name)."""
    lvl = classify(f)
    if lvl.n != 0:
        raise NotLevelZero(f"formula is {lvl}, not level 0")
    if var_order is None:
        var_order = sorted(free_vars(f), key=lambda v: v.name)
    return _char(f, list(var_order))


def _char(f, order):
    """chi_f over order: the connectives act on 0/1 values, a `/\\` chain
    as the product of its operands' values, a `\\/` chain as sg of their
    sum, `a -> b` as `~a \\/ b`, `a <-> b` as chi_eq(a, b) and `~a` as
    1 - a.  A bounded binder appends its variable to order, and a
    variable reads its last position there, so an inner binder shadows."""
    n = len(order)
    if isinstance(f, TrueC):
        return Const(1, n)
    if isinstance(f, FalseC):
        return Const(0, n)
    if isinstance(f, (Eq, Iff)):
        side = _char if isinstance(f, Iff) else _term_schema
        return _cn(chi_eq_schema(), side(f.left, order), side(f.right, order))
    if isinstance(f, Lt):
        return _cn(chi_lt_schema(), _term_schema(f.left, order),
                   _term_schema(f.right, order))
    if isinstance(f, Not):
        return _cn(monus_schema(), Const(1, n), _char(f.body, order))
    if isinstance(f, Implies):
        f = Or(Not(f.left), f.right)
    if isinstance(f, (And, Or)):
        op = MulF() if isinstance(f, And) else AddF()
        parts = [_char(p, order) for p in operands(f, type(f))]
        out = functools.reduce(lambda a, b: _cn(op, a, b), parts)
        return out if op == MulF() else _cn(sg_schema(), out)
    if isinstance(f, (BForall, BExists)):
        c = _char(f.body, order + [f.var])
        closure = bforall(c) if isinstance(f, BForall) else bexists(c)
        return _cn(closure, *_projs(n), _term_schema(f.bound, order))
    raise TypeError(f"unexpected node in level-0 formula: {f!r}")


# ---------------------------------------------------------------------------
# Sigma_1 formulas to schemas and programs


class ShapeError(ValueError):
    pass


class FunctionalityError(ValueError):
    pass


def _check_functionality(body, block, xs, result):
    """Sample check that the relation is single-valued in the result: at
    each input up to 4, no two results up to 12 with witnesses up to 12."""
    holds_at = compile_formula(body)
    for env in assignments(xs, 4):
        results = set()
        for y in range(13):
            for point in assignments(block, 12, {**env, result: y}):
                if holds_at(point).is_true():
                    results.add(y)
                    break
        if len(results) > 1:
            raise FunctionalityError(
                f"two results {sorted(results)} at input {tuple(env.values())}")


def _one_point(block, body):
    """exists z . (z = t /\\ phi) == phi[t/z] for z of the block not in t,
    applied to the matrix's conjuncts; then the binders the matrix no
    longer mentions are dropped.  Returns (block, body)."""
    block, parts, k = list(block), operands(body, And), 0
    while k < len(parts):
        p = parts[k]
        k += 1
        sides = ((p.left, p.right), (p.right, p.left)) if isinstance(p, Eq) else ()
        for z, t in sides:
            if z in block and z not in term_vars(t):
                block.remove(z)
                parts = [substitute(q, z, t) for q in parts[:k - 1] + parts[k:]]
                k = 0
                break
    body = conj(parts)
    fv = free_vars(body)
    return [z for z in block if z in fv], body


def sigma1_to_xrec(f, result_var):
    """An X-recursive schema computing the function a Sigma_1 formula
    defines (result_var as output, remaining free variables as inputs,
    sorted by name).

    Follows the least-witness construction: g(xs) finds the least cap w
    below which the result and the existential block live; h(xs, w) finds
    the least result under that cap.  Returns (schema, input_vars).
    """
    g0 = prenexify(f)
    block, body = strip_exists(g0)
    if classify(body).n != 0:
        raise ShapeError("matrix is not level 0 after prenexing")
    block, body = _one_point(block, body)
    if result_var not in free_vars(f):
        raise ShapeError(f"result variable {result_var} is not free in the formula")
    xs = sorted(free_vars(f) - {result_var}, key=lambda v: v.name)
    _check_functionality(body, block, xs, result_var)

    names = Names(free_vars(g0) | set(block))
    cap = names.fresh("w")
    # g: least cap with exists u<cap exists zs<cap body(u); h: least u
    # with u < cap and exists zs<cap body(u)
    u = names.fresh("u")
    inner = substitute(body, result_var, u)
    for z in reversed(block):
        inner = BExists(z, cap, inner)
    g_schema = Mn(sigma0_char(Not(BExists(u, cap, inner)), var_order=xs + [cap]))
    h_schema = Mn(sigma0_char(Not(And(Lt(u, cap), inner)), var_order=xs + [cap, u]))
    return _cn(h_schema, *_projs(len(xs)), g_schema), xs


def compile_to_while(h):
    """A while-program whose first program variable computes h.

    Returns (program, result_var, input_vars).  The result register is
    written first so that it is the first variable in pre-order; inputs
    are touched immediately after to pin their order.
    """
    names = Names()
    res = names.fresh("res")
    ps = names.fresh_vec([f"p{i}" for i in range(1, h.arity + 1)])
    prog = seq([Assign(res, Lit(0)), *(Assign(p, p) for p in ps),
                *_emit(h, ps, res, names)])
    return prog, res, ps


def _emit(h, args, target, names):
    """The statements that compute h(args) into target: a list, so that
    each `;` chain is built once, by seq, and never spliced again."""
    if isinstance(h, Cn):
        ts = names.fresh_vec(["t" for _ in h.gs])
        out = [s for g, t in zip(h.gs, ts) for s in _emit(g, args, t, names)]
        return out + _emit(h.f, ts, target, names)
    if isinstance(h, Pr):
        vec, count = args[:-1], args[-1]
        acc = names.fresh("acc")
        i = names.fresh("i")
        tmp = names.fresh("s")
        out = [*_emit(h.f, vec, acc, names), Assign(i, Lit(0))]
        body = seq([*_emit(h.g, vec + [i, acc], tmp, names),
                    Assign(acc, tmp),
                    Assign(i, AddT(i, Lit(1)))])
        return out + [While(Lt(i, count), body), Assign(target, acc)]
    if isinstance(h, Mn):
        # n := 0; m := 1; while 0 < m do y := n; m := f(args, n); n := n + 1 od
        n, probe, y = names.fresh("n"), names.fresh("m"), names.fresh("y")
        body = seq([Assign(y, n), *_emit(h.f, args + [n], probe, names),
                    Assign(n, AddT(n, Lit(1)))])
        return [Assign(n, Lit(0)), Assign(probe, Lit(1)),
                While(Lt(Lit(0), probe), body), Assign(target, y)]
    return [Assign(target, _basic(h, args))]


def sigma1_to_program(f, result_var):
    """Compile a functional Sigma_1 formula to a while-program.

    Returns (program, result_var_of_program, input_vars_of_program,
    formula_input_vars).
    """
    schema, xs = sigma1_to_xrec(f, result_var)
    prog, res, ps = compile_to_while(schema)
    return prog, res, ps, xs


def pi1_counterexample_program(psi, y):
    """The least-counterexample searcher for a Pi_1 sentence forall y psi:
    mu y . chi_psi(y) = 0, compiled.  It halts exactly on the least y
    falsifying psi, and runs forever when forall y psi holds.  Its one
    input, a dummy x named apart from psi's free variables, keeps the
    shape of sigma1_to_program's result.
    """
    if classify(psi).n != 0:
        raise ShapeError("psi must be level 0")
    fv = free_vars(psi)
    if fv - {y}:
        raise ShapeError(f"psi may mention only {y}, found {sorted(v.name for v in fv)}")
    x = Names(fv | {y}).fresh("x")
    prog, res, ps = compile_to_while(Mn(sigma0_char(psi, var_order=[x, y])))
    return prog, res, ps, [x]
