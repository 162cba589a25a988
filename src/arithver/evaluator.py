"""Three-valued bounded evaluation of arithmetic formulas over N.

Quantifier-free and bounded-quantifier formulas evaluate exactly.  An
unbounded exists is searched up to the budget's q_bound and certified True
on a witness; an unbounded forall is certified False on a counterexample;
otherwise the verdict is Unknown.  Connectives follow strong Kleene.

eval_formula interprets the tree; compile_formula turns it into closures
once, with the same verdicts, for loops that evaluate one formula at
many assignments.
"""

import itertools
from dataclasses import dataclass

from .terms import (Add, And, BExists, BForall, Eq, Exists, FalseC, Forall,
                    Iff, Implies, Lit, Lt, Mul, Not, One, Or, TrueC, Var,
                    Zero, strip_exists)


@dataclass(frozen=True)
class TriState:
    value: str  # "true" | "false" | "unknown"
    reason: str = ""

    def is_true(self):
        return self.value == "true"

    def is_false(self):
        return self.value == "false"

    def is_exact(self):
        return self.value != "unknown"

    def __bool__(self):
        raise TypeError("TriState is three-valued; test .is_true()/.is_false()")


TRUE = TriState("true")
FALSE = TriState("false")


def unknown(reason):
    return TriState("unknown", reason)


@dataclass(frozen=True)
class Budget:
    q_bound: int = 64          # search ceiling per unbounded quantifier
    depth: int = 16            # nesting guard for unbounded searches
    expansion_limit: int = 10 ** 6  # per-bounded-quantifier expansion cap

    def __post_init__(self):
        if self.q_bound < 0:
            raise ValueError("q_bound must be >= 0")


class WitnessSearchError(Exception):
    """The witness-search body did not evaluate exactly."""


def eval_term(t, v):
    """Value of a term under an assignment (missing variables read as 0)."""
    if isinstance(t, Var):
        return v.get(t, 0)
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Lit):
        return t.n
    if isinstance(t, Add):
        return eval_term(t.left, v) + eval_term(t.right, v)
    if isinstance(t, Mul):
        return eval_term(t.left, v) * eval_term(t.right, v)
    raise TypeError(f"not a term: {t!r}")


def _neg(r):
    if r.is_true():
        return FALSE
    if r.is_false():
        return TRUE
    return r


def _disj(a, b):
    if a.is_true() or b.is_true():
        return TRUE
    if a.is_false() and b.is_false():
        return FALSE
    return a if not a.is_exact() else b


def eval_formula(f, v, budget=Budget()):
    # a shared Eq node is evaluated once per call: its verdict is memoised
    # by id, which stays valid because f keeps every node alive until the
    # call returns and v is not changed.  Quantifier bodies run under other
    # assignments, so they get no memo.
    return _eval(f, v, budget, 0, {})


def _eval(f, v, budget, depth, memo):
    if isinstance(f, TrueC):
        return TRUE
    if isinstance(f, FalseC):
        return FALSE
    if isinstance(f, Eq):
        r = memo.get(id(f)) if memo is not None else None
        if r is None:
            r = TRUE if eval_term(f.left, v) == eval_term(f.right, v) else FALSE
            if memo is not None:
                memo[id(f)] = r
        return r
    if isinstance(f, Lt):
        return TRUE if eval_term(f.left, v) < eval_term(f.right, v) else FALSE
    if isinstance(f, Not):
        # a `~` chain by a loop, keeping its parity: chains run long
        odd = False
        while isinstance(f, Not):
            f, odd = f.body, not odd
        r = _eval(f, v, budget, depth, memo)
        return _neg(r) if odd else r
    if isinstance(f, (And, Or)):
        # the parser nests chains to the left and conj to the right, both
        # thousands long, so the operands are walked by an explicit stack
        # over both spines, left to right.  Strong Kleene with
        # short-circuit: And is False at the first false conjunct,
        # evaluating nothing after it, otherwise the first Unknown,
        # otherwise True; Or is the dual.
        kind = type(f)
        hit, out = (FALSE, TRUE) if kind is And else (TRUE, FALSE)
        pending = None
        todo = [f]
        while todo:
            g = todo.pop()
            if isinstance(g, kind):
                todo += (g.right, g.left)
                continue
            r = _eval(g, v, budget, depth, memo)
            if r.value == hit.value:
                return hit
            if pending is None and not r.is_exact():
                pending = r
        return pending if pending is not None else out
    if isinstance(f, Implies):
        a = _eval(f.left, v, budget, depth, memo)
        if a.is_false():
            return TRUE
        return _disj(_neg(a), _eval(f.right, v, budget, depth, memo))
    if isinstance(f, Iff):
        a = _eval(f.left, v, budget, depth, memo)
        b = _eval(f.right, v, budget, depth, memo)
        if a.is_exact() and b.is_exact():
            return TRUE if a.value == b.value else FALSE
        return a if not a.is_exact() else b
    if isinstance(f, (BForall, BExists)):
        n = eval_term(f.bound, v)
        if n > budget.expansion_limit:
            return unknown(f"bounded range {n} exceeds expansion limit")
        hit = TRUE if isinstance(f, BExists) else FALSE
        out = FALSE if isinstance(f, BExists) else TRUE
        pending = None
        w = dict(v)  # one dict for all the binder's values
        for i in range(n):
            w[f.var] = i
            r = _eval(f.body, w, budget, depth, None)
            if r == hit:
                return hit
            if not r.is_exact():
                pending = r
        return pending if pending is not None else out
    if isinstance(f, (Forall, Exists)):
        if depth >= budget.depth:
            return unknown("unbounded-quantifier depth guard exceeded")
        hit = TRUE if isinstance(f, Exists) else FALSE
        pending = None
        w = dict(v)
        for i in range(budget.q_bound + 1):
            w[f.var] = i
            r = _eval(f.body, w, budget, depth + 1, None)
            if r == hit:
                return hit
            if not r.is_exact():
                pending = r
        kind = "witness" if isinstance(f, Exists) else "counterexample"
        if pending is not None:
            return pending
        return unknown(f"no {kind} <= {budget.q_bound}")
    raise TypeError(f"not a formula: {f!r}")


def compile_term(t):
    """t compiled once: a function fn with fn(v) == eval_term(t, v)."""
    if isinstance(t, Var):
        return lambda v: v.get(t, 0)
    if isinstance(t, (Add, Mul)):
        a, b = compile_term(t.left), compile_term(t.right)
        if isinstance(t, Add):
            return lambda v: a(v) + b(v)
        return lambda v: a(v) * b(v)
    n = eval_term(t, {})
    return lambda v: n


def compile_formula(f, budget=Budget()):
    """f compiled once for evaluation at many assignments: a function fn
    with fn(v) == eval_formula(f, v, budget) for every assignment v, the
    same verdicts with the same reasons.

    Each node is dispatched once, here, instead of once per assignment.
    The grid sweeps compile before their loops; a formula evaluated once
    is cheaper through eval_formula, which builds no closures.
    """
    return _compile(f, budget, 0)


def _compile(f, budget, depth):
    # depth counts the unbounded binders enclosing f.  Every exact verdict
    # a compiled formula returns is TRUE or FALSE itself, so the closures
    # test verdicts by identity.
    if isinstance(f, TrueC):
        return lambda v: TRUE
    if isinstance(f, FalseC):
        return lambda v: FALSE
    if isinstance(f, (Eq, Lt)):
        a, b = compile_term(f.left), compile_term(f.right)
        if isinstance(f, Eq):
            return lambda v: TRUE if a(v) == b(v) else FALSE
        return lambda v: TRUE if a(v) < b(v) else FALSE
    if isinstance(f, Not):
        odd = False
        while isinstance(f, Not):
            f, odd = f.body, not odd
        g = _compile(f, budget, depth)
        return (lambda v: _neg(g(v))) if odd else g
    if isinstance(f, (And, Or)):
        # both spines by an explicit stack, as in _eval
        kind = type(f)
        hit, out = (FALSE, TRUE) if kind is And else (TRUE, FALSE)
        parts, todo = [], [f]
        while todo:
            g = todo.pop()
            if isinstance(g, kind):
                todo += (g.right, g.left)
            else:
                parts.append(_compile(g, budget, depth))
        parts = tuple(parts)

        def junction(v):
            pending = None
            for p in parts:
                r = p(v)
                if r is hit:
                    return hit
                if pending is None and r is not out:
                    pending = r
            return out if pending is None else pending
        return junction
    if isinstance(f, Implies):
        a, b = _compile(f.left, budget, depth), _compile(f.right, budget, depth)

        def implies(v):
            r = a(v)
            if r is FALSE:
                return TRUE
            return _disj(_neg(r), b(v))
        return implies
    if isinstance(f, Iff):
        a, b = _compile(f.left, budget, depth), _compile(f.right, budget, depth)

        def iff(v):
            ra, rb = a(v), b(v)
            if ra.is_exact() and rb.is_exact():
                return TRUE if ra is rb else FALSE
            return ra if not ra.is_exact() else rb
        return iff
    if isinstance(f, (BForall, BExists)):
        bound = compile_term(f.bound)
        body = _compile(f.body, budget, depth)
        var, limit = f.var, budget.expansion_limit
        hit, out = (TRUE, FALSE) if isinstance(f, BExists) else (FALSE, TRUE)

        def bounded(v):
            n = bound(v)
            if n > limit:
                return unknown(f"bounded range {n} exceeds expansion limit")
            pending = None
            w = dict(v)
            for i in range(n):
                w[var] = i
                r = body(w)
                if r is hit:
                    return hit
                if r is not out:
                    pending = r
            return out if pending is None else pending
        return bounded
    if isinstance(f, (Forall, Exists)):
        if depth >= budget.depth:
            guard = unknown("unbounded-quantifier depth guard exceeded")
            return lambda v: guard
        body = _compile(f.body, budget, depth + 1)
        var, values = f.var, range(budget.q_bound + 1)
        hit, out = (TRUE, FALSE) if isinstance(f, Exists) else (FALSE, TRUE)
        kind = "witness" if isinstance(f, Exists) else "counterexample"
        none = unknown(f"no {kind} <= {budget.q_bound}")

        def unbounded(v):
            pending = None
            w = dict(v)
            for i in values:
                w[var] = i
                r = body(w)
                if r is hit:
                    return hit
                if r is not out:
                    pending = r
            return none if pending is None else pending
        return unbounded
    raise TypeError(f"not a formula: {f!r}")


def assignments(vs, bound, base=None):
    """Every assignment of 0..bound to vs on top of base, each a fresh dict.

    Product order: the first variable is the most significant.  An empty
    vs yields base once.
    """
    for tup in itertools.product(range(bound + 1), repeat=len(vs)):
        if base is None:
            yield dict(zip(vs, tup))
        else:
            point = dict(base)
            point.update(zip(vs, tup))
            yield point


def format_assignment(point):
    """An assignment as `x=1,y=2`, in its own order."""
    text = ",".join(f"{v.name}={n}" for v, n in point.items())
    return text or "the empty assignment"


def find_witnesses(f, v, budget=Budget()):
    """Least witnesses for a leading block of unbounded existentials.

    Returns a list of (Var, value) pairs (empty for an empty block and a
    true body), or None when no witness tuple <= q_bound exists.  Raises
    WitnessSearchError when the body cannot be evaluated exactly.
    """
    block, body = strip_exists(f)
    compiled = compile_formula(body, budget)
    for point in assignments(block, budget.q_bound, v):
        r = compiled(point)
        if not r.is_exact():
            raise WitnessSearchError(r.reason)
        if r.is_true():
            # a binder shadowed further in is unused; its least witness is 0
            return [(var, 0 if var in block[k + 1:] else point[var])
                    for k, var in enumerate(block)]
    return None
