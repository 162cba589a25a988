"""Three-valued bounded evaluation of arithmetic formulas over N.

Quantifier-free and bounded-quantifier formulas evaluate exactly.  An
unbounded exists is searched up to the budget's q_bound and certified True
on a witness; an unbounded forall is certified False on a counterexample;
otherwise the verdict is Unknown.  Connectives follow strong Kleene.
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
        for i in range(n):
            r = _eval(f.body, _bind(v, f.var, i), budget, depth, None)
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
        for i in range(budget.q_bound + 1):
            r = _eval(f.body, _bind(v, f.var, i), budget, depth + 1, None)
            if r == hit:
                return hit
            if not r.is_exact():
                pending = r
        kind = "witness" if isinstance(f, Exists) else "counterexample"
        if pending is not None:
            return pending
        return unknown(f"no {kind} <= {budget.q_bound}")
    raise TypeError(f"not a formula: {f!r}")


def _bind(v, var, n):
    v2 = dict(v)
    v2[var] = n
    return v2


def assignments(vs, bound, base=None):
    """Every assignment of 0..bound to vs on top of base, each a fresh dict.

    Product order: the first variable is the most significant.  An empty
    vs yields base once.
    """
    for tup in itertools.product(range(bound + 1), repeat=len(vs)):
        point = dict(base or {})
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
    for point in assignments(block, budget.q_bound, v):
        r = eval_formula(body, point, budget)
        if not r.is_exact():
            raise WitnessSearchError(r.reason)
        if r.is_true():
            # a binder shadowed further in is unused; its least witness is 0
            return [(var, 0 if var in block[k + 1:] else point[var])
                    for k, var in enumerate(block)]
    return None
