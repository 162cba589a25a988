"""Three-valued bounded evaluation of arithmetic formulas over N.

Connectives follow strong Kleene.  A bounded quantifier searches its
range and an unbounded one 0..q_bound: an unbounded exists is True on a
witness and an unbounded forall False on a counterexample, else Unknown.
The searches of one evaluation, nested ones included, share PROBES
values: each books its whole range as it starts, and one the rest
cannot cover is Unknown, so every evaluation ends.

eval_formula interprets the tree; compile_formula turns it into closures
once, with the same verdicts, for loops that evaluate one formula at
many assignments.  A quantifier's search is such a loop, so eval_formula
interprets a body at the first value and compiles it once the search
goes on to a second value with a third still to come; a search that
stops sooner compiles nothing.  The two paths share each rule: `~`,
`->` and `<->` by _neg, _disj and _iff, a chain's operands by
terms.operands, and an unbounded search that finds nothing by _none.
Each has one branch for all four quantifiers, which differ only in the
values searched and in the verdict when the search finds nothing.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

from .terms import (Add, And, BExists, BForall, Eq, Exists, FalseC, Forall,
                    Iff, Implies, Lit, Lt, Mul, Not, Or, TrueC, Var,
                    binds, operands, strip_exists, variables)


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


# every exact verdict of eval_formula and compile_formula is TRUE or FALSE
# itself, so the evaluators test verdicts by identity
TRUE = TriState("true")
FALSE = TriState("false")


def unknown(reason):
    return TriState("unknown", reason)


@dataclass(frozen=True)
class Budget:
    q_bound: int = 64  # search ceiling per unbounded quantifier

    def __post_init__(self):
        if self.q_bound < 0:
            raise ValueError("q_bound must be >= 0")


PROBES = 10 ** 6  # the values one evaluation may search in all
_NESTING = 16  # unbounded searches nest at most this deep: a short stack


class WitnessSearchError(Exception):
    """The witness-search body did not evaluate exactly."""


def eval_term(t, v):
    """Value of a term under an assignment (missing variables read as 0)."""
    if isinstance(t, Var):
        return v.get(t, 0)
    if isinstance(t, Lit):
        return t.n
    if isinstance(t, Add):
        # a left-nested sum by a loop: the parser nests `+` to the left,
        # and sums run thousands long
        n = 0
        while isinstance(t, Add):
            n += eval_term(t.right, v)
            t = t.left
        return n + eval_term(t, v)
    if isinstance(t, Mul):
        # a left-nested product by a loop too; two factors stay one
        # multiplication, for certificates multiply w-sized numbers
        n = eval_term(t.right, v)
        t = t.left
        while isinstance(t, Mul):
            n *= eval_term(t.right, v)
            t = t.left
        return eval_term(t, v) * n
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


def _iff(a, b):
    if a.is_exact() and b.is_exact():
        return TRUE if a.value == b.value else FALSE
    return a if not a.is_exact() else b


def _none(f, budget):
    kind = "witness" if isinstance(f, Exists) else "counterexample"
    return unknown(f"no {kind} <= {budget.q_bound}")


def eval_formula(f, v, budget=Budget()):
    # a shared Eq node is evaluated once per call: its verdict is memoised
    # by id, which stays valid because f keeps every node alive until the
    # call returns and v is not changed.  Quantifier bodies run under other
    # assignments, so they get no memo.  All the call's searches read
    # q_bound from one small count and book their values from its left.
    count = SimpleNamespace(q_bound=budget.q_bound, left=PROBES)
    return _eval(f, v, count, 0, {})


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
        # strong Kleene with short-circuit: And is False at the first false
        # conjunct, evaluating nothing after it, otherwise the first
        # Unknown, otherwise True; Or is the dual
        hit, out = (FALSE, TRUE) if type(f) is And else (TRUE, FALSE)
        pending = None
        for g in operands(f, type(f)):
            r = _eval(g, v, budget, depth, memo)
            if r is hit:
                return hit
            if pending is None and r is not out:
                pending = r
        return out if pending is None else pending
    if isinstance(f, Implies):
        a = _eval(f.left, v, budget, depth, memo)
        if a.is_false():
            return TRUE
        return _disj(_neg(a), _eval(f.right, v, budget, depth, memo))
    if isinstance(f, Iff):
        return _iff(_eval(f.left, v, budget, depth, memo),
                    _eval(f.right, v, budget, depth, memo))
    if isinstance(f, (BForall, BExists, Forall, Exists)):
        # a bounded binder searches range(bound) and ends in the dual
        # constant; an unbounded one searches 0..q_bound and ends in
        # Unknown.  Both stop at the first hit, else keep the last Unknown.
        exists = isinstance(f, (BExists, Exists))
        hit, out = (TRUE, FALSE) if exists else (FALSE, TRUE)
        bounded = isinstance(f, (BForall, BExists))
        if bounded:
            n = eval_term(f.bound, v)
        elif depth >= _NESTING:
            return unknown("unbounded-quantifier depth guard exceeded")
        else:
            n, depth = budget.q_bound + 1, depth + 1
        if n > budget.left:
            return unknown(f"search budget spent at {f.var}")
        budget.left -= n
        # the first value is interpreted; a search that goes on to a
        # second compiles the body then, once, for the rest (ski rental:
        # a search that stops at once pays no compiling, and one that goes
        # on pays at most one interpretive pass beyond it).  A body left
        # with one value to run is interpreted: compiling walks all of it,
        # where the interpreter's short circuits may skip most of it.
        pending = body = None
        w = dict(v)  # one dict for all the binder's values
        for i in range(n):  # 0, 1, 2, ...
            w[f.var] = i
            if i == 1 and n > 2:
                body = _compile(f.body, budget, depth)
            if body is None:
                r = _eval(f.body, w, budget, depth, None)
            else:
                r = body(w)
            if r is hit:
                return hit
            if r is not out:
                pending = r
        if pending is not None:
            return pending
        return out if bounded else _none(f, budget)
    raise TypeError(f"not a formula: {f!r}")


def compile_term(t):
    """t compiled once: a function fn with fn(v) == eval_term(t, v).

    A sum of two operands is one closure, and when its left operand is a
    Var and its right a Var or a Lit, that closure reads them inline as
    v.get(x, 0) and n, with no call of their own.  A longer left-nested
    sum is walked by a loop, as eval_term walks it, into one closure that
    adds its operands' closures.  A product is one closure over its
    factors, read by terms.operands, and two factors one multiplication.
    """
    if isinstance(t, Var):
        return lambda v: v.get(t, 0)
    if isinstance(t, Mul):
        parts = [compile_term(g) for g in operands(t, Mul)]
        if len(parts) == 2:
            a, b = parts
            return lambda v: a(v) * b(v)
        return lambda v: math.prod(p(v) for p in parts)
    if isinstance(t, Add):
        x, y = t.left, t.right
        if isinstance(x, Var) and isinstance(y, Var):
            return lambda v: v.get(x, 0) + v.get(y, 0)
        if isinstance(x, Var) and isinstance(y, Lit):
            n = y.n
            return lambda v: v.get(x, 0) + n
        if not isinstance(x, Add):
            a, b = compile_term(x), compile_term(y)
            return lambda v: a(v) + b(v)
        parts = []
        while isinstance(t, Add):  # the parser nests `+` to the left
            parts.append(compile_term(t.right))
            t = t.left
        parts.append(compile_term(t))

        def total(v):
            n = 0
            for p in parts:
                n += p(v)
            return n
        return total
    n = eval_term(t, {})
    return lambda v: n


def compile_formula(f, budget=Budget()):
    """f compiled once for evaluation at many assignments: a function fn
    with fn(v) == eval_formula(f, v, budget) for every assignment v, the
    same verdicts with the same reasons.

    Each node is dispatched once, here, instead of once per assignment.
    An `=` or `<` atom reads a Var side inline, as v.get(x, 0), and calls
    a closure only for its other side; compile_term says which operands
    of a sum are read inline.  Since a Var hashes by identity, such a
    read makes no Python call at all.
    The grid sweeps compile before their loops; a formula evaluated once
    is cheaper through eval_formula, which compiles only the bodies of
    the searches that go on past their second value.  Each call of fn is
    one evaluation, with a search budget of its own.
    """
    count = SimpleNamespace(q_bound=budget.q_bound, searches=False)
    g = _compile(f, count, 0)  # which sets searches if it compiles one
    if not count.searches:  # no budget to reset, as in a program's guard
        return g

    def fn(v):
        count.left = PROBES
        return g(v)
    return fn


def _compile(f, budget, depth):
    # depth counts the unbounded binders enclosing f
    if isinstance(f, TrueC):
        return lambda v: TRUE
    if isinstance(f, FalseC):
        return lambda v: FALSE
    if isinstance(f, (Eq, Lt)):
        return _compare(f)
    if isinstance(f, Not):
        odd = False
        while isinstance(f, Not):
            f, odd = f.body, not odd
        g = _compile(f, budget, depth)
        return (lambda v: _neg(g(v))) if odd else g
    if isinstance(f, (And, Or)):
        hit, out = (FALSE, TRUE) if type(f) is And else (TRUE, FALSE)
        parts = tuple(_compile(g, budget, depth) for g in operands(f, type(f)))

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
        return lambda v: _iff(a(v), b(v))
    if isinstance(f, (BForall, BExists, Forall, Exists)):
        # as in _eval; the depth guard is settled here, once
        exists = isinstance(f, (BExists, Exists))
        hit, out = (TRUE, FALSE) if exists else (FALSE, TRUE)
        if isinstance(f, (BForall, BExists)):
            bound, searched, end = compile_term(f.bound), None, out
        elif depth >= _NESTING:
            guard = unknown("unbounded-quantifier depth guard exceeded")
            return lambda v: guard
        else:
            bound, depth = None, depth + 1
            searched, end = budget.q_bound + 1, _none(f, budget)
        body, var = _compile(f.body, budget, depth), f.var
        budget.searches = True

        def quantifier(v):
            n = searched if bound is None else bound(v)
            if n > budget.left:
                return unknown(f"search budget spent at {var}")
            budget.left -= n
            pending = None
            w = dict(v)
            for i in range(n):
                w[var] = i
                r = body(w)
                if r is hit:
                    return hit
                if r is not out:
                    pending = r
            return end if pending is None else pending
        return quantifier
    raise TypeError(f"not a formula: {f!r}")


def _compare(f):
    # an `=` or `<` atom; a Var side is read inline, a call saved per read
    x, y = f.left, f.right
    a, b = compile_term(x), compile_term(y)
    xv, yv = isinstance(x, Var), isinstance(y, Var)
    if isinstance(f, Eq):
        if xv and yv:
            return lambda v: TRUE if v.get(x, 0) == v.get(y, 0) else FALSE
        if xv:
            return lambda v: TRUE if v.get(x, 0) == b(v) else FALSE
        if yv:
            return lambda v: TRUE if a(v) == v.get(y, 0) else FALSE
        return lambda v: TRUE if a(v) == b(v) else FALSE
    if xv and yv:
        return lambda v: TRUE if v.get(x, 0) < v.get(y, 0) else FALSE
    if xv:
        return lambda v: TRUE if v.get(x, 0) < b(v) else FALSE
    if yv:
        return lambda v: TRUE if a(v) < v.get(y, 0) else FALSE
    return lambda v: TRUE if a(v) < b(v) else FALSE


def assignments(vs, bound, base=None, guard=None):
    """Every assignment of 0..bound to vs on top of base, each a fresh dict.

    Product order: the first variable is the most significant.  An empty
    vs yields base once.  The points are read off one working dict, which
    an odometer over vs changes one position at a time.

    A guard skips the points where one of its `/\\` conjuncts that binds
    nothing is False.  Each such conjunct is compiled once and tested at
    the first position of vs where all of its swept variables are set (a
    variable outside vs reads from base, or as 0); where it is False, the
    whole subtree below that position is skipped.  Its verdict is exact
    and spends no search budget, so the guard is False at every skipped
    point.  A conjunct with a binder is never tested: its verdict may
    depend on the budget that one evaluation shares.
    """
    w = dict(base or ())
    w.update(dict.fromkeys(vs, 0))
    n, top = len(vs), bound + 1
    tests = [None] * (n + 1)  # tests[i]: the conjuncts that vs[:i] decide
    if guard is not None:
        at = {x: i + 1 for i, x in enumerate(vs)}  # a repeat's last position
        for g in operands(guard, And):
            if type(g) is not TrueC and not binds(g):
                i = max((at.get(x, 0) for x in variables(g)), default=0)
                tests[i] = g if tests[i] is None else And(tests[i], g)
        # a formula that binds nothing never reads the search budget
        tests = [t if t is None else _compile(t, None, 0) for t in tests]
    digits = [0] * n  # digits[i]: the next value of vs[i]
    i = -1  # positions 0..i are set
    while True:
        test = tests[i + 1]
        if test is None or test(w) is not FALSE:
            if i + 1 == n:
                yield dict(w)
            else:
                i += 1
        while i >= 0 and digits[i] == top:  # back up past spent positions
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        w[vs[i]] = digits[i]
        digits[i] += 1


def format_assignment(point):
    """An assignment as `x=1,y=2`, in its own order."""
    text = ",".join(f"{v.name}={n}" for v, n in point.items())
    return text or "the empty assignment"


def find_witnesses(f, v, budget=Budget()):
    """Least witnesses for a leading block of unbounded existentials.

    Returns a list of (Var, value) pairs (empty for an empty block and a
    true body), or None when no witness tuple <= q_bound exists.  Raises
    WitnessSearchError when the body cannot be evaluated exactly, or when
    the block has more than PROBES tuples within q_bound and none of the
    first PROBES is a witness.  Each tuple's body gets its own search.
    """
    block, body = strip_exists(f)
    compiled = compile_formula(body, budget)
    for n, point in enumerate(assignments(block, budget.q_bound, v)):
        if n == PROBES:
            raise WitnessSearchError(f"search budget spent at {block[0]}")
        r = compiled(point)
        if not r.is_exact():
            raise WitnessSearchError(r.reason)
        if r.is_true():
            # a binder shadowed further in is unused; its least witness is 0
            return [(var, 0 if var in block[k + 1:] else point[var])
                    for k, var in enumerate(block)]
    return None
