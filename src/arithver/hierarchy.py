"""Arithmetical-hierarchy classification and prenexing.

Classification follows the generalized Sigma_n/Pi_n inductive definition;
conditionals and biconditionals are desugared and negation is pushed to
atoms first.  Strictness is reported for prenex shapes, counting
quantifier-block alternations.

Prenexing first renames apart: every binder gets a name of its own, free
nowhere in the formula, from one Names supply that also names the
collection bounds below.  Bounded quantifiers stay in the matrix.  An
unbounded quantifier nested under a bounded one of the opposite kind is
lifted with a fresh collection bound: over N,
    forall x<t . exists y . p   iff   exists B . forall x<t . exists y<B . p
and dually, both by finiteness of the bounded range.
"""

from dataclasses import dataclass

from .terms import (And, BExists, BForall, Eq, Exists, FalseC, Forall, Iff,
                    Implies, Lt, Names, Not, Or, TrueC, free_vars,
                    rename_apart)

SIGMA = "sigma"
PI = "pi"


@dataclass(frozen=True)
class HierarchyLevel:
    kind: str      # SIGMA or PI
    n: int
    strict: bool
    both: bool = False  # also lies in the dual class at the same level

    def __str__(self):
        name = {"sigma": "Sigma", "pi": "Pi"}[self.kind]
        tag = "strict" if self.strict else "generalized"
        extra = ", also dual" if self.both else ""
        return f"{name}_{self.n} ({tag}{extra})"


def desugar(f):
    """Eliminate Implies and Iff (a->b as ~a\\/b; a<->b as two implications)."""
    if isinstance(f, Implies):
        return Or(Not(desugar(f.left)), desugar(f.right))
    if isinstance(f, Iff):
        a, b = desugar(f.left), desugar(f.right)
        return And(Or(Not(a), b), Or(Not(b), a))
    if isinstance(f, Not):
        # a `~` chain by a loop: chains run thousands long
        n = 0
        while isinstance(f, Not):
            f, n = f.body, n + 1
        f = desugar(f)
        for _ in range(n):
            f = Not(f)
        return f
    if isinstance(f, (And, Or)):
        return type(f)(desugar(f.left), desugar(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, desugar(f.body))
    if isinstance(f, (BForall, BExists)):
        return type(f)(f.var, f.bound, desugar(f.body))
    return f


def nnf(f, positive=True):
    """Negation normal form of a desugared formula."""
    if isinstance(f, Not):
        # a `~` chain by a loop, keeping its parity
        while isinstance(f, Not):
            f, positive = f.body, not positive
        return nnf(f, positive)
    if isinstance(f, (And, Or)):
        op = type(f) if positive else (Or if isinstance(f, And) else And)
        return op(nnf(f.left, positive), nnf(f.right, positive))
    if isinstance(f, (Forall, Exists)):
        op = type(f) if positive else (Exists if isinstance(f, Forall) else Forall)
        return op(f.var, nnf(f.body, positive))
    if isinstance(f, (BForall, BExists)):
        op = type(f) if positive else (BExists if isinstance(f, BForall) else BForall)
        return op(f.var, f.bound, nnf(f.body, positive))
    if isinstance(f, TrueC):
        return f if positive else FalseC()
    if isinstance(f, FalseC):
        return f if positive else TrueC()
    # atom
    return f if positive else Not(f)


def _levels(f):
    """(least n with f generalized Sigma_n, least n with f generalized Pi_n)."""
    if isinstance(f, (TrueC, FalseC, Eq, Lt, Not)):
        return 0, 0
    if isinstance(f, (And, Or)):
        s1, p1 = _levels(f.left)
        s2, p2 = _levels(f.right)
        return max(s1, s2), max(p1, p2)
    if isinstance(f, (BForall, BExists)):
        return _levels(f.body)
    if isinstance(f, Exists):
        s, p = _levels(f.body)
        sig = min(max(1, s), p + 1)
        return sig, sig + 1
    if isinstance(f, Forall):
        s, p = _levels(f.body)
        pi = min(max(1, p), s + 1)
        return pi + 1, pi
    raise TypeError(f"not a formula: {f!r}")


def _is_level0(f):
    s, p = _levels(f)
    return s == 0


def _prefix_alternations(f):
    """(leading kind, alternation count, matrix) of a prenex-shaped formula."""
    lead = None
    kind = None
    n = 0
    while isinstance(f, (Forall, Exists)):
        k = SIGMA if isinstance(f, Exists) else PI
        if k != kind:
            n += 1
            kind = k
            if lead is None:
                lead = k
        f = f.body
    return lead, n, f


def classify(f):
    """Least generalized hierarchy level of a formula.

    Ties (quantifier-free formulas and other Sigma/Pi coincidences) are
    reported as Sigma with the both marker set.
    """
    g = nnf(desugar(f))
    s, p = _levels(g)
    n = min(s, p)
    both = s == p
    kind = SIGMA if s <= p else PI

    strict = False
    lead, alts, matrix = _prefix_alternations(g)
    if _is_level0(matrix):
        if alts == 0:
            strict = True  # level-0 formulas are strict by definition
        elif alts == n and ((kind == SIGMA and lead == SIGMA)
                            or (kind == PI and lead == PI)
                            or both):
            strict = True
            if both:
                kind = lead
                both = False
    return HierarchyLevel(kind, n, strict, both)


def _merge_prefixes(pa, pb):
    """Interleave two quantifier prefixes minimizing alternations.

    Prefixes are lists of (kind, var).  Each step takes the leading run of
    one kind from both prefixes.  After a step neither prefix leads with
    its kind, so the kinds alternate and only the first is a choice: both
    starts are simulated, and the one with fewer steps wins, Pi on a tie.
    """
    def merge(kind):
        out, i, j, steps = [], 0, 0, 0
        while i < len(pa) or j < len(pb):
            while i < len(pa) and pa[i][0] == kind:
                out.append(pa[i])
                i += 1
            while j < len(pb) and pb[j][0] == kind:
                out.append(pb[j])
                j += 1
            kind = SIGMA if kind == PI else PI
            steps += 1
        return steps, out

    (pi_steps, pi_out), (sigma_steps, sigma_out) = merge(PI), merge(SIGMA)
    return sigma_out if sigma_steps < pi_steps else pi_out


def _pull(f, names):
    """Return (prefix, matrix): prefix of unbounded quantifiers over a
    matrix whose unbounded quantifiers are gone (bounded ones remain)."""
    if isinstance(f, (TrueC, FalseC, Eq, Lt, Not)):
        return [], f
    if isinstance(f, (And, Or)):
        pa, ma = _pull(f.left, names)
        pb, mb = _pull(f.right, names)
        return _merge_prefixes(pa, pb), type(f)(ma, mb)
    if isinstance(f, Exists):
        p, m = _pull(f.body, names)
        return [(SIGMA, f.var)] + p, m
    if isinstance(f, Forall):
        p, m = _pull(f.body, names)
        return [(PI, f.var)] + p, m
    if isinstance(f, (BForall, BExists)):
        p, m = _pull(f.body, names)
        if not p:
            return [], type(f)(f.var, f.bound, m)
        outer = SIGMA if isinstance(f, BExists) else PI
        kind, var = p[0]
        rest = _rebuild(p[1:], m)
        if kind == outer:
            # independent of the bounded variable: commute outward
            p2, m2 = _pull(type(f)(f.var, f.bound, rest), names)
            return [(kind, var)] + p2, m2
        # opposite kinds: lift with a fresh collection bound
        cap = names.fresh("w")
        binder = BExists if kind == SIGMA else BForall
        inner = type(f)(f.var, f.bound, binder(var, cap, rest))
        p2, m2 = _pull(inner, names)
        return [(kind, cap)] + p2, m2
    raise TypeError(f"not a formula: {f!r}")


def _rebuild(prefix, matrix):
    out = matrix
    for kind, var in reversed(prefix):
        out = Exists(var, out) if kind == SIGMA else Forall(var, out)
    return out


def prenexify(f):
    """A strict prenex formula at the same generalized level as f.

    Logically equivalent over N; bounded quantifiers stay in the matrix.
    """
    g = nnf(desugar(f))
    names = Names(free_vars(g))
    prefix, matrix = _pull(rename_apart(g, names), names)
    return _rebuild(prefix, matrix)
