"""Arithmetical-hierarchy classification and prenexing.

Classification follows the generalized Sigma_n/Pi_n inductive definition
and reads a formula as it stands, in one walk that builds no node:
negation swaps the Sigma and Pi levels, a -> b is read as ~a \\/ b and
a <-> b as (a -> b) /\\ (b -> a).  Strictness is reported for prenex
shapes, counting quantifier-block alternations.

Prenexing first rewrites to negation normal form and renames apart: every
binder gets a name of its own, free nowhere in the formula, from one
Names supply that also names the collection bounds below.  Bounded
quantifiers stay in the matrix.  An unbounded quantifier nested under a
bounded one of the opposite kind is lifted with a fresh collection bound:
over N,
    forall x<t . exists y . p   iff   exists B . forall x<t . exists y<B . p
and dually, both by finiteness of the bounded range.
"""

from dataclasses import dataclass
from itertools import groupby

from .terms import (And, BExists, BForall, Eq, Exists, FalseC, Forall, Iff,
                    Implies, Lt, Names, Not, Or, TrueC, free_vars,
                    operands, rename_apart)

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


# each node class and its dual under negation
_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists,
         BExists: BForall, BForall: BExists, TrueC: FalseC, FalseC: TrueC}


def nnf(f, positive=True):
    """Negation normal form of f, or of ~f when positive is false: `->` and
    `<->` rewritten as classification reads them, `~` on atoms only."""
    while isinstance(f, Not):  # a `~` chain by a loop, keeping its parity
        f, positive = f.body, not positive
    if isinstance(f, (Implies, Iff)):
        inner, outer = (Or, And) if positive else (And, Or)
        a, b = f.left, f.right
        ab = inner(nnf(a, not positive), nnf(b, positive))
        if isinstance(f, Implies):
            return ab
        return outer(ab, inner(nnf(b, not positive), nnf(a, positive)))
    op = type(f) if positive else _DUAL.get(type(f))
    if isinstance(f, (And, Or)):
        return op(nnf(f.left, positive), nnf(f.right, positive))
    if isinstance(f, (Forall, Exists)):
        return op(f.var, nnf(f.body, positive))
    if isinstance(f, (BForall, BExists)):
        return op(f.var, f.bound, nnf(f.body, positive))
    if isinstance(f, (TrueC, FalseC)):
        return op()
    return f if positive else Not(f)  # an atom


def _quantified(sigma, s, p):
    """The levels of an unbounded quantifier, exists if sigma is set and
    forall if not, over a body at levels (s, p)."""
    if not sigma:  # forall is the dual of exists: Sigma and Pi swap
        return _quantified(True, p, s)[::-1]
    n = min(max(1, s), p + 1)
    return n, n + 1


def _levels(f):
    """(least n with f generalized Sigma_n, least n with f generalized Pi_n)."""
    negated = False
    while isinstance(f, Not):  # a `~` chain by a loop, keeping its parity
        f, negated = f.body, not negated
    if isinstance(f, (TrueC, FalseC, Eq, Lt)):
        s = p = 0
    elif isinstance(f, (And, Or)):  # a chain, thousands long, read flat
        s, p = map(max, zip(*map(_levels, operands(f, type(f)))))
    elif isinstance(f, (Implies, Iff)):
        s1, p1 = _levels(f.left)
        s2, p2 = _levels(f.right)
        if isinstance(f, Iff):  # each side in both polarities
            s = p = max(s1, p1, s2, p2)
        else:  # the left side negated
            s, p = max(p1, s2), max(s1, p2)
    elif isinstance(f, (BForall, BExists)):
        s, p = _levels(f.body)
    elif isinstance(f, (Exists, Forall)):
        s, p = _quantified(isinstance(f, Exists), *_levels(f.body))
    else:
        raise TypeError(f"not a formula: {f!r}")
    return (p, s) if negated else (s, p)


def classify(f):
    """Least generalized hierarchy level of a formula.

    Ties (quantifier-free formulas and other Sigma/Pi coincidences) are
    reported as Sigma with the both marker set.  The leading quantifiers
    of f's negation normal form are read through its `~`s, and the
    matrix's levels are folded back out through them.
    """
    prefix, positive = [], True  # prefix: whether each quantifier is exists
    while isinstance(f, (Not, Exists, Forall)):
        if isinstance(f, Not):
            positive = not positive
        else:
            prefix.append(isinstance(f, Exists) == positive)
        f = f.body
    s, p = _levels(f)
    s, p = (s, p) if positive else (p, s)
    level0 = s == 0  # the matrix has no unbounded quantifier
    for sigma in reversed(prefix):
        s, p = _quantified(sigma, s, p)
    n = min(s, p)
    both = s == p
    kind = SIGMA if s <= p else PI

    strict = level0 and not prefix  # level 0 is strict by definition
    if level0 and sum(1 for _ in groupby(prefix)) == n > 0:
        # as many quantifier blocks as the level: strict if led by its kind
        lead = SIGMA if prefix[0] else PI
        if kind == lead or both:
            strict, kind, both = True, lead, False
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
    g = nnf(f)
    names = Names(free_vars(g))
    prefix, matrix = _pull(rename_apart(g, names), names)
    return _rebuild(prefix, matrix)
