"""Arithmetical-hierarchy classification and prenexing.

Classification follows the generalized Sigma_n/Pi_n inductive definition
and reads a formula as it stands, in one walk that builds no node:
negation swaps the Sigma and Pi levels, a -> b is read as ~a \\/ b and
a <-> b as (a -> b) /\\ (b -> a).  Strictness is reported for prenex
shapes, counting quantifier-block alternations.

Prenexing takes two walks and keeps classify's level.  nnf rewrites to
negation normal form and renames apart as it goes: every binder gets a
name of its own, free nowhere in the formula, from one Names supply that
also names the collection bounds below.  _pull then lifts the unbounded
quantifiers out; bounded quantifiers stay in the matrix.  Each `/\\` or
`\\/` tree is merged once: its levels, read as classify reads them, pick
the kind that leads it, and its operands' prefixes are interleaved in one
greedy pass from that kind.  An unbounded quantifier under a bounded
one of the opposite kind is capped where _pull meets it, by collection
over N:
    forall x<t . exists y . p   iff   exists B . forall x<t . exists y<B . p
and dually, both by finiteness of the bounded range.  The fresh cap B
joins the prefix, y < B stays in place, and each quantifier below it is
capped too; so a quantifier is capped at most once, and the prenex form
has at most twice the binders of nnf's.
"""

from dataclasses import dataclass
from itertools import groupby

from .terms import (And, BExists, BForall, Eq, Exists, FalseC, Forall, Iff,
                    Implies, Lt, Names, Not, Or, TrueC, free_vars,
                    map_chains, operands, subst_term)

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


# each node class and its dual under negation, and each as it is
_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists,
         BExists: BForall, BForall: BExists, TrueC: FalseC, FalseC: TrueC}
_SAME = {kind: kind for kind in _DUAL}
_BOUNDED = {Exists: BExists, Forall: BForall}


def nnf(f, names, positive=True, env=None):
    """Negation normal form of f, or of ~f when positive is false: `->` and
    `<->` rewritten as classification reads them, `~` on atoms only.  Each
    binder is renamed apart from names.used, which records it, and env
    (Var -> Var) holds the renamings in scope."""
    while isinstance(f, Not):  # a `~` chain by a loop, keeping its parity
        f, positive = f.body, not positive
    env, kinds = env or {}, _SAME if positive else _DUAL
    if isinstance(f, Iff):  # read as (a -> b) /\ (b -> a)
        f = And(Implies(f.left, f.right), Implies(f.right, f.left))
    if isinstance(f, Implies):  # read as ~a \/ b
        return kinds[Or](nnf(f.left, names, not positive, env),
                         nnf(f.right, names, positive, env))
    if isinstance(f, (And, Or)):
        return map_chains(f, kinds, nnf, names, positive, env)
    op = kinds.get(type(f))
    if isinstance(f, (TrueC, FalseC)):
        return op()
    if not isinstance(f, (Forall, Exists, BForall, BExists)):  # an atom
        f = type(f)(subst_term(f.left, env), subst_term(f.right, env))
        return f if positive else Not(f)
    # a quantifier, its bound outside its scope; a taken name is renamed
    head = (subst_term(f.bound, env),) if op in (BForall, BExists) else ()
    if f.var.name in names.used:
        env = {**env, f.var: names.fresh(f.var.name)}
    names.used.add(f.var.name)
    return op(env.get(f.var, f.var), *head, nnf(f.body, names, positive, env))


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


def _merge(prefixes, kind):
    """The prefixes merged in one greedy pass: the rounds' kinds alternate
    from kind, and each takes every prefix's next run that has its kind."""
    rounds = []
    for prefix in prefixes:
        r, last = 0, kind
        for q in prefix:
            r, last = r + (q[0] is not last), q[0]
            rounds.append((r, q))
    rounds.sort(key=lambda rq: rq[0])  # stable: prefixes keep their order
    return [q for _, q in rounds]


def _pull(f, names, lead, out, passes):
    """Append f's prefix, a list of (Exists or Forall, var), to out and
    return its matrix, whose unbounded quantifiers are gone (bounded ones
    remain).  lead is the class of the nearest unbounded quantifier above
    f, None at the top: a tree's prefix pays one more block unless its
    leading kind continues lead.  passes holds the quantifier classes that
    every bounded binder above f lets pass; one of another class is capped."""
    if isinstance(f, (And, Or)):  # the leading kind, once, as classify reads
        s, p = _levels(f)
        kind = Exists if s + (lead is Forall) < p + (lead is Exists) else Forall
        parts = []
        matrix = map_chains(f, _SAME, _pull, names, kind, parts, passes)
        out.append(_merge(parts, kind))
        return matrix
    if isinstance(f, (Exists, Forall)):
        kind, var = type(f), f.var
        if kind not in passes:  # by collection: a fresh cap w, and v < w here
            var, passes = names.fresh("w"), ()
        matrix = _pull(f.body, names, kind, out, passes)
        out[-1].insert(0, (kind, var))
        return matrix if var is f.var else _BOUNDED[kind](f.var, var, matrix)
    if isinstance(f, (BForall, BExists)):
        passes = [q for q in passes if _BOUNDED[q] is type(f)]
        return type(f)(f.var, f.bound, _pull(f.body, names, lead, out, passes))
    out.append([])
    return f  # an atom, negated or not, true or false


def prenexify(f):
    """A strict prenex formula at the same generalized level as f, and
    equivalent over N; bounded quantifiers stay in the matrix."""
    names, out = Names(free_vars(f)), []
    matrix = _pull(nnf(f, names), names, None, out, (Exists, Forall))
    for kind, var in reversed(out[0]):
        matrix = kind(var, matrix)
    return matrix
