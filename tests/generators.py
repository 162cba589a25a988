"""Random ASTs for round-trip and differential tests, and `same`, the
exact comparison of trees, Hoare triples and proofs that the tests use.

Programs are generated so that loops usually terminate quickly and state
values stay small enough for trace coding: every loop gets the shape
`while v < e do ...; v := v + 1 od` with a small bound, and right-hand
sides inside loops never multiply two variables (which would square the
value each iteration and overwhelm the sequence codes).
"""

import random

from arithver.alpha import HoareTriple
from arithver.proofs import ProofNode
from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, FalseC,
                            Forall, Iff, Implies, Lit, Lt, Mul, Not, Or,
                            TrueC, Var, alpha_equal)
from arithver.whilelang import Assign, If, Seq, While

VARS = [Var("x"), Var("y"), Var("z")]


def same(a, b):
    """Whether terms, formulas or programs a and b are the same tree, bound
    names included, or Hoare triples or proofs whose fields are.  A node's
    == is identity; alpha_equal reads a tree's shape but not the names it
    binds, and its text reads the names but prints a `;` chain flat however
    it nests, so together they are exact."""
    if isinstance(a, (HoareTriple, ProofNode)):
        return type(a) is type(b) and all(
            same(getattr(a, k), getattr(b, k)) for k in a.__match_args__)
    if type(a) is tuple:  # a triple's parameters, Vars
        return a == b
    return alpha_equal(a, b) and str(a) == str(b)


def random_term(rng, depth=2, vars=VARS, in_loop=False):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.4:
            return Lit(rng.randrange(7))
        return rng.choice(vars)
    a = random_term(rng, depth - 1, vars, in_loop)
    b = random_term(rng, depth - 1, vars, in_loop)
    if rng.random() < 0.6:
        return Add(a, b)
    if in_loop:
        # multiply by a small literal only, keeping growth linear per step
        return Mul(a, Lit(rng.randrange(4)))
    return Mul(a, b)


def random_formula(rng, depth=3, vars=VARS):
    if depth == 0:
        k = rng.randrange(4)
        if k == 0:
            return TrueC()
        if k == 1:
            return FalseC()
        t1, t2 = random_term(rng, 1, vars), random_term(rng, 1, vars)
        return Eq(t1, t2) if k == 2 else Lt(t1, t2)
    k = rng.randrange(8)
    if k == 0:
        return Not(random_formula(rng, depth - 1, vars))
    if k in (1, 2, 3, 4):
        ctor = [And, Or, Implies, Iff][k - 1]
        return ctor(random_formula(rng, depth - 1, vars),
                    random_formula(rng, depth - 1, vars))
    v = Var(rng.choice("abcduvw"))
    inner_vars = vars + [v]
    if k in (5, 6):
        ctor = Forall if k == 5 else Exists
        return ctor(v, random_formula(rng, depth - 1, inner_vars))
    bound = random_term(rng, 1, [w for w in vars if w != v])
    ctor = rng.choice([BForall, BExists])
    return ctor(v, bound, random_formula(rng, depth - 1, inner_vars))


def layered_formula(rng, depth=2, layers=4, vars=VARS):
    """random_formula under up to `layers` layers of `~`, `->`, `<->` and
    unbounded quantifiers, the nodes that decide a formula's level."""
    f = random_formula(rng, depth, vars)
    for _ in range(rng.randint(0, layers)):
        k = rng.randrange(4)
        if k == 0:
            f = Not(f)
        elif k in (1, 2):
            ctor, g = (Implies, Iff)[k - 1], random_formula(rng, 1, vars)
            f = ctor(f, g) if rng.random() < 0.5 else ctor(g, f)
        else:
            f = rng.choice([Exists, Forall])(Var(rng.choice("abcduvw")), f)
    return f


def layered_chain(rng, vars=VARS):
    """One to four layered_formula draws joined by `/\\` or `\\/`, at times
    under one more binder, bounded or not, of one of vars: the trees whose
    operands' prefixes prenexing merges."""
    f = layered_formula(rng, vars=vars)
    for _ in range(rng.randrange(4)):
        f = rng.choice([And, Or])(f, layered_formula(rng, vars=vars))
    k, v = rng.randrange(4), rng.choice(vars)
    if k == 1:
        return rng.choice([Exists, Forall])(v, f)
    if k == 2:
        bound = random_term(rng, 1, [w for w in vars if w != v])
        return rng.choice([BExists, BForall])(v, bound, f)
    return f


def bounded_ladder(k):
    """forall i < x . exists a0 . forall a1 . ... a{k-1} . a0 < i + x /\\
    ...: k alternating quantifiers under one bounded binder, the shape
    whose quantifiers prenexing caps."""
    i, x = Var("i"), Var("x")
    bs = [Var(f"a{j}") for j in range(k)]
    f = Lt(bs[0], Add(i, x))
    for b in bs[1:]:
        f = And(f, Lt(b, Add(i, x)))
    for j in reversed(range(k)):
        f = (Forall if j % 2 else Exists)(bs[j], f)
    return BForall(i, x, f)


def random_bool(rng, depth=1, vars=VARS, in_loop=False):
    if depth == 0 or rng.random() < 0.6:
        return Lt(random_term(rng, 1, vars, in_loop),
                  random_term(rng, 1, vars, in_loop))
    if rng.random() < 0.6:
        return Not(random_bool(rng, depth - 1, vars, in_loop))
    return Implies(random_bool(rng, depth - 1, vars, in_loop),
                   random_bool(rng, depth - 1, vars, in_loop))


def random_program(rng, depth=3, vars=None, in_loop=False):
    vars = vars or rng.sample(VARS, rng.randrange(1, 4))
    if depth == 0 or rng.random() < 0.35:
        return Assign(rng.choice(vars),
                      random_term(rng, 2, vars, in_loop))
    k = rng.randrange(6)
    if k in (0, 1, 2):
        # keep sequences right-nested: `;` has no grouping syntax, so a
        # left-nested Seq would not survive a print/parse round trip
        first = random_program(rng, depth - 1, vars, in_loop)
        while isinstance(first, Seq):
            first = random_program(rng, depth - 1, vars, in_loop)
        return Seq(first, random_program(rng, depth - 1, vars, in_loop))
    if k in (3, 4):
        return If(random_bool(rng, 1, vars, in_loop),
                  random_program(rng, depth - 1, vars, in_loop),
                  random_program(rng, depth - 1, vars, in_loop))
    # counting loop: v sweeps up to a small bound and always increments last
    v = rng.choice(vars)
    bound = rng.choice([Lit(rng.randrange(1, 5))]
                       + [w for w in vars if w != v])
    body = _append(random_program(rng, depth - 1, vars, True),
                   Assign(v, Add(v, Lit(1))))
    return While(Lt(v, bound), body)


def _append(p, stmt):
    # keep the result right-nested (see the Seq case above)
    if isinstance(p, Seq):
        return Seq(p.first, _append(p.second, stmt))
    return Seq(p, stmt)


def random_operand(rng, vars=VARS):
    """A Var or a Lit, a sum or product of two, or a left-nested sum of
    three or four: the shapes whose Var operands compiled atoms and sums
    read inline."""
    def leaf():
        return rng.choice(vars) if rng.random() < 0.6 else Lit(rng.randrange(7))
    k = rng.randrange(4)
    if k == 0:
        return leaf()
    if k == 1:
        return Add(leaf(), leaf())
    if k == 2:
        return Mul(leaf(), leaf())
    t = leaf()
    for _ in range(rng.randint(2, 3)):
        t = Add(t, leaf())
    return t


def random_atom(rng, vars=VARS):
    """An `=` or `<` of two random_operand sides."""
    return rng.choice([Eq, Lt])(random_operand(rng, vars),
                                random_operand(rng, vars))
