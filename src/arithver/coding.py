"""Pairing, tuple coding and the beta-function sequence coding.

The pairing function is Cantor's <x,y> = (x+y)(x+y+1)/2 + x.  A sequence
a_0..a_k is coded by a single number w = <b,c> with
(w)_i = b mod (1 + (i+1)*c).

Beside each decoder sits its defining formula in the language
{0,1,+,*,<}, with bounded quantifiers only (the *_graph functions), and
that formula's witnessed closed instance at concrete numbers (the *_inst
functions), which is quantifier-free and evaluates exactly.
"""

import math

from .terms import Add, And, BExists, Eq, Lit, Lt, Mul


def pair(x, y):
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals")
    s = x + y
    return s * (s + 1) // 2 + x


def split(z):
    if z < 0:
        raise ValueError("naturals only")
    s = (math.isqrt(8 * z + 1) - 1) // 2
    x = z - s * (s + 1) // 2
    return x, s - x


def tuple_encode(xs):
    """Right-nested iterated pairing; a 1-tuple codes as itself."""
    if not xs:
        raise ValueError("tuple_encode needs a nonempty list")
    out = xs[-1]
    for x in reversed(xs[:-1]):
        out = pair(x, out)
    return out


def tuple_decode(z, k):
    if k < 1:
        raise ValueError("tuple_decode needs k >= 1")
    out = []
    for _ in range(k - 1):
        x, z = split(z)
        out.append(x)
    out.append(z)
    return out


def beta(b, c, i):
    return b % (1 + (i + 1) * c)


def beta_index(w, i):
    """(w)_i with w read as <b,c>."""
    b, c = split(w)
    return beta(b, c, i)


def seq_encode(xs):
    """A code w with beta_index(w, i) == xs[i] for every position.

    c is the least multiple of lcm(1..k) exceeding max(xs), which keeps the
    moduli 1 + (i+1)c pairwise coprime and larger than every element; b is
    found by Chinese remaindering.  No minimality of w is promised.
    """
    return pair(*_seq_parts(xs))


def _seq_parts(xs):
    """The <b, c> of seq_encode(xs), before they are paired."""
    if not xs:
        raise ValueError("seq_encode needs a nonempty list")
    k = len(xs)
    base = math.lcm(*range(1, k + 1))
    c = base * (max(xs) // base + 1)
    moduli = [1 + (i + 1) * c for i in range(k)]
    b, m = 0, 1
    for a, mod in zip(xs, moduli):
        # combine b (mod m) with a (mod mod); m has no inverse exactly when
        # mod shares a factor with an earlier modulus
        try:
            inv = pow(m, -1, mod)
        except ValueError:
            raise AssertionError("beta moduli are not pairwise coprime") from None
        diff = (a - b) % mod
        b = b + m * (diff * inv % mod)
        m *= mod
    return b, c


# ---------------------------------------------------------------------------
# Defining formulas and their witnessed instances


def pair_graph(z, x, y):
    """z = <x,y> as an equation: 2z = (x+y)(x+y+1) + 2x."""
    s = Add(x, y)
    return Eq(Add(z, z), Add(Mul(s, Add(s, Lit(1))), Add(x, x)))


def mod_graph(v, b, m, names):
    """v = b mod m (m >= 1): v < m and b = q*m + v for some q <= b."""
    q = names.fresh("q")
    return And(Lt(v, m), BExists(q, Add(b, Lit(1)), Eq(b, Add(Mul(q, m), v))))


def beta_graph(w, i, v, names):
    """v = (w)_i: components b,c of w satisfy v = b mod (1 + (i+1)c).

    b, c <= w because the pairing never shrinks, so the search is bounded.
    """
    b, c = names.fresh("b"), names.fresh("c")
    m = Add(Lit(1), Mul(Add(i, Lit(1)), c))
    return BExists(b, Add(w, Lit(1)),
                   BExists(c, Add(w, Lit(1)),
                           And(pair_graph(w, b, c), mod_graph(v, b, m, names))))


def tuple_graph(t, components, names):
    """t = <c1,...,cm> (right-nested pairing); m >= 1.

    Built by a loop from the last component outwards, so m may run to
    thousands; the rest of the tuple after c_k is r_k, with r_0 = t.
    """
    rs = [t, *(names.fresh("r") for _ in components[1:])]
    f = Eq(rs[-1], components[-1])
    for r, c, rest in reversed([*zip(rs, components, rs[1:])]):
        f = BExists(rest, Add(r, Lit(1)), And(pair_graph(r, c, rest), f))
    return f


def pair_inst(z, x, y):
    return pair_graph(Lit(z), Lit(x), Lit(y))


def mod_inst(v, b, m):
    q = b // m
    return And(Lt(Lit(v), Lit(m)),
               Eq(Lit(b), Add(Mul(Lit(q), Lit(m)), Lit(v))))


def _beta_at(pair, b, c, i, v):
    return And(pair, mod_inst(v, b, 1 + (i + 1) * c))


def beta_inst(w, i, v):
    b, c = split(w)
    return _beta_at(pair_inst(w, b, c), b, c, i, v)


def seq_inst(xs):
    """[beta_inst(w, i, x) for each position i, x] with w = seq_encode(xs).

    b and c come from the remaindering that builds w, so w is never split
    back: for a long trace the isqrt of a split dominates the cost of the
    instances.  Every position holds the same pair-equation object, so an
    evaluation that memoises by node (eval_formula) multiplies out the
    w-sized product once per trace, not once per position.
    """
    b, c = _seq_parts(xs)
    shared = pair_inst(pair(b, c), b, c)
    return [_beta_at(shared, b, c, i, x) for i, x in enumerate(xs)]


def tuple_inst(t, vals):
    if len(vals) == 1:
        return Eq(Lit(t), Lit(vals[0]))
    rest = tuple_encode(vals[1:])
    return And(pair_inst(t, vals[0], rest), tuple_inst(rest, vals[1:]))
