"""Terms and formulas of first-order arithmetic over {0, 1, +, *, <}.

Lit is the one numeral: Lit(0) and Lit(1) are the constants 0 and 1.  A
variable's name is an IDENT that is not one of the KEYWORDS, the lexer's
and the parser's definitions too.  Each name has one live Var.  All
nodes are immutable; substitution returns new trees.  A node's == and
hash are identity and its repr is its text: trees compare by structure
only through alpha_equal.

One walk substitutes, simultaneously and without capture: a binder is
renamed when it would capture a substituted term or its substituted
bound would mention it.  Each body is walked once; fresh names come from
Names.  One side-by-side walk, alpha_equal, compares formulas, terms and
programs up to the names of bound variables, and one walk, variables,
lists their free variables.
"""

from dataclasses import dataclass
from functools import cache
import re
import weakref

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"  # an identifier, with trailing primes
KEYWORDS = frozenset({"true", "false", "forall", "exists", "if", "then",
                      "else", "fi", "while", "do", "od"})
_IDENT_RE = re.compile(IDENT)


@cache
def _printer():
    from . import syntax  # syntax sits above terms
    return syntax.format_formula


class Term:
    __slots__ = ()

    def __str__(self):
        return _printer()(self)

    __repr__ = __str__


_VARS = weakref.WeakValueDictionary()  # name -> the one live Var


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Var(Term):
    """A variable.  Each name has one live Var, so the assignment dicts
    that variables key find it by identity, without a Python call."""
    name: str

    def __new__(cls, name):
        v = _VARS.get(name)
        if v is None:
            if name in KEYWORDS:
                raise ValueError(f"keyword {name!r} is not a variable")
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad variable name: {name!r}")
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            _VARS[name] = v
        return v

    def __reduce__(self):
        # rebuild through __new__: a Var equals only itself, so the copy
        # must be the interned Var
        return Var, (self.name,)


@dataclass(frozen=True, eq=False, repr=False)
class Lit(Term):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("literals are naturals")


# bench/wl_witness.py imports these names; Lit(0) and Lit(1) are 0 and 1
Zero = One = Lit


@dataclass(frozen=True, eq=False, repr=False)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Term):
    left: Term
    right: Term


class Formula:
    __slots__ = ()
    __str__ = __repr__ = Term.__str__


@dataclass(frozen=True, eq=False, repr=False)
class TrueC(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class FalseC(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Exists(Formula):
    var: Var
    body: Formula


def _bound_outside_scope(f):
    if f.var in term_vars(f.bound):
        word = type(f).__name__[1:].lower()  # forall or exists
        raise ValueError(f"bound term of {word} {f.var}<... mentions {f.var}")


@dataclass(frozen=True, eq=False, repr=False)
class BForall(Formula):
    var: Var
    bound: Term
    body: Formula
    __post_init__ = _bound_outside_scope


@dataclass(frozen=True, eq=False, repr=False)
class BExists(Formula):
    var: Var
    bound: Term
    body: Formula
    __post_init__ = _bound_outside_scope


_BINDERS = frozenset({Forall, Exists, BForall, BExists})


def term_vars(t):
    """Set of variables occurring in a term.  Sums and products run
    thousands long, so the term is walked by a list that grows as it is
    read."""
    found, todo = set(), [t]
    for t in todo:
        if isinstance(t, Var):
            found.add(t)
        elif isinstance(t, (Add, Mul)):
            todo += (t.left, t.right)
    return found


def variables(node):
    """The free variables of a term, formula, guard or program, each once,
    in first-occurrence pre-order, as a dict's keys.  One loop over an
    explicit stack reads each node field by field, in __match_args__
    order.  A binder's body is read between a +1 and a -1 scope entry for
    its variable, and a bounded binder's bound before them, outside the
    scope, so its variables count as free unless bound further out."""
    found, scopes = {}, {}  # free Var -> None; Var -> binders of it entered
    todo = [node]
    pop = todo.pop
    while todo:
        n = pop()
        cls = type(n)
        if cls is Var:
            if not scopes.get(n):
                found[n] = None
        elif cls is tuple:  # a scope entry
            v, step = n
            scopes[v] = scopes.get(v, 0) + step
        elif cls in _BINDERS:
            todo += ((n.var, -1), n.body, (n.var, 1))
            if cls is BForall or cls is BExists:
                todo.append(n.bound)
        elif cls is not Lit:
            keys = getattr(cls, "__match_args__", None)
            if keys is None:
                raise TypeError(f"not a term, formula or program: {n!r}")
            for k in reversed(keys):
                todo.append(getattr(n, k))
    return found.keys()


def free_vars(f):
    """The set of variables with a free occurrence in f."""
    return set(variables(f))


def binds(f):
    """Whether a binder (forall, exists or a bounded quantifier) occurs in
    formula f.  A loop over an explicit stack, for chains run long."""
    todo = [f]
    while todo:
        cls = type(f := todo.pop())
        if cls in _BINDERS:
            return True
        if cls is not Eq and cls is not Lt:  # whose fields are terms
            todo += (getattr(f, k) for k in cls.__match_args__)
    return False


class Names:
    """Fresh-variable supply avoiding a growing set of names: the only
    code that makes a fresh variable name.

    The candidates for a base are base, base', base'', base''', base_4,
    base_5, ...; each call hands out the first one not used yet.
    """

    def __init__(self, avoid=()):
        self.used = {v.name for v in avoid}
        self._last = {}  # base -> index last handed out; all below are used

    def fresh(self, base):
        primes = self._last.get(base, 0)
        while True:
            name = base + "'" * primes if primes <= 3 else f"{base}_{primes}"
            if name not in self.used:
                break
            primes += 1
        self._last[base] = primes
        self.used.add(name)
        return Var(name)

    def fresh_vec(self, bases):
        return [self.fresh(b) for b in bases]


def strip_exists(f):
    """(variables of f's leading block of unbounded existentials, outermost
    first; the formula under the block)."""
    block = []
    while isinstance(f, Exists):
        block.append(f.var)
        f = f.body
    return block, f


def operands(f, kind):
    """The operands of the chain of kind nodes at f, left to right, or [f]
    when f is not a kind node.  kind is a binary node class, such as And,
    Or or a program's Seq, whose two fields, in __match_args__ order, are
    its operands.

    Chains run thousands long and nest either way: the parser nests `/\\`
    and `\\/` to the left, conj and whilelang.seq nest to the right, and a
    chain built by hand may nest either way.  So both spines are walked
    by an explicit stack.
    """
    left, right = kind.__match_args__
    parts, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, kind):
            todo += (getattr(g, right), getattr(g, left))
        else:
            parts.append(g)
    return parts


def map_chains(f, kinds, leaf, *args):
    """f's tree of `/\\` and `\\/` nodes, rebuilt as it nests: leaf(g, *args)
    of each other node g, left to right, joined at each node of class kind
    by kinds[kind].  Chains run thousands long, so the tree is walked by a
    stack; leaf is called directly, adding one frame only."""
    done, todo = [], [f]
    while todo:
        g = todo.pop()
        if g is None:  # both operands of the node below are done
            done[-2:] = [kinds[todo.pop()](*done[-2:])]
        elif isinstance(g, (And, Or)):
            todo += (type(g), None, g.right, g.left)
        else:
            done.append(leaf(g, *args))
    return done[0]


def subst_term(t, env):
    """Substitute env (Var -> Term) into a term.  Sums and products run
    thousands long, so the term is walked by a stack."""
    if isinstance(t, Var):  # most calls: an atom's or a bound's operand
        return env.get(t, t)
    if not env or not isinstance(t, (Add, Mul)):
        return t
    done, todo = [], [t]
    while todo:
        t = todo.pop()
        if t is None:  # both operands of the node below are done
            done[-2:] = [todo.pop()(*done[-2:])]
        elif isinstance(t, Var):
            done.append(env.get(t, t))
        elif isinstance(t, (Add, Mul)):
            todo += (type(t), None, t.right, t.left)
        else:  # a Lit, not looked up: its hash is a Python call
            done.append(t)
    return done[0]


def substitute_simultaneous(f, pairs):
    """Capture-avoiding simultaneous substitution of terms for variables."""
    targets = [v for v, _ in pairs]
    if len(set(targets)) != len(targets):
        raise ValueError("substitution targets must be distinct")
    return _walk(f, {v: t for v, t in pairs if t is not v})  # x := x: no change


def substitute(f, var, term):
    return f if term is var else _walk(f, {var: term})


def _walk(f, env):
    """f with env (Var -> Term) substituted simultaneously."""
    if not env:
        return f
    if isinstance(f, (Eq, Lt)):
        return type(f)(subst_term(f.left, env), subst_term(f.right, env))
    if isinstance(f, Not):
        return Not(_walk(f.body, env))
    if isinstance(f, (And, Or)):
        return map_chains(f, {And: And, Or: Or}, _walk, env)
    if isinstance(f, (Implies, Iff)):
        return type(f)(_walk(f.left, env), _walk(f.right, env))
    if isinstance(f, (Forall, Exists)):
        var, inner = _enter(f.var, f.body, (), env)
        return type(f)(var, _walk(f.body, inner))
    if isinstance(f, (BForall, BExists)):
        bound = subst_term(f.bound, env)
        var, inner = _enter(f.var, f.body, term_vars(bound), env)
        return type(f)(var, bound, _walk(f.body, inner))
    if isinstance(f, (TrueC, FalseC)):
        return f
    raise TypeError(f"not a formula: {f!r}")


def _enter(var, body, bound_vars, env):
    """(binder, env for body) on entering the scope of var, whose
    substituted bound has the variables bound_vars.  A renaming joins env;
    a binder that keeps its name keeps its Var, and env is copied only
    when var shadows one of its targets."""
    if var in env:
        env = {v: t for v, t in env.items() if v != var}
    hits = [v for v, t in env.items() if var in term_vars(t)]
    free = free_vars(body) if hits or var in bound_vars else set()
    if free.isdisjoint(hits) and var not in bound_vars:
        return var, env
    used = free.union(bound_vars, *map(term_vars, env.values()))
    new = Names(used).fresh(var.name)
    return new, {**env, var: new}


def alpha_equal(f, g):
    """Whether f and g are the same term, formula or program up to the
    names of bound variables: one loop over an explicit stack walks both
    trees side by side, a pair of nodes as two entries.  Entering a pair
    of binders maps both variables to one fresh marker until the scope
    ends; a bounded binder's bound is read outside it.  A Var compares by
    its marker, or by identity when free; a Lit by value; any other node
    field by field, in __match_args__ order."""
    left, right = {}, {}  # Var -> marker of its innermost binder pair
    todo = [f, g]
    pop = todo.pop
    while todo:
        b, a = pop(), pop()
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            if left.get(a, a) is not right.get(b, b):
                return False
        elif cls is Lit:
            if a.n != b.n:
                return False
        elif cls is tuple:  # a scope ends: both variables' markers return
            left[a[0]], right[b[0]] = a[1], b[1]
        elif cls in _BINDERS:
            x, y = a.var, b.var
            if cls is BForall or cls is BExists:  # read once the scope ends
                todo += (a.bound, b.bound)
            todo += ((x, left.get(x, x)), (y, right.get(y, y)), a.body, b.body)
            left[x] = right[y] = object()
        else:
            for k in reversed(cls.__match_args__):
                todo += (getattr(a, k), getattr(b, k))
    return True


def conj(parts):
    """Right-nested conjunction of a list of formulas (true when empty)."""
    parts = list(parts)
    if not parts:
        return TrueC()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out
