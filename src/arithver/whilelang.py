"""While-program AST and a fuel-bounded big-step interpreter over N.

The cost model charges one fuel unit per assignment, per conditional test
and per loop-guard test.  Fuel exhaustion is a value, not an error, and
never proves divergence.
"""

from dataclasses import dataclass

from .terms import Add, Implies, Lt, Mul, Not, Term, Var
from .evaluator import eval_term


class BoolExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Less(BoolExpr):
    left: Term
    right: Term

    def __str__(self):
        return f"{self.left} < {self.right}"


@dataclass(frozen=True)
class NotB(BoolExpr):
    body: BoolExpr

    def __str__(self):
        return f"~({self.body})"


@dataclass(frozen=True)
class ImpliesB(BoolExpr):
    left: BoolExpr
    right: BoolExpr

    def __str__(self):
        return f"({self.left} -> {self.right})"


class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(Program):
    var: Var
    expr: Term

    def __str__(self):
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program

    def __str__(self):
        return f"{self.first}; {self.second}"


@dataclass(frozen=True)
class If(Program):
    guard: BoolExpr
    then: Program
    els: Program

    def __str__(self):
        return f"if {self.guard} then {self.then} else {self.els} fi"


@dataclass(frozen=True)
class While(Program):
    guard: BoolExpr
    body: Program

    def __str__(self):
        return f"while {self.guard} do {self.body} od"


def node_ids(prog):
    """Pre-order index of each node occurrence (stable across traversals)."""
    ids = {}

    def walk(p):
        ids[id(p)] = len(ids)
        if isinstance(p, Seq):
            walk(p.first)
            walk(p.second)
        elif isinstance(p, If):
            walk(p.then)
            walk(p.els)
        elif isinstance(p, While):
            walk(p.body)

    walk(prog)
    return ids


def bool_vars(b):
    if isinstance(b, Less):
        out = []
        for t in (b.left, b.right):
            out.extend(_term_vars_ordered(t))
        return out
    if isinstance(b, NotB):
        return bool_vars(b.body)
    if isinstance(b, ImpliesB):
        return bool_vars(b.left) + bool_vars(b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


def _term_vars_ordered(t):
    if isinstance(t, Var):
        return [t]
    if isinstance(t, (Add, Mul)):
        return _term_vars_ordered(t.left) + _term_vars_ordered(t.right)
    return []


def program_vars(prog):
    """All program variables, each once, in first-occurrence pre-order."""
    seen = []

    def note(vs):
        for v in vs:
            if v not in seen:
                seen.append(v)

    def walk(p):
        if isinstance(p, Assign):
            note([p.var])
            note(_term_vars_ordered(p.expr))
        elif isinstance(p, Seq):
            walk(p.first)
            walk(p.second)
        elif isinstance(p, If):
            note(bool_vars(p.guard))
            walk(p.then)
            walk(p.els)
        elif isinstance(p, While):
            note(bool_vars(p.guard))
            walk(p.body)
        else:
            raise TypeError(f"not a program: {p!r}")

    walk(prog)
    return seen


def bool_to_formula(b):
    """Embed a guard into the formula language (Less -> Lt, etc.)."""
    if isinstance(b, Less):
        return Lt(b.left, b.right)
    if isinstance(b, NotB):
        return Not(bool_to_formula(b.body))
    if isinstance(b, ImpliesB):
        return Implies(bool_to_formula(b.left), bool_to_formula(b.right))
    raise TypeError(f"not a boolean expression: {b!r}")


def eval_bool(b, state):
    if isinstance(b, Less):
        return eval_term(b.left, state) < eval_term(b.right, state)
    if isinstance(b, NotB):
        return not eval_bool(b.body, state)
    if isinstance(b, ImpliesB):
        return (not eval_bool(b.left, state)) or eval_bool(b.right, state)
    raise TypeError(f"not a boolean expression: {b!r}")


@dataclass(frozen=True)
class RunOutcome:
    terminated: bool
    state: dict
    steps: int


class _OutOfFuel(Exception):
    def __init__(self, state):
        self.state = state


def run(prog, state, fuel):
    """Big-step execution with a fuel budget.

    state maps Var -> natural; the input state is not mutated.  Returns a
    RunOutcome whose .terminated tells Terminated from FuelExhausted.
    """
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    st = dict(state)
    try:
        left = _exec(prog, st, fuel)
    except _OutOfFuel as e:
        return RunOutcome(False, e.state, fuel)
    return RunOutcome(True, st, fuel - left)


def _exec(prog, st, fuel):
    # mutates st in place; returns remaining fuel
    if isinstance(prog, Assign):
        if fuel < 1:
            raise _OutOfFuel(dict(st))
        st[prog.var] = eval_term(prog.expr, st)
        return fuel - 1
    if isinstance(prog, Seq):
        fuel = _exec(prog.first, st, fuel)
        return _exec(prog.second, st, fuel)
    if isinstance(prog, If):
        if fuel < 1:
            raise _OutOfFuel(dict(st))
        fuel -= 1
        branch = prog.then if eval_bool(prog.guard, st) else prog.els
        return _exec(branch, st, fuel)
    if isinstance(prog, While):
        while True:
            if fuel < 1:
                raise _OutOfFuel(dict(st))
            fuel -= 1
            if not eval_bool(prog.guard, st):
                return fuel
            fuel = _exec(prog.body, st, fuel)
    raise TypeError(f"not a program: {prog!r}")
