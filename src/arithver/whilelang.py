"""While-program AST, a fuel-bounded big-step interpreter over N and a
compiler to closures with the same semantics.

A guard is a quantifier-free formula built from Lt, Not and Implies, so
alpha, the VCs and the proof rules use it as it is, and the interpreter
decides it with the evaluator's eval_formula and compile_formula: this
module has no boolean semantics of its own.  is_guard checks the shape,
and If and While refuse any other guard, so a guard always evaluates
exactly and never reads an Unknown as false.  The cost model
charges one fuel unit per assignment, per conditional test and per
loop-guard test.  run and the programs compile_program returns are the
only places fuel is charged.  Fuel exhaustion is a value, not an error,
and never proves divergence.
"""

from dataclasses import dataclass
from functools import partial

from .terms import Formula, Implies, Lt, Not, Term, Var, operands, variables
from .evaluator import (TRUE, compile_formula, compile_term, eval_formula,
                        eval_term)


class Program:
    __slots__ = ()
    __str__ = __repr__ = Term.__str__


@dataclass(frozen=True, eq=False, repr=False)
class Assign(Program):
    var: Var
    expr: Term


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Program):
    first: Program
    second: Program


def seq(parts):
    """The `;` chain of parts, each part's own chain spliced in, nested to
    the right as the parser reads it: the one builder of Seq nodes, so a
    program's text reads back as the same tree."""
    stmts = [s for p in parts for s in operands(p, Seq)]
    out = stmts.pop()
    for s in reversed(stmts):
        out = Seq(s, out)
    return out


def is_guard(g):
    """Whether g is a guard: a formula built from Lt, Not and Implies only."""
    todo = [g]
    while todo:
        n = todo.pop()
        if isinstance(n, Implies):
            todo += (n.left, n.right)
        elif isinstance(n, Not):
            todo.append(n.body)
        elif not isinstance(n, Lt):
            return False
    return True


def _check_guard(g):
    if not is_guard(g):
        raise TypeError(f"not a boolean expression: {g!r}")


@dataclass(frozen=True, eq=False, repr=False)
class If(Program):
    guard: Formula
    then: Program
    els: Program

    def __post_init__(self):
        _check_guard(self.guard)


@dataclass(frozen=True, eq=False, repr=False)
class While(Program):
    guard: Formula
    body: Program

    def __post_init__(self):
        _check_guard(self.guard)


# the while language's names for two guard classes; bench/wl_witness.py
# imports them
Less, NotB = Lt, Not


def program_vars(prog):
    """All program variables, each once, in first-occurrence pre-order."""
    return list(variables(prog))


@dataclass(frozen=True)
class RunOutcome:
    terminated: bool
    state: dict
    steps: int


class _OutOfFuel(Exception):
    """The fuel ran out; run's working state is the state at that point."""


def run(prog, state, fuel):
    """Big-step execution with a fuel budget.

    state maps Var -> natural; the input state is not mutated.  Returns a
    RunOutcome whose .terminated tells a finished run from one whose fuel
    ran out.
    """
    return _run(partial(_exec, prog), state, fuel)


def compile_program(prog):
    """prog compiled once for many runs: a function fn with
    fn(state, fuel) == run(prog, state, fuel), the same fuel charge, the
    same state at exhaustion and the same steps.

    Each node is dispatched once, here, instead of once per step.  The
    grid sweeps compile before their loops; a program run once is cheaper
    through run, which builds no closures.
    """
    return partial(_run, _compile(prog))


def _run(execute, state, fuel):
    # execute(st, fuel) mutates st in place and returns the fuel left
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    st = dict(state)
    try:
        left = execute(st, fuel)
    except _OutOfFuel:
        return RunOutcome(False, st, fuel)
    return RunOutcome(True, st, fuel - left)


def _compile(prog):
    # one closure per statement, with _exec's charges; a `;` chain becomes
    # a tuple walked by a loop
    if isinstance(prog, Seq):
        parts = tuple(map(_compile, operands(prog, Seq)))

        def seq(st, fuel):
            for part in parts:
                fuel = part(st, fuel)
            return fuel
        return seq
    if isinstance(prog, Assign):
        var, expr = prog.var, compile_term(prog.expr)

        def assign(st, fuel):
            if fuel < 1:
                raise _OutOfFuel
            st[var] = expr(st)
            return fuel - 1
        return assign
    if isinstance(prog, If):
        guard = compile_formula(prog.guard)
        then, els = _compile(prog.then), _compile(prog.els)

        def cond(st, fuel):
            if fuel < 1:
                raise _OutOfFuel
            return (then if guard(st) is TRUE else els)(st, fuel - 1)
        return cond
    if isinstance(prog, While):
        guard, body = compile_formula(prog.guard), _compile(prog.body)

        def loop(st, fuel):
            while True:
                if fuel < 1:
                    raise _OutOfFuel
                fuel -= 1
                if guard(st) is not TRUE:
                    return fuel
                fuel = body(st, fuel)
        return loop
    raise TypeError(f"not a program: {prog!r}")


def _exec(prog, st, fuel):
    # the reference semantics that _compile follows; mutates st in place
    # and returns the remaining fuel.  A Seq's right spine is walked by
    # the loop, so long `;` chains do not recurse.
    while isinstance(prog, Seq):
        fuel = _exec(prog.first, st, fuel)
        prog = prog.second
    if isinstance(prog, Assign):
        if fuel < 1:
            raise _OutOfFuel
        st[prog.var] = eval_term(prog.expr, st)
        return fuel - 1
    if isinstance(prog, If):
        if fuel < 1:
            raise _OutOfFuel
        fuel -= 1
        g = eval_formula(prog.guard, st)
        return _exec(prog.then if g.is_true() else prog.els, st, fuel)
    if isinstance(prog, While):
        while True:
            if fuel < 1:
                raise _OutOfFuel
            fuel -= 1
            if not eval_formula(prog.guard, st).is_true():
                return fuel
            fuel = _exec(prog.body, st, fuel)
    raise TypeError(f"not a program: {prog!r}")
