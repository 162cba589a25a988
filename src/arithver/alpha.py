"""The program-encoding formula alpha_S, verification conditions and the
desk-scale Hoare-triple checker.

alpha_S(xs, ys) is a generalized Sigma_1 formula holding exactly on the
input/output pairs of S over N.  Loops are encoded by an iteration count
and a beta-coded trace of tuple-coded loop-head states, spelled out with
the coding's own formulas for (w)_i = v and t = <c1,...,cm> (see coding).

instantiate_alpha replaces every existential (including the bounded ones
carrying huge trace codes) by concrete numerals computed from an actual
run, so the instance is quantifier-free and evaluates exactly.  The
instances replay a run that whilelang.run has checked halts: run owns the
cost model, and the replay charges no fuel.  The replay takes each branch
that the guard instance it writes into the certificate evaluates to, by
eval_formula, so the certificate and the run agree by construction.
"""

from dataclasses import dataclass

from . import coding
from .coding import beta_graph, tuple_graph, tuple_inst
from .terms import (Add, And, BExists, BForall, Eq, Exists, Forall, Implies,
                    Lit, Names, Not, Or, conj, free_vars, subst_term,
                    substitute_simultaneous)
from .evaluator import (FALSE, TRUE, Budget, assignments, compile_formula,
                        eval_formula, eval_term, format_assignment)
from .whilelang import (Assign, If, Program, Seq, While, compile_program,
                        program_vars, run)


def _state_graph(w, i, terms, names):
    """The loop-head state at index i of trace w equals the given terms."""
    t = names.fresh("t")
    return BExists(t, Add(w, Lit(1)),
                   And(beta_graph(w, i, t, names), tuple_graph(t, terms, names)))


def encode_alpha(prog, avoid=()):
    """alpha_S over the program variables and fresh primed outputs.

    The outputs and the bound intermediates are named apart from the
    program variables and from the variables in avoid.  Returns
    (formula, xs, ys).
    """
    xs = program_vars(prog)
    names = Names([*xs, *avoid])
    ys = names.fresh_vec([x.name + "'" for x in xs])
    return _alpha(prog, xs, xs, ys, names), xs, ys


def _guard_at(guard, xs, at):
    """The guard with program variables replaced by terms."""
    return substitute_simultaneous(guard, list(zip(xs, at)))


def _alpha(prog, xs, invars, outvars, names):
    """alpha for prog relating the term vectors invars -> outvars.

    invars/outvars are parallel to xs (the full program-variable vector).
    """
    if isinstance(prog, Assign):
        i = xs.index(prog.var)
        rhs = subst_term(prog.expr, dict(zip(xs, invars)))
        return conj([Eq(outvars[j], rhs if j == i else invars[j])
                     for j in range(len(xs))])
    # a `;` chain's right spine by a loop, as chains run thousands long
    links = []
    while isinstance(prog, Seq):
        zs = names.fresh_vec([x.name + "''" for x in xs])
        links.append((zs, _alpha(prog.first, xs, invars, zs, names)))
        prog, invars = prog.second, zs
    if links:
        out = _alpha(prog, xs, invars, outvars, names)
        for zs, first in reversed(links):
            out = And(first, out)
            for z in reversed(zs):
                out = Exists(z, out)
        return out
    if isinstance(prog, If):
        g = _guard_at(prog.guard, xs, invars)
        a1 = _alpha(prog.then, xs, invars, outvars, names)
        a2 = _alpha(prog.els, xs, invars, outvars, names)
        return Or(And(g, a1), And(Not(g), a2))
    if isinstance(prog, While):
        return _alpha_while(prog, xs, invars, outvars, names)
    raise TypeError(f"not a program: {prog!r}")


def _alpha_while(prog, xs, invars, outvars, names):
    m = len(xs)
    i = names.fresh("i")
    w = names.fresh("w")
    j = names.fresh("j")
    us = names.fresh_vec(["u" + str(k) for k in range(1, m + 1)])
    vs = names.fresh_vec(["v" + str(k) for k in range(1, m + 1)])

    # x-vec = (w)_0, y-vec = (w)_i
    head = _state_graph(w, Lit(0), invars, names)
    tail = _state_graph(w, i, outvars, names)

    # forall j < i: B((w)_j) and alpha_body((w)_j, (w)_{j+1})
    step = And(_state_graph(w, j, us, names),
               And(_state_graph(w, Add(j, Lit(1)), vs, names),
                   And(_guard_at(prog.guard, xs, us),
                       _alpha(prog.body, xs, us, vs, names))))
    for v in reversed(vs):
        step = BExists(v, Add(w, Lit(1)), step)
    for u in reversed(us):
        step = BExists(u, Add(w, Lit(1)), step)
    loop = BForall(j, i, step)

    a_s = And(head, And(loop, tail))
    body = And(Exists(w, a_s), Not(_guard_at(prog.guard, xs, outvars)))
    return Exists(i, body)


def encode_alpha_out(prog, index, inputs):
    """alpha_S^(i): non-input variables and all outputs but one closed off.

    index is 1-based into the program-variable vector; inputs is the list
    of input variables (a subset of the program variables).  Returns
    (formula, input_vars, result_var): the free variables are the inputs
    and the designated output.
    """
    alpha, xs, ys = encode_alpha(prog)
    if not 1 <= index <= len(xs):
        raise IndexError(f"output index {index} out of range for {len(xs)} variables")
    for p in inputs:
        if p not in xs:
            raise ValueError(f"{p} is not a program variable")
    names = Names(xs + ys)  # alpha's free variables are among them
    y = names.fresh("y")
    out = And(alpha, Eq(y, ys[index - 1]))
    for yv in reversed(ys):
        out = Exists(yv, out)
    for q in reversed([x for x in xs if x not in inputs]):
        out = Exists(q, out)
    return out, list(inputs), y


def instantiate_alpha(prog, state, fuel):
    """A closed, quantifier-free instance of alpha_S for an actual run.

    Every existential (iteration counts, trace codes, intermediates, the
    bounded coding witnesses) is replaced by numerals computed from the
    execution.  Returns None when fuel runs out before termination.
    """
    replay = _replay(prog, program_vars(prog), state, fuel)
    return None if replay is None else replay[1]


def _replay(prog, xs, state, fuel):
    """(final state, alpha instance) of prog's run from state, or None
    when the run does not halt within fuel (run decides that)."""
    if fuel < 1 or not run(prog, state, fuel).terminated:
        return None
    st = dict(state)
    inst = _inst(prog, xs, st)
    return st, inst


def _num_state(xs, st):
    return [st.get(x, 0) for x in xs]


def _guard_inst(guard, xs, st):
    return _guard_at(guard, xs, [Lit(v) for v in _num_state(xs, st)])


def _inst(prog, xs, st):
    """The witnessed alpha instance of a run that halts; mutates st into
    the final state."""
    if isinstance(prog, Assign):
        before = [Lit(v) for v in _num_state(xs, st)]
        st[prog.var] = eval_term(prog.expr, st)
        after = [Lit(v) for v in _num_state(xs, st)]
        return _alpha(prog, xs, before, after, None)
    if isinstance(prog, Seq):
        # the right spine by a loop, as in _exec; conj nests the parts to
        # the right again, as the recursion did
        parts = []
        while isinstance(prog, Seq):
            parts.append(_inst(prog.first, xs, st))
            prog = prog.second
        return conj(parts + [_inst(prog, xs, st)])
    if isinstance(prog, If):
        g = _guard_inst(prog.guard, xs, st)
        if eval_formula(g, {}).is_true():
            return And(g, _inst(prog.then, xs, st))
        return And(Not(g), _inst(prog.els, xs, st))
    if isinstance(prog, While):
        heads = [_num_state(xs, st)]
        parts = []
        g = _guard_inst(prog.guard, xs, st)
        while eval_formula(g, {}).is_true():
            parts.append(And(g, _inst(prog.body, xs, st)))
            heads.append(_num_state(xs, st))
            g = _guard_inst(prog.guard, xs, st)
        k = len(heads) - 1
        codes = [coding.tuple_encode(h) for h in heads]
        betas = coding.seq_inst(codes)
        # each loop-head state is built once; alpha's shape still puts
        # states j and j+1 beside step j
        states = [And(beta, tuple_inst(t, h))
                  for beta, t, h in zip(betas, codes, heads)]
        pieces = [states[0]]
        for j in range(k):
            pieces += [states[j], states[j + 1], parts[j]]
        pieces.append(states[k])
        pieces.append(Not(g))
        return conj(pieces)
    raise TypeError(f"not a program: {prog!r}")


@dataclass(frozen=True)
class HoareTriple:
    pre: "Formula"
    prog: Program
    post: "Formula"
    params: tuple = ()  # parameter variables swept alongside inputs


def vc(triple):
    """Universal closure of pre(xs) /\\ alpha_S(xs, ys) -> post(ys/xs).

    alpha's names avoid the parameters and the free variables of pre and
    post, which the closure would otherwise capture.
    """
    alpha, xs, ys = encode_alpha(
        triple.prog,
        [*triple.params, *free_vars(triple.pre), *free_vars(triple.post)])
    post = substitute_simultaneous(triple.post, list(zip(xs, ys)))
    body = Implies(And(triple.pre, alpha), post)
    closed = body
    for v in reversed(list(dict.fromkeys([*triple.params, *xs, *ys]))):
        closed = Forall(v, closed)
    return closed


def vc_instance(triple, state, fuel):
    """The VC body at a concrete input, with alpha witnessed by the run.

    Returns None when the run exhausts its fuel.
    """
    xs = program_vars(triple.prog)
    replay = _replay(triple.prog, xs, state, fuel)
    if replay is None:
        return None
    final, inst = replay
    pre = substitute_simultaneous(
        triple.pre, [(x, Lit(state.get(x, 0))) for x in xs])
    post = substitute_simultaneous(
        triple.post, [(x, Lit(final.get(x, 0))) for x in xs])
    return Implies(And(pre, inst), post)


@dataclass(frozen=True)
class Verdict:
    status: str  # "verified" | "counterexample" | "inconclusive"
    grid: int = 0
    fuel: int = 0
    caveats: tuple = ()
    input: dict = None
    output: dict = None

    def is_verified(self):
        return self.status == "verified"


def check_triple(triple, grid, fuel, budget=Budget()):
    """Sweep all inputs (and parameters) with components <= grid.

    A terminating run from a pre-state that lands in a post-violating
    state is a Counterexample.  Unknown assertion verdicts and exhausted
    runs become caveats and never silently verify; if nothing at all could
    be decided and Unknowns occurred, the verdict is Inconclusive.
    The pre guards the sweep: assignments skips the points where a
    conjunct of the pre that binds nothing is False, and each skipped
    point counts as decided, since the pre is False there.
    """
    if grid < 0 or fuel < 1:
        raise ValueError("grid >= 0 and fuel >= 1 required")
    xs = program_vars(triple.prog)
    sweep = list(dict.fromkeys([*triple.params, *xs]))
    pre = compile_formula(triple.pre, budget)
    prog = compile_program(triple.prog)
    post = compile_formula(triple.post, budget)
    caveats = []
    decided_pass = 0
    unknowns = 0
    visited = 0
    for point in assignments(sweep, grid, guard=triple.pre):
        visited += 1
        # exact verdicts are the TRUE and FALSE singletons
        pre_v = pre(point)
        if pre_v is FALSE:
            decided_pass += 1
            continue
        if pre_v is not TRUE:
            unknowns += 1
            caveats.append(f"pre Unknown at {format_assignment(point)}: "
                           f"{pre_v.reason}")
            continue
        out = prog(point, fuel)
        if not out.terminated:
            caveats.append(f"fuel exhausted at {format_assignment(point)}; "
                           "divergence assumed")
            continue
        # the run starts from a copy of point, so its state binds every
        # swept name
        post_v = post(out.state)
        if post_v is FALSE:
            return Verdict("counterexample", grid, fuel,
                           input=dict(point), output=dict(out.state))
        if post_v is TRUE:
            decided_pass += 1
        else:
            unknowns += 1
            caveats.append(f"post Unknown at {format_assignment(point)}: "
                           f"{post_v.reason}")
    decided_pass += (grid + 1) ** len(sweep) - visited  # skipped: pre False
    if unknowns and not decided_pass:
        return Verdict("inconclusive", grid, fuel, caveats=tuple(caveats))
    return Verdict("verified", grid, fuel, caveats=tuple(caveats))
