"""Proof objects for the standard Hoare rules and a desk-scale checker.

Structural rule applications (assignment, sequence, conditional, loop) are
checked exactly: each program and assertion a rule demands is compared by
`terms.alpha_equal`, one side-by-side walk, so assertions match up to
alpha-equivalence and no comparison recurses.  The
consequence rule's logical premises are discharged semantically: each is
universally closed and swept over a grid of assignments with the bounded
evaluator, so an exact False rejects, all-True accepts, and anything else
is reported as an unresolved side condition, never silently accepted.

`RULES` is the one table of the five rules: each rule's keyword and the
labels of its premises, which the parser, the printer and the checker
read.  Each rule's structural conditions are listed once, in `_demands`.
`check_proof` walks the premises with an explicit stack, not by recursion.
"""

from dataclasses import dataclass

from .terms import (And, Formula, Implies, Not, alpha_equal, free_vars,
                    substitute)
from .evaluator import (FALSE, TRUE, Budget, assignments, compile_formula,
                        format_assignment)
from .whilelang import Assign, If, Seq, While
from .alpha import HoareTriple


class ProofNode:
    __slots__ = ()


@dataclass(frozen=True)
class AssignAxiom(ProofNode):
    conclusion: HoareTriple


@dataclass(frozen=True)
class SeqRule(ProofNode):
    left: ProofNode
    right: ProofNode
    conclusion: HoareTriple


@dataclass(frozen=True)
class CondRule(ProofNode):
    then_pf: ProofNode
    else_pf: ProofNode
    conclusion: HoareTriple


@dataclass(frozen=True)
class WhileRule(ProofNode):
    invariant: Formula
    body_pf: ProofNode
    conclusion: HoareTriple


@dataclass(frozen=True)
class ConseqRule(ProofNode):
    inner: ProofNode
    conclusion: HoareTriple


# each rule's keyword and the labels of its fields before `conclusion`,
# in field order
RULES = {AssignAxiom: ("assign", ()), SeqRule: ("seq", ("left", "right")),
         CondRule: ("cond", ("then", "else")),
         WhileRule: ("loop", ("invariant", "body")),
         ConseqRule: ("conseq", ("inner",))}


@dataclass(frozen=True)
class NodeStatus:
    location: str  # path like "root.left.body"
    status: str    # "accepted" | "side-condition-unknown" | "rejected"
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    nodes: tuple
    grid: int = 0

    @property
    def accepted(self):
        return all(n.status != "rejected" for n in self.nodes)

    @property
    def caveats(self):
        return tuple(n for n in self.nodes if n.status == "side-condition-unknown")

    def first_rejection(self):
        for n in self.nodes:
            if n.status == "rejected":
                return n
        return None


def _sweep(formula, grid, budget):
    """Grid-sweep the universal closure: 'true', 'false' or 'unknown'."""
    vs = sorted(free_vars(formula), key=lambda v: v.name)
    compiled = compile_formula(formula, budget)
    saw_unknown = False
    for point in assignments(vs, grid):
        r = compiled(point)
        if r is FALSE:  # exact verdicts are the TRUE and FALSE singletons
            return "false", f"False at {format_assignment(point)}"
        if r is not TRUE:
            saw_unknown = True
            reason = r.reason
    if saw_unknown:
        return "unknown", reason
    return "true", ""


def check_proof(proof, grid=5, budget=Budget()):
    """Check a proof object; returns a CheckReport with one status per node,
    in pre-order.  A rejected node's premises are not checked."""
    if grid < 0:
        raise ValueError("grid must be >= 0")
    nodes = []
    todo = [(proof, "root")]  # an explicit stack: proofs nest thousands deep
    while todo:
        p, loc = todo.pop()
        if _check(p, loc, grid, budget, nodes):
            kids = [(getattr(p, k), f"{loc}.{label}")
                    for label, k in zip(RULES[type(p)][1], p.__match_args__)]
            todo += [k for k in reversed(kids) if isinstance(k[0], ProofNode)]
    return CheckReport(tuple(nodes), grid)


def _demands(p, c):
    """The structural conditions of p's rule on its conclusion c, in the
    order they are checked, as (found, wanted, why) triples; `why` shows
    found as {0} and wanted as {1}.  A generator, so a premise or a part
    of c.prog is read only once the conditions before it hold."""
    rule = type(p)
    if rule is AssignAxiom:
        yield type(c.prog), Assign, "assignment axiom applied to a non-assignment"
        yield (c.pre, substitute(c.post, c.prog.var, c.prog.expr),
               "precondition is not the substituted postcondition: "
               "expected {1}, found {0}")
    elif rule is SeqRule:
        yield type(c.prog), Seq, "sequence rule applied to a non-sequence"
        lc, rc = p.left.conclusion, p.right.conclusion
        why = "premise programs do not match the sequence parts"
        yield lc.prog, c.prog.first, why
        yield rc.prog, c.prog.second, why
        yield lc.pre, c.pre, "left premise precondition differs from the conclusion's"
        yield rc.post, c.post, "right premise postcondition differs from the conclusion's"
        yield lc.post, rc.pre, "midpoint mismatch: {0} vs {1}"
    elif rule is CondRule:
        yield type(c.prog), If, "conditional rule applied to a non-conditional"
        b = c.prog.guard
        tc, ec = p.then_pf.conclusion, p.else_pf.conclusion
        why = "premise programs do not match the branches"
        yield tc.prog, c.prog.then, why
        yield ec.prog, c.prog.els, why
        yield tc.pre, And(c.pre, b), "then-premise precondition must be {1}"
        yield ec.pre, And(c.pre, Not(b)), "else-premise precondition must be {1}"
        why = "branch postconditions differ from the conclusion's"
        yield tc.post, c.post, why
        yield ec.post, c.post, why
    elif rule is WhileRule:
        yield type(c.prog), While, "loop rule applied to a non-loop"
        b, inv = c.prog.guard, p.invariant
        yield c.pre, inv, "conclusion precondition is not the invariant"
        yield c.post, And(inv, Not(b)), "conclusion postcondition must be {1}"
        bc = p.body_pf.conclusion
        yield bc.prog, c.prog.body, "body premise program is not the loop body"
        yield bc.pre, And(inv, b), "body premise precondition must be {1}"
        yield bc.post, inv, "body premise postcondition must be the invariant"
    else:  # ConseqRule
        yield (p.inner.conclusion.prog, c.prog,
               "premise program differs from the conclusion's")


def _check(p, loc, grid, budget, nodes):
    """Append p's statuses to nodes; whether its premises are checked."""
    if type(p) not in RULES:
        nodes.append(NodeStatus(loc, "rejected", f"not a proof node: {p!r}"))
        return False
    c = p.conclusion
    for found, wanted, why in _demands(p, c):
        if not (found is wanted if isinstance(wanted, type)
                else alpha_equal(found, wanted)):
            nodes.append(NodeStatus(loc, "rejected", why.format(found, wanted)))
            return False
    settled = True
    if type(p) is ConseqRule:
        # the logical premises, swept over the grid
        ic = p.inner.conclusion
        for tag, side in (("pre", Implies(c.pre, ic.pre)),
                          ("post", Implies(ic.post, c.post))):
            verdict, detail = _sweep(side, grid, budget)
            if verdict == "false":
                nodes.append(NodeStatus(
                    loc, "rejected", f"{tag}-consequence fails: {side} — {detail}"))
                return False
            if verdict == "unknown":
                settled = False
                nodes.append(NodeStatus(
                    loc, "side-condition-unknown",
                    f"{tag}-consequence {side} not settled at grid {grid}: {detail}"))
    if settled:
        nodes.append(NodeStatus(loc, "accepted"))
    return True
