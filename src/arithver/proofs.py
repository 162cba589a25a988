"""Proof objects for the standard Hoare rules and a desk-scale checker.

Structural rule applications (assignment, sequence, conditional, loop) are
checked exactly, with assertion matching up to alpha-equivalence.  The
consequence rule's logical premises are discharged semantically: each is
universally closed and swept over a grid of assignments with the bounded
evaluator, so an exact False rejects, all-True accepts, and anything else
is reported as an unresolved side condition, never silently accepted.
"""

from dataclasses import dataclass

from .terms import And, Implies, Not, alpha_equal, free_vars, substitute
from .evaluator import Budget, assignments, compile_formula, format_assignment
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
    invariant: "Formula"
    body_pf: ProofNode
    conclusion: HoareTriple


@dataclass(frozen=True)
class ConseqRule(ProofNode):
    inner: ProofNode
    conclusion: HoareTriple


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
        if r.is_false():
            return "false", f"False at {format_assignment(point)}"
        if not r.is_exact():
            saw_unknown = True
            reason = r.reason
    if saw_unknown:
        return "unknown", reason
    return "true", ""


def check_proof(proof, grid=5, budget=Budget()):
    """Check a proof object; returns a CheckReport with one status per node."""
    if grid < 0:
        raise ValueError("grid must be >= 0")
    nodes = []
    _check(proof, "root", grid, budget, nodes)
    return CheckReport(tuple(nodes), grid)


def _reject(nodes, loc, why):
    nodes.append(NodeStatus(loc, "rejected", why))


def _check(p, loc, grid, budget, nodes):
    if isinstance(p, AssignAxiom):
        c = p.conclusion
        if not isinstance(c.prog, Assign):
            _reject(nodes, loc, "assignment axiom applied to a non-assignment")
            return
        want = substitute(c.post, c.prog.var, c.prog.expr)
        if not alpha_equal(c.pre, want):
            _reject(nodes, loc,
                    f"precondition is not the substituted postcondition: "
                    f"expected {want}, found {c.pre}")
            return
        nodes.append(NodeStatus(loc, "accepted"))
        return
    if isinstance(p, SeqRule):
        c = p.conclusion
        if not isinstance(c.prog, Seq):
            _reject(nodes, loc, "sequence rule applied to a non-sequence")
            return
        lc, rc = p.left.conclusion, p.right.conclusion
        if lc.prog != c.prog.first or rc.prog != c.prog.second:
            _reject(nodes, loc, "premise programs do not match the sequence parts")
            return
        if not alpha_equal(lc.pre, c.pre):
            _reject(nodes, loc, "left premise precondition differs from the conclusion's")
            return
        if not alpha_equal(rc.post, c.post):
            _reject(nodes, loc, "right premise postcondition differs from the conclusion's")
            return
        if not alpha_equal(lc.post, rc.pre):
            _reject(nodes, loc,
                    f"midpoint mismatch: {lc.post} vs {rc.pre}")
            return
        nodes.append(NodeStatus(loc, "accepted"))
        _check(p.left, loc + ".left", grid, budget, nodes)
        _check(p.right, loc + ".right", grid, budget, nodes)
        return
    if isinstance(p, CondRule):
        c = p.conclusion
        if not isinstance(c.prog, If):
            _reject(nodes, loc, "conditional rule applied to a non-conditional")
            return
        b = c.prog.guard
        tc, ec = p.then_pf.conclusion, p.else_pf.conclusion
        if tc.prog != c.prog.then or ec.prog != c.prog.els:
            _reject(nodes, loc, "premise programs do not match the branches")
            return
        if not alpha_equal(tc.pre, And(c.pre, b)):
            _reject(nodes, loc,
                    f"then-premise precondition must be {And(c.pre, b)}")
            return
        if not alpha_equal(ec.pre, And(c.pre, Not(b))):
            _reject(nodes, loc,
                    f"else-premise precondition must be {And(c.pre, Not(b))}")
            return
        if not (alpha_equal(tc.post, c.post) and alpha_equal(ec.post, c.post)):
            _reject(nodes, loc, "branch postconditions differ from the conclusion's")
            return
        nodes.append(NodeStatus(loc, "accepted"))
        _check(p.then_pf, loc + ".then", grid, budget, nodes)
        _check(p.else_pf, loc + ".else", grid, budget, nodes)
        return
    if isinstance(p, WhileRule):
        c = p.conclusion
        if not isinstance(c.prog, While):
            _reject(nodes, loc, "loop rule applied to a non-loop")
            return
        b = c.prog.guard
        inv = p.invariant
        if not alpha_equal(c.pre, inv):
            _reject(nodes, loc, "conclusion precondition is not the invariant")
            return
        if not alpha_equal(c.post, And(inv, Not(b))):
            _reject(nodes, loc,
                    f"conclusion postcondition must be {And(inv, Not(b))}")
            return
        bc = p.body_pf.conclusion
        if bc.prog != c.prog.body:
            _reject(nodes, loc, "body premise program is not the loop body")
            return
        if not alpha_equal(bc.pre, And(inv, b)):
            _reject(nodes, loc, f"body premise precondition must be {And(inv, b)}")
            return
        if not alpha_equal(bc.post, inv):
            _reject(nodes, loc, "body premise postcondition must be the invariant")
            return
        nodes.append(NodeStatus(loc, "accepted"))
        _check(p.body_pf, loc + ".body", grid, budget, nodes)
        return
    if isinstance(p, ConseqRule):
        c = p.conclusion
        ic = p.inner.conclusion
        if ic.prog != c.prog:
            _reject(nodes, loc, "premise program differs from the conclusion's")
            return
        ok = True
        for tag, side in (("pre", Implies(c.pre, ic.pre)),
                          ("post", Implies(ic.post, c.post))):
            verdict, detail = _sweep(side, grid, budget)
            if verdict == "false":
                _reject(nodes, loc, f"{tag}-consequence fails: {side} — {detail}")
                ok = False
                break
            if verdict == "unknown":
                nodes.append(NodeStatus(
                    loc, "side-condition-unknown",
                    f"{tag}-consequence {side} not settled at grid {grid}: {detail}"))
        if ok:
            if not any(n.location == loc for n in nodes):
                nodes.append(NodeStatus(loc, "accepted"))
            _check(p.inner, loc + ".inner", grid, budget, nodes)
        return
    _reject(nodes, loc, f"not a proof node: {p!r}")
