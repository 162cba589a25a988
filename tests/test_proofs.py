import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from arithver import alpha, evaluator, proofs
from arithver.terms import (Add, And, Eq, Exists, FalseC, Forall, Lit, Lt,
                            Not, TrueC, Var, substitute)
from arithver.evaluator import Budget, eval_formula
from arithver.whilelang import Assign, If, Seq, While, run
from arithver.alpha import HoareTriple, check_triple
from arithver.proofs import (AssignAxiom, CheckReport, CondRule, ConseqRule,
                             NodeStatus, SeqRule, WhileRule, check_proof)

from generators import VARS, random_atom, random_operand

x, y, z = Var("x"), Var("y"), Var("z")

INC = Assign(y, Add(y, Lit(1)))
LOOP = While(Lt(y, x), INC)
COUNT = Seq(Assign(y, Lit(0)), LOOP)


def counting_loop_proof():
    """{true} y:=0; while y<x do y:=y+1 od {~(y<x)} with invariant true."""
    I, B = TrueC(), Lt(y, x)
    ax = AssignAxiom(HoareTriple(TrueC(), INC, I))
    body = ConseqRule(ax, HoareTriple(And(I, B), INC, I))
    wr = WhileRule(I, body, HoareTriple(I, LOOP, And(I, Not(B))))
    left = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    sq = SeqRule(left, wr, HoareTriple(TrueC(), COUNT, And(I, Not(B))))
    return ConseqRule(sq, HoareTriple(TrueC(), COUNT, Not(B)))


def test_assign_axiom_identity():
    p = AssignAxiom(HoareTriple(Eq(Lit(0), Lit(0)), Assign(x, Lit(0)),
                                Eq(x, Lit(0))))
    rep = check_proof(p, grid=3)
    assert rep.accepted and len(rep.nodes) == 1


def test_assign_axiom_alpha_renaming_invariance():
    # postcondition differing only in a bound variable's name still matches
    post1 = Exists(z, Eq(z, x))
    post2 = Exists(y, Eq(y, x))
    pre = Exists(z, Eq(z, Lit(5)))
    p1 = AssignAxiom(HoareTriple(pre, Assign(x, Lit(5)), post1))
    p2 = AssignAxiom(HoareTriple(pre, Assign(x, Lit(5)), post2))
    assert check_proof(p1).accepted
    assert check_proof(p2).accepted


def test_assign_axiom_wrong_pre_rejected():
    p = AssignAxiom(HoareTriple(Eq(x, Lit(0)), Assign(x, Lit(0)), Eq(x, Lit(0))))
    rep = check_proof(p)
    assert not rep.accepted
    assert "substituted postcondition" in rep.first_rejection().detail


def test_assign_axiom_shape_mismatch():
    p = AssignAxiom(HoareTriple(TrueC(), COUNT, TrueC()))
    rep = check_proof(p)
    assert not rep.accepted
    assert rep.first_rejection().location == "root"


def test_counting_loop_derivation_accepted():
    rep = check_proof(counting_loop_proof(), grid=5)
    assert rep.accepted
    assert not rep.caveats
    assert len(rep.nodes) == 6


def test_accepted_conclusion_passes_triple_checker():
    pf = counting_loop_proof()
    rep = check_proof(pf, grid=5)
    assert rep.accepted
    v = check_triple(pf.conclusion, grid=5, fuel=500)
    assert v.status != "counterexample"


def test_seq_midpoint_mismatch():
    left = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    right = AssignAxiom(
        HoareTriple(Eq(y, Lit(0)), Assign(z, y), Eq(y, Lit(0))))
    bad = SeqRule(left, right,
                  HoareTriple(TrueC(), Seq(Assign(y, Lit(0)), Assign(z, y)),
                              Eq(y, Lit(0))))
    rep = check_proof(bad)
    assert not rep.accepted
    assert "midpoint" in rep.first_rejection().detail


def conditional_proof():
    """{true} if x<3 then y:=0 else y:=1 fi {y<2}."""
    prog = If(Lt(x, Lit(3)), Assign(y, Lit(0)), Assign(y, Lit(1)))
    b = Lt(x, Lit(3))
    post = Lt(y, Lit(2))
    thn = ConseqRule(
        AssignAxiom(HoareTriple(Lt(Lit(0), Lit(2)), Assign(y, Lit(0)), post)),
        HoareTriple(And(TrueC(), b), Assign(y, Lit(0)), post))
    els = ConseqRule(
        AssignAxiom(HoareTriple(Lt(Lit(1), Lit(2)), Assign(y, Lit(1)), post)),
        HoareTriple(And(TrueC(), Not(b)), Assign(y, Lit(1)), post))
    return CondRule(thn, els, HoareTriple(TrueC(), prog, post))


def test_cond_rule():
    rep = check_proof(conditional_proof(), grid=4)
    assert rep.accepted


def test_cond_rule_wrong_guard_shape():
    prog = If(Lt(x, Lit(3)), Assign(y, Lit(0)), Assign(y, Lit(1)))
    thn = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    els = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(1)), TrueC()))
    p = CondRule(thn, els, HoareTriple(TrueC(), prog, TrueC()))
    rep = check_proof(p)
    assert not rep.accepted


def test_while_rule_wrong_post():
    body = AssignAxiom(HoareTriple(And(TrueC(), Lt(y, x)), INC, TrueC()))
    p = WhileRule(TrueC(), body, HoareTriple(TrueC(), LOOP, TrueC()))
    rep = check_proof(p)
    assert not rep.accepted
    assert "postcondition" in rep.first_rejection().detail


def test_conseq_false_side_condition_rejected():
    ax = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    p = ConseqRule(ax, HoareTriple(TrueC(), Assign(y, Lit(0)), Eq(Lit(0), Lit(1))))
    rep = check_proof(p, grid=2)
    assert not rep.accepted
    assert "consequence fails" in rep.first_rejection().detail


def test_conseq_unknown_side_condition_is_caveat_not_accept():
    # pre-consequence true -> (exists z . z = y + 6) is true over N but not
    # certifiable at qbound 3: it must surface as unknown, never accepted
    ax = AssignAxiom(
        HoareTriple(Exists(z, Eq(z, Add(y, Lit(6)))), Assign(x, Lit(0)),
                    Exists(z, Eq(z, Add(y, Lit(6))))))
    p = ConseqRule(ax, HoareTriple(TrueC(), Assign(x, Lit(0)),
                                   Exists(z, Eq(z, Add(y, Lit(6))))))
    rep = check_proof(p, grid=3, budget=Budget(q_bound=3))
    assert rep.accepted  # no rejection...
    assert rep.caveats   # ...but flagged, not silently discharged
    assert rep.caveats[0].status == "side-condition-unknown"


def test_conseq_program_mismatch():
    ax = AssignAxiom(HoareTriple(TrueC(), Assign(y, Lit(0)), TrueC()))
    p = ConseqRule(ax, HoareTriple(TrueC(), Assign(y, Lit(1)), TrueC()))
    rep = check_proof(p)
    assert not rep.accepted


def test_reports_are_deterministic():
    pf = counting_loop_proof()
    assert check_proof(pf, grid=4) == check_proof(pf, grid=4)


def test_malformed_node_rejected():
    rep = check_proof("not a proof")
    assert not rep.accepted


def _ax(pre, prog, post):
    return AssignAxiom(HoareTriple(pre, prog, post))


T, Z, B = TrueC(), Eq(y, Lit(0)), Lt(x, Lit(3))
S0, S1 = Assign(y, Lit(0)), Assign(y, Lit(1))
IF = If(B, S0, S1)
THEN, ELSE = And(T, B), And(T, Not(B))
STOP = And(T, Not(Lt(y, x)))

# one minimal malformed proof per condition of each rule, in the order the
# checker tests them, each at the root so that no ancestor rejects first
REJECTIONS = {
    "assign-program": (AssignAxiom(HoareTriple(T, COUNT, T)),
                       "assignment axiom applied to a non-assignment"),
    "assign-pre": (_ax(Eq(x, Lit(0)), Assign(x, Lit(0)), Eq(x, Lit(0))),
                   "precondition is not the substituted postcondition: "
                   "expected 0 = 0, found x = 0"),
    "seq-program": (SeqRule(_ax(T, S0, T), _ax(T, S1, T), HoareTriple(T, S0, T)),
                    "sequence rule applied to a non-sequence"),
    "seq-premise-programs": (
        SeqRule(_ax(T, S0, T), _ax(T, S0, T), HoareTriple(T, Seq(S0, S1), T)),
        "premise programs do not match the sequence parts"),
    "seq-left-pre": (
        SeqRule(_ax(Z, S0, T), _ax(T, S1, T), HoareTriple(T, Seq(S0, S1), T)),
        "left premise precondition differs from the conclusion's"),
    "seq-right-post": (
        SeqRule(_ax(T, S0, T), _ax(T, S1, Z), HoareTriple(T, Seq(S0, S1), T)),
        "right premise postcondition differs from the conclusion's"),
    "seq-midpoint": (
        SeqRule(_ax(T, S0, Z), _ax(T, S1, T), HoareTriple(T, Seq(S0, S1), T)),
        "midpoint mismatch: y = 0 vs true"),
    "cond-program": (CondRule(_ax(T, S0, T), _ax(T, S1, T), HoareTriple(T, S0, T)),
                     "conditional rule applied to a non-conditional"),
    "cond-premise-programs": (
        CondRule(_ax(THEN, S0, T), _ax(ELSE, S0, T), HoareTriple(T, IF, T)),
        "premise programs do not match the branches"),
    "cond-then-pre": (
        CondRule(_ax(T, S0, T), _ax(ELSE, S1, T), HoareTriple(T, IF, T)),
        "then-premise precondition must be (true /\\ x < 3)"),
    "cond-else-pre": (
        CondRule(_ax(THEN, S0, T), _ax(T, S1, T), HoareTriple(T, IF, T)),
        "else-premise precondition must be (true /\\ ~(x < 3))"),
    "cond-then-post": (
        CondRule(_ax(THEN, S0, Z), _ax(ELSE, S1, T), HoareTriple(T, IF, T)),
        "branch postconditions differ from the conclusion's"),
    "cond-else-post": (
        CondRule(_ax(THEN, S0, T), _ax(ELSE, S1, Z), HoareTriple(T, IF, T)),
        "branch postconditions differ from the conclusion's"),
    "loop-program": (WhileRule(T, _ax(T, INC, T), HoareTriple(T, INC, T)),
                     "loop rule applied to a non-loop"),
    "loop-pre": (WhileRule(T, _ax(T, INC, T), HoareTriple(Z, LOOP, STOP)),
                 "conclusion precondition is not the invariant"),
    "loop-post": (WhileRule(T, _ax(T, INC, T), HoareTriple(T, LOOP, T)),
                  "conclusion postcondition must be (true /\\ ~(y < x))"),
    "loop-body-program": (
        WhileRule(T, _ax(And(T, Lt(y, x)), S0, T), HoareTriple(T, LOOP, STOP)),
        "body premise program is not the loop body"),
    "loop-body-pre": (WhileRule(T, _ax(T, INC, T), HoareTriple(T, LOOP, STOP)),
                      "body premise precondition must be (true /\\ y < x)"),
    "loop-body-post": (
        WhileRule(T, _ax(And(T, Lt(y, x)), INC, Z), HoareTriple(T, LOOP, STOP)),
        "body premise postcondition must be the invariant"),
    "conseq-program": (ConseqRule(_ax(T, S0, T), HoareTriple(T, S1, T)),
                       "premise program differs from the conclusion's"),
    # the loop rule reads its body premise between its assertion checks
    "loop-post-before-body": (
        WhileRule(T, _ax(T, S0, T), HoareTriple(T, LOOP, T)),
        "conclusion postcondition must be (true /\\ ~(y < x))"),
    "loop-body-program-before-pre": (
        WhileRule(T, _ax(T, S0, T), HoareTriple(T, LOOP, STOP)),
        "body premise program is not the loop body"),
    "conseq-pre": (ConseqRule(_ax(Z, S0, T), HoareTriple(T, S0, T)),
                   "pre-consequence fails: (true -> y = 0) — False at y=1"),
    "conseq-post": (ConseqRule(_ax(T, S0, T), HoareTriple(T, S0, Z)),
                    "post-consequence fails: (true -> y = 0) — False at y=1"),
    "not-a-node": ("not a proof", "not a proof node: 'not a proof'"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_each_rejection_message(case):
    proof, detail = REJECTIONS[case]
    rep = check_proof(proof, grid=2)
    assert rep.first_rejection() == NodeStatus("root", "rejected", detail)
    assert rep.nodes == (rep.first_rejection(),)


def test_grid_validation():
    with pytest.raises(ValueError):
        check_proof(counting_loop_proof(), grid=-1)


def test_deep_proof_checks_without_recursion():
    # 3,000 consequence rules around one axiom, at the default recursion
    # limit: premises are walked by an explicit stack, parents first
    t = HoareTriple(Eq(x, x), Assign(x, x), Eq(x, x))
    pf = AssignAxiom(t)
    for _ in range(3000):
        pf = ConseqRule(pf, t)
    rep = check_proof(pf, grid=1)
    assert rep.accepted and len(rep.nodes) == 3001
    assert rep.nodes[-1].location == "root" + ".inner" * 3000


def _interpreted(budget):
    """A compile_formula that compiles nothing: every assertion runs
    through eval_formula, whose searches are interpreted to their end."""
    return lambda f, b=budget: (lambda v: eval_formula(f, v, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_sweeps_agree_with_the_interpreter(seed):
    # the compiled sweeps read atoms' Var operands inline and test their
    # verdicts by identity; the same triples and proofs, interpreted,
    # must give the same reports
    rng = random.Random(seed)
    budget = Budget(q_bound=2)
    cases = []
    for _ in range(5):
        pre, post = (rng.choice([f, Exists(z, f), Forall(z, f)])
                     for f in (random_atom(rng), random_atom(rng)))
        var, expr = rng.choice(VARS[:2]), random_operand(rng, VARS[:2])
        prog = Assign(var, expr)
        # z is left out of the sweep, so where it is free it reads as 0
        triple = HoareTriple(pre, prog, post)
        inner = AssignAxiom(HoareTriple(substitute(post, var, expr), prog, post))
        cases.append((triple, ConseqRule(inner, triple)))

    def reports():
        return [(check_triple(t, 2, 10, budget), check_proof(p, 2, budget))
                for t, p in cases]
    compiled = reports()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_compile", lambda g, b, depth: (
            lambda w: evaluator._eval(g, w, b, depth, None)))
        mp.setattr(alpha, "compile_formula", _interpreted(budget))
        mp.setattr(proofs, "compile_formula", _interpreted(budget))
        mp.setattr(alpha, "compile_program", lambda p: partial(run, p))
        assert reports() == compiled
