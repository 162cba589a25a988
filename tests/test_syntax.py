import random

import pytest

from arithver.terms import (Add, And, BForall, Eq, Exists, Implies, Iff, Lit,
                            Lt, Mul, Not, Or, Var, alpha_equal)
from arithver.whilelang import Assign, If, Seq, While
from arithver.xrec import Cn, Const, Mn, Pr, Proj, xrec_eval
from arithver.proofs import (AssignAxiom, CondRule, ConseqRule, SeqRule,
                             WhileRule, check_proof)
from arithver.syntax import (ParseError, SourceSpan, format_formula,
                             format_program, format_proof, format_schema,
                             parse_bool, parse_formula, parse_program,
                             parse_proof, parse_schema, parse_term,
                             parse_triple, tokenize)

from generators import random_bool, random_formula, random_program

x, y = Var("x"), Var("y")


def test_term_precedence_and_associativity():
    assert parse_term("1 + 2 + 3") == Add(Add(Lit(1), Lit(2)), Lit(3))
    assert parse_term("1 + 2 * 3") == Add(Lit(1), Mul(Lit(2), Lit(3)))
    assert parse_term("(1 + 2) * 3") == Mul(Add(Lit(1), Lit(2)), Lit(3))


def test_primed_identifiers():
    assert parse_term("y''") == Var("y''")


def test_formula_examples_from_grammar():
    f = parse_formula("exists y. y*y = 49")
    assert isinstance(f, Exists) and f.body == Eq(Mul(y, y), Lit(49))
    g = parse_formula("forall i<x. i < x")
    assert isinstance(g, BForall) and g.bound == x
    h = parse_formula("p = 1 /\\ q = 1 -> r = 1")
    assert isinstance(h, Implies) and isinstance(h.left, And)


def test_precedence_chain():
    f = parse_formula("~x = 0 /\\ y = 0 \\/ x = 1 -> y = 1 <-> true")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)
    assert isinstance(f.left.left.left.left, Not)


def test_quantifier_body_extends_right():
    f = parse_formula("exists y. y = 0 /\\ y = x")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_parenthesized_term_vs_formula():
    assert parse_formula("(x + 1) * y = 0") == Eq(Mul(Add(x, Lit(1)), y), Lit(0))
    f = parse_formula("(x = 0)")
    assert f == Eq(x, Lit(0))


def test_program_examples():
    p = parse_program("y:=0; while y<x do y:=y+1 od")
    assert isinstance(p, Seq) and isinstance(p.second, While)
    q = parse_program("if x<1 then y:=0 else y:=1 fi")
    assert isinstance(q, If)
    r = parse_program("while ~(x<1) do x:=x od")
    assert isinstance(r.guard, Not)


def test_guard_round_trip_500_random():
    rng = random.Random(13)
    for _ in range(500):
        g = random_bool(rng, 3)
        assert parse_bool(str(g)) == g, str(g)
        p = parse_program(f"if {g} then x := 0 else x := 1 fi")
        q = parse_program(f"while {g} do x := 0 od")
        assert p.guard == g and q.guard == g, str(g)


@pytest.mark.parametrize("guard", [
    "x = 1", "x < 1 /\\ y < 2", "true", "exists y . y < x",
    "x < 1 <-> y < 1"])
@pytest.mark.parametrize("wrap", [
    "{}", "if {} then x := 0 else x := 1 fi", "while {} do x := 0 od"])
def test_malformed_guard_span_inside_guard(guard, wrap):
    # a guard is read as a formula, then refused if it is not built from
    # `<`, `~` and `->`; the error points into the guard
    text = wrap.format(guard)
    start = wrap.index("{}")
    with pytest.raises(ParseError) as e:
        (parse_bool if wrap == "{}" else parse_program)(text)
    span = e.value.span
    assert start <= span.start <= span.end <= start + len(guard), text


def test_seq_right_associates():
    p = parse_program("x:=0; y:=1; x:=2")
    assert isinstance(p, Seq) and isinstance(p.second, Seq)
    assert isinstance(p.first, Assign)


def test_parse_errors_carry_spans():
    for bad, ctor in [("x + = 3", parse_formula),
                      ("exists . x = 0", parse_formula),
                      ("x := ", parse_program),
                      ("if x<1 then y:=0 fi", parse_program),
                      ("1 +", parse_term)]:
        with pytest.raises(ParseError) as e:
            ctor(bad)
        span = e.value.span
        assert 0 <= span.start <= span.end <= len(bad)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("x = 0 y")
    with pytest.raises(ParseError):
        parse_term("3 3")


def test_comments_and_whitespace():
    f = parse_formula("x = 0 # a comment\n /\\ y = 0")
    assert isinstance(f, And)


def test_span_validation():
    with pytest.raises(ValueError):
        SourceSpan(5, 2)


def test_tokenize_unknown_char():
    with pytest.raises(ParseError):
        tokenize("x @ y")


def test_schema_syntax():
    s = parse_schema("pr(proj(1,1); cn(pred; proj(3,3)))")
    assert xrec_eval(s, [7, 3]).value == 4
    assert parse_schema("add") == parse_schema(" add ")
    assert parse_schema("const(5,2)") == Const(5, 2)
    assert parse_schema("mn(cn(sgbar; proj(1,1)))") == Mn(
        Cn(parse_schema("sgbar"), (Proj(1, 1),)))


def test_schema_stdlib_and_combinators():
    assert xrec_eval(parse_schema("max"), [2, 9]).value == 9
    s = parse_schema("sum_of(proj(2,2))")
    assert xrec_eval(s, [0, 4]).value == 10
    c = parse_schema("cases(chi_lt, proj(2,2); cn(sgbar; cn(monus; proj(2,2), proj(1,2))), proj(1,2))")
    for a in range(5):
        for b in range(5):
            assert xrec_eval(c, [a, b], fuel=10 ** 5).value == max(a, b)


def test_schema_arity_error_is_parse_error():
    with pytest.raises(ParseError):
        parse_schema("cn(add; proj(1,1))")
    with pytest.raises(ParseError):
        parse_schema("frobnicate")


@pytest.mark.parametrize("text,message", [
    ("proj(0,1)", "projection index 0 out of 1..1"),
    ("proj(3,2)", "projection index 3 out of 1..2"),
], ids=["index-0", "index-past-arity"])
def test_bad_projection_is_parse_error_at_its_token(text, message):
    with pytest.raises(ParseError) as e:
        parse_schema(text)
    assert (e.value.message, e.value.span) == (message, SourceSpan(0, 4))


def test_schema_round_trip():
    for src in ["pr(proj(1,1); cn(pr(const(0,0); proj(1,2)); proj(3,3)))",
                "mn(cn(add; proj(1,2), proj(2,2)))", "const(3,1)", "add"]:
        s = parse_schema(src)
        assert parse_schema(format_schema(s)) == s


def test_triple_syntax():
    t = parse_triple("{true} x := 1 {x = 1}")
    assert t.pre == parse_formula("true")
    assert t.prog == parse_program("x := 1")


def test_proof_file_round_trip():
    txt = """
    conseq {
      inner: assign { conclusion: {0 = 0} x := 0 {x = 0} }
      conclusion: {true} x := 0 {x = 0}
    }
    """
    pf = parse_proof(txt)
    assert isinstance(pf, ConseqRule)
    assert isinstance(pf.inner, AssignAxiom)
    assert check_proof(pf, grid=3).accepted
    assert parse_proof(format_proof(pf)) == pf


def test_proof_unknown_rule():
    with pytest.raises(ParseError):
        parse_proof("frob { conclusion: {true} x := 0 {true} }")


def test_formula_round_trip_500_random():
    rng = random.Random(11)
    for _ in range(500):
        f = random_formula(rng)
        g = parse_formula(format_formula(f))
        assert alpha_equal(f, g), format_formula(f)


def test_program_round_trip_500_random():
    rng = random.Random(12)
    for _ in range(500):
        p = random_program(rng)
        q = parse_program(format_program(p))
        assert p == q, format_program(p)


_COND = """cond {
  then: assign { conclusion: {(x = 0 /\\ x < 1)} y := 1 {y = 1} }
  else: assign { conclusion: {(x = 0 /\\ ~(x < 1))} y := 1 {y = 1} }
  conclusion: {x = 0} if x < 1 then y := 1 else y := 1 fi {y = 1}
}"""
_LOOP = """loop {
  invariant: y < (x + 1)
  body: assign { conclusion: {(y < (x + 1) /\\ y < x)} y := (y + 1) {y < (x + 1)} }
  conclusion: {y < (x + 1)} while y < x do y := (y + 1) od {(y < (x + 1) /\\ ~(y < x))}
}"""


def test_format_proof_exact_cond_and_loop():
    for text in (_COND, _LOOP):
        assert format_proof(parse_proof(text)) == text
    indented = format_proof(parse_proof(_LOOP), 1)
    assert indented == "\n".join("  " + line for line in _LOOP.splitlines())


def test_proof_round_trip_all_five_rules():
    pf = parse_proof(f"""
    conseq {{
      inner: seq {{
        left: {_COND}
        right: {_LOOP}
        conclusion: {{x = 0}} if x < 1 then y := 1 else y := 1 fi;
                    while y < x do y := y + 1 od {{~(y < x)}}
      }}
      conclusion: {{true}} if x < 1 then y := 1 else y := 1 fi;
                  while y < x do y := y + 1 od {{~(y < x)}}
    }}""")
    kinds = {type(pf), type(pf.inner), type(pf.inner.left),
             type(pf.inner.right), type(pf.inner.left.then_pf)}
    assert kinds == {ConseqRule, SeqRule, CondRule, WhileRule, AssignAxiom}
    text = format_proof(pf)
    assert parse_proof(text) == pf
    assert format_proof(parse_proof(text)) == text


def test_proof_parse_error_messages():
    with pytest.raises(ParseError) as e:
        parse_proof("frob { conclusion: {true} x := 0 {true} }")
    assert (e.value.message, e.value.span) == ("unknown proof rule 'frob'",
                                               SourceSpan(0, 4))
    # the brace is expected before the rule is looked up
    with pytest.raises(ParseError) as e:
        parse_proof("frob x")
    assert e.value.message == "expected '{', found 'x'"
    with pytest.raises(ParseError) as e:
        parse_proof("seq { left: assign { conclusion: {true} x := 0 {true} } "
                    "conclusion: {true} x := 0 {true} }")
    assert e.value.message == "expected 'right', found 'conclusion'"
    assert e.value.span == SourceSpan(56, 66)
