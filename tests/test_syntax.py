import functools
import random
import sys

import pytest

from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, Forall,
                            Implies, Iff, Lit, Lt, Mul, Not, Or, Var,
                            alpha_equal, conj)
from arithver.whilelang import Assign, If, Seq, While
from arithver.xrec import (SCHEMAS, AddF, Cn, Const, Mn, MulF, Pr, Proj,
                           xrec_eval)
from arithver.proofs import (AssignAxiom, CondRule, ConseqRule, SeqRule,
                             WhileRule, check_proof)
from arithver.syntax import (ParseError, SourceSpan, format_formula,
                             format_program, format_proof, format_schema,
                             parse_bool, parse_formula, parse_program,
                             parse_proof, parse_schema, parse_term,
                             parse_triple, tokenize)

from generators import random_bool, random_formula, random_program, same

x, y = Var("x"), Var("y")

# (text, message, (start, end)) of a parse error.  Every schema constructor
# with a wrong separator, a missing or an extra argument, and unknown names
SCHEMA_ERRORS = [
    ("const(1;2)", "expected ',', found ';'", (7, 8)),
    ("const(1)", "expected ',', found ')'", (7, 8)),
    ("const(1,2,3)", "expected ')', found ','", (9, 10)),
    ("const(,2)", "expected 'num', found ','", (6, 7)),
    ("const 1,2", "expected '(', found '1'", (6, 7)),
    ("proj(1;2)", "expected ',', found ';'", (6, 7)),
    ("proj(1)", "expected ',', found ')'", (6, 7)),
    ("proj(1,2,3)", "expected ')', found ','", (8, 9)),
    ("proj()", "expected 'num', found ')'", (5, 6)),
    ("add(1)", "trailing input '('", (3, 4)),
    ("mul(1)", "trailing input '('", (3, 4)),
    ("mul proj(1,1)", "trailing input 'proj'", (4, 8)),
    ("cn(add, proj(1,1))", "expected ';', found ','", (6, 7)),
    ("cn(add)", "expected ';', found ')'", (6, 7)),
    ("cn(add;)", "expected 'ident', found ')'", (7, 8)),
    ("cn(add; proj(1,1); proj(1,1))", "expected ')', found ';'", (17, 18)),
    ("cn(add; proj(1,1), proj(1,1), proj(1,1))",
     "Cn: f takes 2 args, got 3 inner functions", (0, 2)),
    ("pr(const(0,0), proj(1,2))", "expected ';', found ','", (13, 14)),
    ("pr(const(0,0))", "expected ';', found ')'", (13, 14)),
    ("pr(const(0,0); proj(3,3); proj(3,3))", "expected ')', found ';'", (24, 25)),
    ("pr(const(0,0); proj(1,1))", "Pr: g must take two more arguments than f",
     (0, 2)),
    ("mn{proj(1,1)}", "expected '(', found '{'", (2, 3)),
    ("mn()", "expected 'ident', found ')'", (3, 4)),
    ("mn(proj(1,1); proj(1,1))", "expected ')', found ';'", (12, 13)),
    ("mn(const(0,0))", "Mn: f needs the search argument", (0, 2)),
    ("cases(chi_lt; proj(2,2))", "expected ',', found ';'", (12, 13)),
    ("cases(chi_lt)", "expected ',', found ')'", (12, 13)),
    ("cases(chi_lt, proj(2,2), proj(1,2))", "expected ')', found ','", (23, 24)),
    ("cases()", "expected 'ident', found ')'", (6, 7)),
    ("sum_of", "expected '(', found 'end of input'", (6, 6)),
    ("sum_of()", "expected 'ident', found ')'", (7, 8)),
    ("sum_of(proj(1,1); proj(1,1))", "expected ')', found ';'", (16, 17)),
    ("sum_of(const(0,0))", "sum_of needs f of arity >= 1", (0, 6)),
    ("prod_of(proj(1,1), proj(1,1))", "expected ')', found ','", (17, 18)),
    ("bforall(const(1,0))", "bforall needs f of arity >= 1", (0, 7)),
    ("bexists(const(1,0))", "bexists needs f of arity >= 1", (0, 7)),
    ("pred(1)", "trailing input '('", (4, 5)),
    ("frob", "unknown schema constructor 'frob'", (0, 4)),
    ("frob(1)", "unknown schema constructor 'frob'", (0, 4)),
    ("Const(1,2)", "unknown schema constructor 'Const'", (0, 5)),
    ("7", "expected 'ident', found '7'", (0, 1)),
    ("", "expected 'ident', found 'end of input'", (0, 0)),
]
# a dangling operator at each of the six joining levels, chains of
# comparisons, which do not nest, and bounds that mention their variable
OPERATOR_ERRORS = [
    ("x = 0 <->", "expected a term, found 'end of input'", (9, 9)),
    ("x = 0 ->", "expected a term, found 'end of input'", (8, 8)),
    ("x = 0 \\/", "expected a term, found 'end of input'", (8, 8)),
    ("x = 0 /\\", "expected a term, found 'end of input'", (8, 8)),
    ("x = 1 +", "expected a term, found 'end of input'", (7, 7)),
    ("x = 1 *", "expected a term, found 'end of input'", (7, 7)),
    ("x = 0 <-> -> y = 0", "expected a term, found '->'", (10, 12)),
    ("x = 0 -> <-> y = 0", "expected a term, found '<->'", (9, 12)),
    ("x = 0 \\/ /\\ y = 0", "expected a term, found '/\\\\'", (9, 11)),
    ("x = 0 /\\ \\/ y = 0", "expected a term, found '\\\\/'", (9, 11)),
    ("x = 1 + * 2", "expected a term, found '*'", (8, 9)),
    ("x = 1 * + 2", "expected a term, found '+'", (8, 9)),
    ("(x = 0 /\\) \\/ y = 0", "expected a term, found ')'", (9, 10)),
    ("x = y = z", "trailing input '='", (6, 7)),
    ("x < y = z", "trailing input '='", (6, 7)),
    ("exists y < y + 1 . y = 0", "bound term of exists y<... mentions y",
     (0, 6)),
    ("x = 0 /\\ (forall i < 2 * i . i = 0)",
     "bound term of forall i<... mentions i", (10, 16)),
]


def test_term_precedence_and_associativity():
    assert same(parse_term("1 + 2 + 3"), Add(Add(Lit(1), Lit(2)), Lit(3)))
    assert same(parse_term("1 + 2 * 3"), Add(Lit(1), Mul(Lit(2), Lit(3))))
    assert same(parse_term("(1 + 2) * 3"), Mul(Add(Lit(1), Lit(2)), Lit(3)))


def test_primed_identifiers():
    assert parse_term("y''") == Var("y''")


def test_formula_examples_from_grammar():
    f = parse_formula("exists y. y*y = 49")
    assert isinstance(f, Exists) and same(f.body, Eq(Mul(y, y), Lit(49)))
    g = parse_formula("forall i<x. i < x")
    assert isinstance(g, BForall) and g.bound is x
    h = parse_formula("p = 1 /\\ q = 1 -> r = 1")
    assert isinstance(h, Implies) and isinstance(h.left, And)


def test_precedence_chain():
    f = parse_formula("~x = 0 /\\ y = 0 \\/ x = 1 -> y = 1 <-> true")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)
    assert isinstance(f.left.left.left.left, Not)


A, B, C = Eq(x, Lit(0)), Eq(x, Lit(1)), Eq(x, Lit(2))
z = Var("z")
# the binary operators, loosest first, with the node each builds; `<->`
# and `->` nest to the right, the others to the left
OPERATORS = [("<->", Iff, True), ("->", Implies, True), ("\\/", Or, False),
             ("/\\", And, False), ("+", Add, False), ("*", Mul, False)]


def _chain_parts(ctor):
    if ctor in (Add, Mul):
        return (x, y, z), parse_term
    return (A, B, C), parse_formula


@pytest.mark.parametrize("sym,ctor,right", OPERATORS,
                         ids=[s for s, _, _ in OPERATORS])
def test_chain_of_three_associates(sym, ctor, right):
    (a, b, c), parse = _chain_parts(ctor)
    text = f" {sym} ".join(str(p) for p in (a, b, c))
    want = ctor(a, ctor(b, c)) if right else ctor(ctor(a, b), c)
    assert same(parse(text), want)


_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)
          if (i < 4) == (j < 4)]


@pytest.mark.parametrize("loose,tight", _PAIRS,
                         ids=[f"{OPERATORS[i][0]}|{OPERATORS[j][0]}"
                              for i, j in _PAIRS])
def test_tighter_operator_binds_first(loose, tight):
    (ls, lc, _), (ts, tc, _) = OPERATORS[loose], OPERATORS[tight]
    (a, b, c), parse = _chain_parts(lc)
    assert same(parse(f"{a} {ls} {b} {ts} {c}"), lc(a, tc(b, c)))
    assert same(parse(f"{a} {ts} {b} {ls} {c}"), lc(tc(a, b), c))


_LEVEL = {ctor: (k, sym, right) for k, (sym, ctor, right) in enumerate(OPERATORS)}
_QUANTIFIERS = {Forall: "forall", Exists: "exists", BForall: "forall",
                BExists: "exists"}


def minimal(n, lo=0, tail=True):
    """n printed with the fewest parentheses.  It sits where an operator
    looser than level `lo` needs parentheses; `tail` says that nothing
    follows it before the end of its enclosing parenthesis, so that a
    quantifier, whose body extends maximally, needs none."""
    if type(n) in _LEVEL:
        k, sym, right = _LEVEL[type(n)]
        paren = k < lo
        left = minimal(n.left, k + right, False)
        rest = minimal(n.right, k + (not right), tail or paren)
        text = f"{left} {sym} {rest}"
        return f"({text})" if paren else text
    if type(n) in _QUANTIFIERS:
        bound = f" < {minimal(n.bound, 4)}" if hasattr(n, "bound") else ""
        text = f"{_QUANTIFIERS[type(n)]} {n.var}{bound} . {minimal(n.body)}"
        return text if tail else f"({text})"
    if isinstance(n, Not):
        return "~" + minimal(n.body, 4, tail)
    if isinstance(n, (Eq, Lt)):
        op = "=" if isinstance(n, Eq) else "<"
        return f"{minimal(n.left, 4)} {op} {minimal(n.right, 4)}"
    return str(n)


def test_minimal_parentheses_round_trip_500_random():
    # str parenthesizes every binary node; this printer leaves out every
    # pair that precedence, associativity and binder scope make redundant
    rng = random.Random(14)
    saved = 0
    for _ in range(500):
        f = random_formula(rng)
        text = minimal(f)
        assert alpha_equal(parse_formula(text), f), text
        saved += len(str(f)) - len(text)
    assert minimal(parse_formula("(x = 0 /\\ y = 0) \\/ ~(forall a . a = x) -> x = 0")) \
        == "x = 0 /\\ y = 0 \\/ ~(forall a . a = x) -> x = 0"
    assert saved > 500 * 4


def test_quantifier_body_extends_right():
    f = parse_formula("exists y. y = 0 /\\ y = x")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_parenthesized_term_vs_formula():
    assert same(parse_formula("(x + 1) * y = 0"),
                Eq(Mul(Add(x, Lit(1)), y), Lit(0)))
    f = parse_formula("(x = 0)")
    assert same(f, Eq(x, Lit(0)))


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
        assert same(parse_bool(str(g)), g), str(g)
        p = parse_program(f"if {g} then x := 0 else x := 1 fi")
        q = parse_program(f"while {g} do x := 0 od")
        assert same(p.guard, g) and same(q.guard, g), str(g)


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


# every symbol alone, then run together (longest first: `<->` before `->`
# before `<`, `:=` before `:`), numbers against identifiers, a comment
# holding what would be tokens and an error, and each kind of blank
TOKEN_TEXT = ("<-> -> := /\\ \\/ < = ~ + * ( ) . ; { } : ,\n"
              "<->->:=:<<->\\//\\ 3x x'3 _0 # @ <->\n\t\r12#end")
TOKENS = [
    ("<->", 0, 3), ("->", 4, 6), (":=", 7, 9), ("/\\", 10, 12),
    ("\\/", 13, 15), ("<", 16, 17), ("=", 18, 19), ("~", 20, 21),
    ("+", 22, 23), ("*", 24, 25), ("(", 26, 27), (")", 28, 29),
    (".", 30, 31), (";", 32, 33), ("{", 34, 35), ("}", 36, 37),
    (":", 38, 39), (",", 40, 41),
    ("<->", 42, 45), ("->", 45, 47), (":=", 47, 49), (":", 49, 50),
    ("<", 50, 51), ("<->", 51, 54), ("\\/", 54, 56), ("/\\", 56, 58),
    ("num", "3", 59, 60), ("ident", "x", 60, 61), ("ident", "x'3", 62, 65),
    ("ident", "_0", 66, 68), ("num", "12", 79, 81), ("eof", "", 85, 85)]


def test_tokenize_pinned():
    # a symbol's kind is its text
    want = [t if len(t) == 4 else (t[0], *t) for t in TOKENS]
    assert tokenize(TOKEN_TEXT) == want


def test_numeral_past_the_int_digit_limit_round_trips():
    # str(int) and int(str) refuse more than sys.int_info's default 4,300
    # digits; the printer and the parser take such a numeral all the same
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    big = int("7" * 20000)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        f = Lt(x, Add(Lit(big), y))
        text = str(f)
        assert text == "x < (" + "7" * 20000 + " + y)"
        assert alpha_equal(parse_formula(text), f)
    finally:
        sys.set_int_max_str_digits(old)


def test_tokenize_unknown_char():
    # (text, the character refused, its span): a lone half of a symbol,
    # a character after a comment, a non-ASCII letter and a blank that
    # is not one of the four the lexer skips
    for text, char, span in [
            ("x @ y", "@", (2, 3)), ("a - b", "-", (2, 3)),
            ("<-", "-", (1, 2)), ("/\\/", "/", (2, 3)),
            ("x # @\n$", "$", (6, 7)), ("\u00e9", "\u00e9", (0, 1)),
            ("x\x0by", "\x0b", (1, 2))]:
        with pytest.raises(ParseError) as e:
            tokenize(text)
        assert (e.value.message, e.value.span) == (
            f"unexpected character {char!r}", SourceSpan(*span)), text


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


@pytest.mark.parametrize("text,message,span", SCHEMA_ERRORS,
                         ids=[t or "empty" for t, _, _ in SCHEMA_ERRORS])
def test_schema_parse_error_pinned(text, message, span):
    with pytest.raises(ParseError) as e:
        parse_schema(text)
    assert (e.value.message, e.value.span) == (message, SourceSpan(*span))


@pytest.mark.parametrize("text,message,span", OPERATOR_ERRORS,
                         ids=[t for t, _, _ in OPERATOR_ERRORS])
def test_dangling_operator_error_pinned(text, message, span):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.message, e.value.span) == (message, SourceSpan(*span))


# (parser, text, message, (start, end)): a constant where a term is
# wanted, a term where a formula is, and a statement that is no statement
SORT_ERRORS = [
    (parse_formula, "x = true", "keyword 'true' is not a term", (4, 8)),
    (parse_formula, "x /\\ y = 1", "expected '=' or '<' after a term", (2, 4)),
    (parse_formula, "x + y", "expected '=' or '<' after a term", (5, 5)),
    (parse_formula, "~ x", "expected '=' or '<' after a term", (3, 3)),
    (parse_program, "x := 1; 3", "expected a statement, found '3'", (8, 9)),
    (parse_program, "fi := 1", "expected a statement, found 'fi'", (0, 2)),
]


@pytest.mark.parametrize("parse,text,message,span", SORT_ERRORS,
                         ids=[t for _, t, _, _ in SORT_ERRORS])
def test_sort_and_statement_error_pinned(parse, text, message, span):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.span) == (message, SourceSpan(*span))


def test_schema_round_trip():
    for src in ["pr(proj(1,1); cn(pr(const(0,0); proj(1,2)); proj(3,3)))",
                "mn(cn(add; proj(1,2), proj(2,2)))", "const(3,1)", "add"]:
        s = parse_schema(src)
        assert parse_schema(format_schema(s)) == s
    # every constructor of the schema table, and a cn with no inner
    # functions, alone and nested
    empty = Cn(Const(3, 0), ())
    schemas = [Const(3, 1), Proj(2, 3), AddF(), MulF(),
               Cn(AddF(), (Proj(1, 2), Proj(2, 2))), empty,
               Pr(empty, Proj(2, 2)), Mn(Proj(1, 1))]
    assert {type(h) for h in schemas} == set(SCHEMAS)
    assert format_schema(empty) == "cn(const(3,0); )"
    for h in schemas:
        assert parse_schema(format_schema(h)) == h


def test_triple_syntax():
    t = parse_triple("{true} x := 1 {x = 1}")
    assert same(t.pre, parse_formula("true"))
    assert same(t.prog, parse_program("x := 1"))


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
    assert same(parse_proof(format_proof(pf)), pf)


def test_proof_unknown_rule():
    with pytest.raises(ParseError):
        parse_proof("frob { conclusion: {true} x := 0 {true} }")


def test_formula_round_trip_500_random():
    rng = random.Random(11)
    for _ in range(500):
        f = random_formula(rng)
        g = parse_formula(format_formula(f))
        assert same(f, g), format_formula(f)


def test_program_round_trip_500_random():
    rng = random.Random(12)
    for _ in range(500):
        p = random_program(rng)
        q = parse_program(format_program(p))
        assert same(p, q), format_program(p)


def test_deep_chains_print():
    # the printer walks by an explicit stack: conj nests to the right, the
    # parser's `/\` chains to the left, and so may a `;` chain built by hand
    eq = Eq(x, Lit(1))
    right = conj([eq] * 20000)
    assert str(right) == "(x = 1 /\\ " * 19999 + "x = 1" + ")" * 19999
    left = functools.reduce(And, [eq] * 20000)
    assert str(left) == "(" * 19999 + "x = 1" + " /\\ x = 1)" * 19999
    seq = functools.reduce(Seq, [Assign(y, Add(y, Lit(1)))] * 3000)
    assert str(seq) == "; ".join(["y := (y + 1)"] * 3000)


def test_deep_term_reads_back():
    # the printer parenthesises every sum, and the parser keeps each open
    # `(` as a frame on its stack
    f = Eq(functools.reduce(Add, [Lit(1)] * 300), x)
    text = str(f)
    assert text.startswith("(" * 299 + "1 + 1)")
    g = parse_formula(text)
    assert same(g, f)


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


def test_deep_proof_prints_and_reads_back():
    # format_proof walks by a stack, as the parser and the checker do.  The
    # texts are compared, as `same` recurses once per rule
    pf = AssignAxiom(parse_triple("{0 = 0} x := 0 {x = 0}"))
    for _ in range(1000):
        pf = ConseqRule(pf, pf.conclusion)
    text = format_proof(pf)
    assert text.startswith("conseq {\n  inner: conseq {\n    inner: ")
    assert format_proof(parse_proof(text)) == text


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
    assert same(parse_proof(text), pf)
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
