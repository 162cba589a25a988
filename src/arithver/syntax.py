"""Concrete syntax: lexer, recursive-descent parsers, and printers.

Grammar (operators listed loosest-first):
    terms      t ::= 0 | 1 | DECIMAL | IDENT | t + t | t * t | ( t )
               (+ and * left-associative; * binds tighter)
    formulas   f ::= f <-> f | f -> f | f \\/ f | f /\\ f | ~f
                   | t = t | t < t | true | false
                   | forall IDENT [< t] . f | exists IDENT [< t] . f | ( f )
               (-> and <-> right-associative; quantifier bodies extend
               maximally to the right; the six binary operators of terms
               and formulas are one table, `_BINARY`, of symbol, node
               class and associativity, which one precedence loop reads)
    guards     b ::= f   built from t < t, ~ and -> only
               (read as a formula, then its shape is checked)
    programs   S ::= IDENT := t | S ; S | if b then S else S fi
                   | while b do S od          (; right-associative)
    schemas    const(m,n) | proj(i,n) | add | mul | cn(f; g1,...,gm)
                   | pr(f; g) | mn(f) | STDLIB-NAME
                   | sum_of(f) | prod_of(f) | bforall(f) | bexists(f)
                   | cases(c1,g1; c2,g2; ...)
               (each constructor's keyword and fields come from
               `xrec.SCHEMAS`, the table the printer reads too; numbers
               are separated by ',', schemas by ';'; m is the arity of f,
               so cn(f; ) when f takes no arguments)
    proofs     assign { conclusion: T }
                   | seq { left: P right: P conclusion: T }
                   | cond { then: P else: P conclusion: T }
                   | loop { invariant: f body: P conclusion: T }
                   | conseq { inner: P conclusion: T }
               with triples T ::= { f } S { f }
               (each rule's keyword and premise labels come from
               `proofs.RULES`, the table the printer and the checker
               read too; the checker lists each rule's conditions once)

Identifiers may carry trailing primes (y', x'').  `#` starts a comment to
end of line.  All parse errors carry a SourceSpan of byte offsets.

One printer, format_formula, which format_program names too, writes
every term, formula, guard and program, and is what str of a node
returns.  It reads one template per node class, those of the binary
operators built from `_BINARY`, and walks the tree by an explicit stack.
"""

import functools
import re
from dataclasses import dataclass, fields
from operator import attrgetter

from .terms import (Add, And, BExists, BForall, Eq, Exists, FalseC, Forall,
                    Iff, Implies, Lit, Lt, Mul, Not, One, Or, TrueC, Var, Zero)
from .whilelang import Assign, If, Seq as SeqP, While, is_guard
from .alpha import HoareTriple
from .proofs import RULES


_RULE_NAMED = {kw: ctor for ctor, (kw, _) in RULES.items()}

# the binary operators, loosest first: (symbol, node class, nests to the
# right).  The first four join formulas, the last two terms
_BINARY = (("<->", Iff, True), ("->", Implies, True), ("\\/", Or, False),
           ("/\\", And, False), ("+", Add, False), ("*", Mul, False))
_LEVEL = {sym: k for k, (sym, _, _) in enumerate(_BINARY)}
_TERMS = _LEVEL["+"]  # the first level that joins terms


def _field_types(ctor, names):
    types = {f.name: f.type for f in fields(ctor)}
    return tuple(types[name] for name in names)


@functools.cache
def _schema_words():
    """Each schema word: what builds it and the types of the arguments it
    is written with.  A constructor's are those of the fields xrec.SCHEMAS
    lists; a library name takes none, `cases` a list of branches and the
    other combinators one schema.  Built on first use, so that only a
    program that reads or prints schemas imports xrec."""
    from . import xrec
    return {
        **{kw: (ctor, _field_types(ctor, names))
           for ctor, (kw, names) in xrec.SCHEMAS.items()},
        **{name: (ctor, ()) for name, ctor in xrec.STDLIB.items()},
        **{name: (ctor, (list,) if name == "cases" else (xrec.XRecSchema,))
           for name, ctor in xrec.STDLIB_COMBINATORS.items()}}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


class ParseError(Exception):
    def __init__(self, message, span):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


# longest first: `<->` before `->` before `<`, and `:=` before `:`
_SYMBOLS = ["<->", "->", ":=", "/\\", "\\/",
            "<", "=", "~", "+", "*", "(", ")", ".", ";", "{", "}", ":", ","]
# one alternative per token class, tried in order at each position;
# blanks and comments match no group, and any other character is `bad`
_TOKEN = re.compile("|".join((
    r"[ \t\r\n]+", r"#[^\n]*", r"(?P<num>[0-9]+)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)",
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<bad>.)")), re.DOTALL)


def tokenize(text):
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        start, end = m.span()
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             SourceSpan(start, end))
        s = m.group()
        toks.append(Token(s if kind == "symbol" else kind, s,
                          SourceSpan(start, end)))
    n = len(text)
    toks.append(Token("eof", "", SourceSpan(n, n)))
    return toks


_KEYWORDS = {"true", "false", "forall", "exists", "if", "then", "else", "fi",
             "while", "do", "od"}


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, text=None):
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def at_word(self, word):
        return self.at("ident", word)

    def expect(self, kind, text=None):
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or 'end of input'!r}",
                             t.span)
        return self.next()

    def expect_word(self, word):
        return self.expect("ident", word)

    def fail(self, msg):
        raise ParseError(msg, self.peek().span)

    def done(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.span)

    def listed(self, item, sep):
        out = [item()]
        while self.at(sep):
            self.next()
            out.append(item())
        return out

    # -- binary operators -----------------------------------------------

    def term(self):
        return self.binary(_TERMS, len(_BINARY))

    def formula(self):
        return self.binary(0, _TERMS)

    def binary(self, lo, hi):
        """A chain of the operators of levels lo to hi - 1 of `_BINARY`, by
        precedence climbing: an operator's right operand is read from its
        own level if it nests to the right, else from the next one."""
        left = self.formula_unary() if hi == _TERMS else self.term_atom()
        while True:
            k = _LEVEL.get(self.toks[self.pos].kind)
            if k is None or not lo <= k < hi:
                return left
            self.pos += 1
            _, ctor, right = _BINARY[k]
            left = ctor(left, self.binary(k if right else k + 1, hi))

    # -- terms ----------------------------------------------------------

    def term_atom(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Lit(int(t.text))
        if t.kind == "ident":
            if t.text in _KEYWORDS:
                self.fail(f"keyword {t.text!r} is not a term")
            self.next()
            return Var(t.text)
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    # -- formulas -------------------------------------------------------

    def formula_unary(self):
        # a run of `~` by a loop: chains run thousands long
        nots = 0
        while self.at("~"):
            self.next()
            nots += 1
        if self.at_word("forall") or self.at_word("exists"):
            f = self.quantifier()
        else:
            f = self.formula_atom()
        for _ in range(nots):
            f = Not(f)
        return f

    def quantifier(self):
        kw = self.next().text
        v = Var(self.expect("ident").text)
        bound = None
        if self.at("<"):
            self.next()
            bound = self.term()
        self.expect(".")
        body = self.formula()
        if kw == "forall":
            return BForall(v, bound, body) if bound is not None else Forall(v, body)
        return BExists(v, bound, body) if bound is not None else Exists(v, body)

    def formula_atom(self):
        if self.at_word("true"):
            self.next()
            return TrueC()
        if self.at_word("false"):
            self.next()
            return FalseC()
        if self.at("("):
            # either a parenthesized formula or a parenthesized term
            mark = self.pos
            try:
                self.next()
                inner = self.formula()
                self.expect(")")
            except ParseError:
                self.pos = mark
            else:
                if self.at("=") or self.at("<") or self.at("+") or self.at("*"):
                    self.pos = mark  # it was a term after all
                else:
                    return inner
        left = self.term()
        if self.at("="):
            self.next()
            return Eq(left, self.term())
        if self.at("<"):
            self.next()
            return Lt(left, self.term())
        self.fail("expected '=' or '<' after a term")

    # -- guards -------------------------------------------------------

    def guard(self):
        start = self.peek().span.start
        g = self.formula()
        if not is_guard(g):
            raise ParseError(
                "a guard is built from '<', '~' and '->' only",
                SourceSpan(start, self.toks[self.pos - 1].span.end))
        return g

    # -- programs -------------------------------------------------------

    def program(self):
        # read iteratively, nested to the right
        stmts = self.listed(self.statement, ";")
        out = stmts.pop()
        for s in reversed(stmts):
            out = SeqP(s, out)
        return out

    def statement(self):
        if self.at_word("if"):
            self.next()
            guard = self.guard()
            self.expect_word("then")
            then = self.program()
            self.expect_word("else")
            els = self.program()
            self.expect_word("fi")
            return If(guard, then, els)
        if self.at_word("while"):
            self.next()
            guard = self.guard()
            self.expect_word("do")
            body = self.program()
            self.expect_word("od")
            return While(guard, body)
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            self.expect(":=")
            return Assign(Var(t.text), self.term())
        self.fail(f"expected a statement, found {t.text or 'end of input'!r}")

    # -- schemas --------------------------------------------------------

    def schema(self):
        t = self.expect("ident")
        words = _schema_words()
        if t.text not in words:
            raise ParseError(f"unknown schema constructor {t.text!r}", t.span)
        ctor, types = words[t.text]
        args = []
        for k, kind in enumerate(types):
            self.expect("(" if k == 0 else "," if kind is int else ";")
            # the inner functions of a cn are none when its f takes no
            # arguments, as in `cn(const(3,0); )`, and else at least one
            args.append(int(self.expect("num").text) if kind is int
                        else () if kind is tuple and args[0].arity == 0
                        and self.at(")")
                        else self.listed(self.schema, ",") if kind is tuple
                        else self.listed(self.branch, ";") if kind is list
                        else self.schema())
        if types:
            self.expect(")")
        return self._mk(ctor, t, *args)

    def branch(self):
        c = self.schema()
        self.expect(",")
        return c, self.schema()

    def _mk(self, ctor, tok, *args):
        try:
            return ctor(*args)
        except ValueError as e:
            raise ParseError(str(e), tok.span)

    # -- proofs ---------------------------------------------------------

    def triple(self):
        self.expect("{")
        pre = self.formula()
        self.expect("}")
        prog = self.program()
        self.expect("{")
        post = self.formula()
        self.expect("}")
        return HoareTriple(pre, prog, post)

    def proof(self):
        t = self.expect("ident")
        self.expect("{")
        ctor = _RULE_NAMED.get(t.text)
        if ctor is None:
            raise ParseError(f"unknown proof rule {t.text!r}", t.span)
        args = []
        for label in RULES[ctor][1] + ("conclusion",):
            self.expect_word(label)
            self.expect(":")
            # an invariant ends where the next label begins; formulas never
            # contain 'body', so parsing it greedily is safe
            args.append(self.formula() if label == "invariant"
                        else self.triple() if label == "conclusion"
                        else self.proof())
        self.expect("}")
        return ctor(*args)


def _parse(text, production):
    p = _Parser(text)
    out = production(p)
    p.done()
    return out


def parse_term(text):
    return _parse(text, _Parser.term)


def parse_formula(text):
    return _parse(text, _Parser.formula)


def parse_bool(text):
    return _parse(text, _Parser.guard)


def parse_program(text):
    return _parse(text, _Parser.program)


def parse_schema(text):
    return _parse(text, _Parser.schema)


def parse_proof(text):
    return _parse(text, _Parser.proof)


def parse_triple(text):
    return _parse(text, _Parser.triple)


# -- printers ----------------------------------------------------------

# each node's text: literals, and its fields in braces where they are
# printed.  Every binary node and quantifier is parenthesised and each
# `~` wraps its body, so the parser reads the text back without any
# precedence, and a `;` chain prints flat however it nests
_TEMPLATES = {
    Var: "{name}", Lit: "{n}", Zero: "0", One: "1",
    TrueC: "true", FalseC: "false",
    Eq: "{left} = {right}", Lt: "{left} < {right}", Not: "~({body})",
    **{ctor: f"({{left}} {sym} {{right}})" for sym, ctor, _ in _BINARY},
    Forall: "(forall {var} . {body})", Exists: "(exists {var} . {body})",
    BForall: "(forall {var} < {bound} . {body})",
    BExists: "(exists {var} < {bound} . {body})",
    Assign: "{var} := {expr}", SeqP: "{first}; {second}",
    If: "if {guard} then {then} else {els} fi",
    While: "while {guard} do {body} od"}


def _layout(template):
    """A template's leading text and, last first, each field's getter with
    the text that follows the field."""
    parts = re.split(r"{(\w+)}", template)
    return parts[0], list(zip(map(attrgetter, parts[1::2]), parts[2::2]))[::-1]


_LAYOUT = {cls: _layout(template) for cls, template in _TEMPLATES.items()}


def format_formula(node):
    """The text of a term, formula, guard or program, which the parser
    reads back.  The node is walked by an explicit stack of nodes and
    strings, so chains thousands long print."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        layout = _LAYOUT.get(type(n))
        if layout is None:  # a text, a variable's name or a number
            out.append(str(n))
        else:
            text, fields = layout
            out.append(text)
            for get, after in fields:
                todo += (after, get(n))
    return "".join(out)


format_program = format_formula


def format_schema(h):
    from . import xrec
    if type(h) not in xrec.SCHEMAS:
        raise TypeError(f"not a schema: {h!r}")
    kw, names = xrec.SCHEMAS[type(h)]
    if not names:
        return kw
    parts = [getattr(h, name) for name in names]
    if type(parts[0]) is int:
        return f"{kw}({','.join(map(str, parts))})"
    return f"{kw}({'; '.join(_format_schemas(p) for p in parts)})"


def _format_schemas(p):
    return ", ".join(map(format_schema, p)) if type(p) is tuple else format_schema(p)


def format_triple(t):
    return f"{{{t.pre}}} {t.prog} {{{t.post}}}"


def format_proof(p, indent=0):
    if type(p) not in RULES:
        raise TypeError(f"not a proof node: {p!r}")
    pad = "  " * indent
    kw, labels = RULES[type(p)]
    conclusion = f"conclusion: {format_triple(p.conclusion)}"
    if not labels:
        return f"{pad}{kw} {{ {conclusion} }}"
    lines = [f"{pad}{kw} {{"]
    for label, field in zip(labels, fields(p)):
        v = getattr(p, field.name)
        text = str(v) if label == "invariant" else format_proof(v, indent + 1).lstrip()
        lines.append(f"{pad}  {label}: {text}")
    lines += [f"{pad}  {conclusion}", f"{pad}}}"]
    return "\n".join(lines)
