"""Concrete syntax: lexer, parsers, and printers.

Grammar (operators listed loosest-first):
    terms      t ::= 0 | 1 | DECIMAL | IDENT | t + t | t * t | ( t )
    formulas   f ::= f <-> f | f -> f | f \\/ f | f /\\ f | ~f
                   | t = t | t < t | true | false
                   | forall IDENT [< t] . f | exists IDENT [< t] . f | ( f )
               (the eight binary operators are one table, `_BINARY`: <->
               and -> nest to the right, = and < not at all, the rest to
               the left; ~ binds between /\\ and =, and quantifier bodies
               extend maximally to the right.  One loop reads it all by a
               stack, so (, ~ and quantifiers nest to any depth)
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

Identifiers may carry trailing primes (y', x''); an IDENT is a
`terms.IDENT` other than the `terms.KEYWORDS`.  `#` starts a comment to
end of line.  All parse errors carry a SourceSpan of byte offsets.

One printer, format_formula, which format_program names too, writes
every term, formula, guard and program, and is what str and repr of a
node return.  It reads one template per node class, those of the binary
operators built from `_BINARY`, and walks the tree by an explicit stack.
"""

import functools
import re
from decimal import Decimal
from dataclasses import dataclass
from operator import attrgetter

from .terms import (Add, And, BExists, BForall, Eq, Exists, FalseC, Forall,
                    IDENT, Iff, Implies, KEYWORDS, Lit, Lt, Mul, Not, Or,
                    Term, TrueC, Var)
from .whilelang import Assign, If, Seq, While, is_guard, seq
from .alpha import HoareTriple
from .proofs import RULES


_RULE_NAMED = {kw: ctor for ctor, (kw, _) in RULES.items()}

# the binary operators, loosest first: (symbol, node class, level, nests
# to the right).  The first four levels join formulas, the rest terms; `=`
# and `<` share one, and a second ends their chain, as its left is a formula
_BINARY = (("<->", Iff, 0, True), ("->", Implies, 1, True),
           ("\\/", Or, 2, False), ("/\\", And, 3, False),
           ("=", Eq, 4, False), ("<", Lt, 4, False),
           ("+", Add, 5, False), ("*", Mul, 6, False))
_OPERATOR = {sym: rest for sym, *rest in _BINARY}
_COMPARE = _OPERATOR["="][1]  # the first level that joins terms
# each quantifier's class without a bound and with one
_QUANTIFIER = {"forall": (Forall, BForall), "exists": (Exists, BExists)}
_CONSTANT = {"true": TrueC, "false": FalseC}


@functools.cache
def _schema_words():
    """Each schema word: what builds it and the types of the arguments it
    is written with.  A constructor's are those of the fields xrec.SCHEMAS
    lists; a library name takes none, `cases` a list of branches and the
    other combinators one schema.  Built on first use, so that only a
    program that reads or prints schemas imports xrec."""
    from . import xrec
    return {
        **{kw: (ctor, tuple(ctor.__annotations__[n] for n in names))
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


# longest first: `<->` before `->` before `<`, and `:=` before `:`
_SYMBOLS = ["<->", "->", ":=", "/\\", "\\/",
            "<", "=", "~", "+", "*", "(", ")", ".", ";", "{", "}", ":", ","]
# one alternative per token class, tried in order at each position;
# blanks and comments match no group, and any other character is `bad`
_TOKEN = re.compile("|".join((
    r"[ \t\r\n]+", r"#[^\n]*", r"(?P<num>[0-9]+)",
    f"(?P<ident>{IDENT})",
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<bad>.)")), re.DOTALL)


def tokenize(text):
    """text's tokens as (kind, text, start, end) tuples, the last of kind
    eof; a symbol's kind is its text.  A SourceSpan is built only for an
    error, from a token's start and end."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        s = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}",
                             SourceSpan(*m.span()))
        toks.append((s if kind == "symbol" else kind, s, *m.span()))
    n = len(text)
    toks.append(("eof", "", n, n))
    return toks


def _span(tok):
    return SourceSpan(tok[2], tok[3])


def _numeral(text):
    # int() refuses a numeral past sys.get_int_max_str_digits(); Decimal
    # converts exactly at any length
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


class _Parser:
    def __init__(self, text):
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
        return t[0] == kind and (text is None or t[1] == text)

    def expect(self, kind, text=None):
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t[1] or 'end of input'!r}",
                             _span(t))
        return self.next()

    def fail(self, msg):
        raise ParseError(msg, _span(self.peek()))

    def done(self):
        t = self.peek()
        if t[0] != "eof":
            raise ParseError(f"trailing input {t[1]!r}", _span(t))

    def listed(self, item, sep):
        out = [item()]
        while self.at(sep):
            self.next()
            out.append(item())
        return out

    # -- terms and formulas ---------------------------------------------

    def expression(self, term):
        """A term if term, else a formula, read by one loop over `_BINARY`
        without backtracking.  What waits for an operand is a frame on a
        stack (shunting-yard, Dijkstra 1961): a `(`, a `~`, a quantifier
        head, or an operator with its left operand, as (keep, node class,
        arguments, wants a term).  An operator of a level below keep closes
        it, and a group's end, level -1, all down to its `(`, which holds
        the outer group's sort.  An operator applies only when its left
        operand has the sort it joins."""
        stack = [(-1, None, None, term)]
        group = want = term  # the sorts of the innermost group, next operand
        while True:
            t = self.toks[self.pos]
            kind, text = t[0], t[1]
            self.pos += 1
            if kind == "(":
                stack.append((-1, None, None, group))
                group = want
                continue
            if not want and kind == "~":
                stack.append((_COMPARE, Not, (), False))
                continue
            if not want and kind == "ident" and text in _QUANTIFIER:
                stack.append(self.quantifier(t))
                continue
            if kind == "num":
                value = Lit(_numeral(text))
            elif kind != "ident":
                raise ParseError("expected a term, found "
                                 f"{text or 'end of input'!r}", _span(t))
            elif text not in KEYWORDS:
                value = Var(text)
            elif want or text not in _CONSTANT:
                raise ParseError(f"keyword {text!r} is not a term", _span(t))
            else:
                value = _CONSTANT[text]()
            # operators, and the `)`s that close groups
            while True:
                op = _OPERATOR.get(self.toks[self.pos][0])
                if op is not None and (op[1] > _COMPARE or not group):
                    ctor, level, right = op
                    value = self.close(stack, level, value)
                    want = level >= _COMPARE
                    if isinstance(value, Term) == want:
                        self.pos += 1
                        stack.append((level if right else level + 1, ctor,
                                      (value,), want))
                        break
                    if not want:  # a term before a formulas' operator
                        self.fail("expected '=' or '<' after a term")
                # the group ends, as at a formula before a terms' operator
                value = self.close(stack, -1, value)
                if len(stack) == 1:
                    if not term and isinstance(value, Term):
                        self.fail("expected '=' or '<' after a term")
                    return value
                self.expect(")")
                group = stack.pop()[3]

    term = functools.partialmethod(expression, True)
    formula = functools.partialmethod(expression, False)

    def close(self, stack, level, value):
        """value as the operand of each top frame that level closes."""
        while stack[-1][0] > level:
            _, ctor, args, term = stack.pop()
            if isinstance(value, Term) != term:
                self.fail("expected '=' or '<' after a term")
            value = ctor(*args, value)
        return value

    def quantifier(self, word):
        """A quantifier's head, after its word token, as its body's frame."""
        name = self.expect("ident")
        # Var refuses a keyword, which is reported at its span
        head = (self._mk(Var, name, name[1]),)
        if self.at("<"):
            self.next()
            head += (self.term(),)
        ctor = _QUANTIFIER[word[1]][len(head) - 1]
        self._mk(ctor, word, *head, TrueC())  # a bad bound, at the word
        self.expect(".")
        return (0, ctor, head, False)

    # -- guards -------------------------------------------------------

    def guard(self):
        start = self.peek()[2]
        g = self.formula()
        if not is_guard(g):
            raise ParseError(
                "a guard is built from '<', '~' and '->' only",
                SourceSpan(start, self.toks[self.pos - 1][3]))
        return g

    # -- programs -------------------------------------------------------

    def program(self):
        return seq(self.listed(self.statement, ";"))

    def statement(self):
        if self.at("ident", "if"):
            self.next()
            guard = self.guard()
            self.expect("ident", "then")
            then = self.program()
            self.expect("ident", "else")
            els = self.program()
            self.expect("ident", "fi")
            return If(guard, then, els)
        if self.at("ident", "while"):
            self.next()
            guard = self.guard()
            self.expect("ident", "do")
            body = self.program()
            self.expect("ident", "od")
            return While(guard, body)
        t = self.peek()
        if t[0] == "ident" and t[1] not in KEYWORDS:
            self.next()
            self.expect(":=")
            return Assign(Var(t[1]), self.term())
        self.fail(f"expected a statement, found {t[1] or 'end of input'!r}")

    # -- schemas --------------------------------------------------------

    def schema(self):
        t = self.expect("ident")
        words = _schema_words()
        if t[1] not in words:
            raise ParseError(f"unknown schema constructor {t[1]!r}", _span(t))
        ctor, types = words[t[1]]
        args = []
        for k, kind in enumerate(types):
            self.expect("(" if k == 0 else "," if kind is int else ";")
            # the inner functions of a cn are none when its f takes no
            # arguments, as in `cn(const(3,0); )`, and else at least one
            args.append(int(self.expect("num")[1]) if kind is int
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
            raise ParseError(str(e), _span(tok))

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
        """A proof, read by an explicit stack of (rule, arguments read,
        labels left) frames, as proofs nest thousands deep: each step reads
        a rule's head, a field or a `}`, then the next label of the top."""
        stack, label = [], "proof"
        while True:
            if label is None:
                self.expect("}")
                ctor, args, _ = stack.pop()
                if not stack:
                    return ctor(*args)
                stack[-1][1].append(ctor(*args))
            elif label in ("invariant", "conclusion"):
                # an invariant ends where the next label begins; formulas
                # never contain 'body', so parsing it greedily is safe
                stack[-1][1].append(self.formula() if label == "invariant"
                                    else self.triple())
            else:
                t = self.expect("ident")
                self.expect("{")
                ctor = _RULE_NAMED.get(t[1])
                if ctor is None:
                    raise ParseError(f"unknown proof rule {t[1]!r}", _span(t))
                stack.append((ctor, [], iter(RULES[ctor][1] + ("conclusion",))))
            label = next(stack[-1][2], None)
            if label is not None:
                self.expect("ident", label)
                self.expect(":")


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
# printed.  Each quantifier and binary node but a comparison is
# parenthesised and each `~` wraps its body, so the parser reads the text
# back without precedence, and a `;` chain prints flat however it nests
_TEMPLATES = {
    Var: "{name}", Lit: "{n}",
    TrueC: "true", FalseC: "false", Not: "~({body})",
    **{ctor: (f"{{left}} {sym} {{right}}" if level == _COMPARE
              else f"({{left}} {sym} {{right}})")
       for sym, ctor, level, _ in _BINARY},
    Forall: "(forall {var} . {body})", Exists: "(exists {var} . {body})",
    BForall: "(forall {var} < {bound} . {body})",
    BExists: "(exists {var} < {bound} . {body})",
    Assign: "{var} := {expr}", Seq: "{first}; {second}",
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
            try:
                out.append(str(n))
            except ValueError:  # an int past the digit limit
                out.append(str(Decimal(n)))
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


def format_proof(p):
    """The text of a proof, which parse_proof reads back, each premise
    indented one level deeper.  The proof is walked by an explicit stack
    of nodes and strings, as proofs nest thousands deep."""
    out, todo = [], [(p, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, depth = item
        if type(node) not in RULES:
            raise TypeError(f"not a proof node: {node!r}")
        pad = "  " * depth
        kw, labels = RULES[type(node)]
        conclusion = f"conclusion: {format_triple(node.conclusion)}"
        if not labels:
            out.append(f"{kw} {{ {conclusion} }}")
            continue
        out.append(f"{kw} {{")
        todo.append(f"\n{pad}  {conclusion}\n{pad}}}")
        for label, field in reversed(list(zip(labels, node.__match_args__))):
            v = getattr(node, field)
            todo += (str(v) if label == "invariant" else (v, depth + 1),
                     f"\n{pad}  {label}: ")
    return "".join(out)
