"""Text input for polynomials and operators, with located errors.

Grammar (whitespace free between tokens):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*' factor) | ('/' integer))*
    factor := atom ('^' integer)?
    atom   := integer | name | '(' expr ')'

Integers are ASCII digits, no longer than Python converts from text
(``sys.get_int_max_str_digits()``), and parentheses nest at most
``MAX_DEPTH`` deep, so a malformed text raises ParseError, not
ValueError or RecursionError.  Multiplication is explicit.  In operator rings the
factor order is kept, so "dx*x" builds the composition with the
commutation applied.  Division is only by integer literals (rational
scalars).  Printing of Poly and WeylOp values round-trips through this
parser.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, digit_limit
from .poly import Poly, PolyRing
from .weyl import WeylOp, WeylRing

_OPS = set("+-*/^()")
_DIGITS = set("0123456789")
# a level of parentheses takes four frames (expr, term, factor, atom), so
# this depth stays well inside Python's default recursion limit of 1000
MAX_DEPTH = 100


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                # ASCII digits fail only past Python's int/str digit limit
                raise ParseError(digit_limit("an integer literal"), line, col) from None
            tokens.append(_Token("int", value, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line=line, col=col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    """Evaluates the expression directly into ring values."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (kind, tok.value if tok.value is not None else "end of input"),
                line=tok.line,
                col=tok.col,
            )
        self.pos += 1
        return tok

    def _const(self, q):
        return self.ring.const(Fraction(q))

    def _var(self, tok):
        try:
            return self.ring.var(tok.value)
        except (KeyError, ValueError):
            raise ParseError(
                "unknown variable %r (ring has %s)"
                % (tok.value, ", ".join(self.ring.names)),
                line=tok.line,
                col=tok.col,
            ) from None

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                "unexpected trailing input %r" % tok.value, line=tok.line, col=tok.col
            )
        return value

    def expr(self):
        tok = self.peek()
        negate = False
        if tok.kind in ("+", "-"):
            self.take()
            negate = tok.kind == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            if op == "/":
                tok = self.take("int")
                if tok.value == 0:
                    raise ParseError("division by zero", line=tok.line, col=tok.col)
                value = value * self._const(Fraction(1, tok.value))
            else:
                value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.take("int")
            value = value ** tok.value
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return self._const(tok.value)
        if tok.kind == "name":
            self.take()
            return self._var(tok)
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_DEPTH,
                    line=tok.line,
                    col=tok.col,
                )
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ParseError(
            "expected a value, found %r"
            % (tok.value if tok.value is not None else "end of input"),
            line=tok.line,
            col=tok.col,
        )


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse a commutative polynomial over the given ring."""
    return _Parser(_tokenize(text), ring).parse()


def parse_op(text: str, ring: WeylRing) -> WeylOp:
    """Parse an operator; products keep the written factor order."""
    return _Parser(_tokenize(text), ring).parse()
