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

An expression is summed into one term map in place.  A term folds its
integers, divisors, names and powers into one exponent vector and one
coefficient while its names stay in normal order (each name's position
in the ring at least the previous one's, or any order in a ring without
pairs): written so, the product is that single monomial, which is how
every printed term reads.  From the first factor that breaks the order
or is parenthesized on, the term is evaluated by ring products.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, digit_limit
from .poly import Poly, PolyRing
from .weyl import WeylOp, WeylRing

_OPS = frozenset("+-*/^()")
# whitespace, then ASCII digits, a word (a name when it starts with a
# letter or '_'), or one other character
_TOKEN = re.compile(r"(\s*)(?:([0-9]+)|(\w+)|(\S))")
# a level of parentheses takes five frames (expr, term, _products, factor,
# atom), so this depth stays well inside Python's default recursion limit
# of 1000
MAX_DEPTH = 100


def _where(text, pos):
    """(line, column) of offset pos in text, both from 1."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str):
    """Tokens (kind, value, offset); the last is ("end", None, len(text))."""
    tokens = []
    pos = 0
    # every character but trailing whitespace is in some match, so the
    # matches run contiguously and their lengths give the offsets
    for space, digits, word, other in _TOKEN.findall(text):
        pos += len(space)
        if digits:
            try:
                value = int(digits)
            except ValueError:
                # ASCII digits fail only past Python's int/str digit limit
                raise ParseError(digit_limit("an integer literal"), *_where(text, pos)) from None
            tokens.append(("int", value, pos))
            pos += len(digits)
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("name", word, pos))
            pos += len(word)
        elif other in _OPS:
            tokens.append((other, other, pos))
            pos += 1
        else:
            ch = other or word[0]
            raise ParseError("unexpected character %r" % ch, *_where(text, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Evaluates the expression directly into ring values."""

    def __init__(self, text, ring):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.depth = 0
        self.any_order = not (ring.pairs or ring.shift_pairs)

    def error(self, message, tok):
        return ParseError(message, *_where(self.text, tok[2]))

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            found = tok[1] if tok[1] is not None else "end of input"
            raise self.error("expected %s, found %r" % (kind, found), tok)
        self.pos += 1
        return tok

    def _const(self, q):
        return self.ring.const(Fraction(q))

    def _index(self, tok):
        i = self.ring._index.get(tok[1])
        if i is None:
            raise self.error(
                "unknown variable %r (ring has %s)" % (tok[1], ", ".join(self.ring.names)),
                tok,
            )
        return i

    def _power(self):
        """The exponent of an optional '^' integer, 1 without one."""
        if self.tokens[self.pos][0] != "^":
            return 1
        self.pos += 1
        return self.take("int")[1]

    def _divisor(self):
        tok = self.take("int")
        if tok[1] == 0:
            raise self.error("division by zero", tok)
        return tok[1]

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise self.error("unexpected trailing input %r" % tok[1], tok)
        return value

    def expr(self):
        acc = {}
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        self.term(acc, sign)
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            self.term(acc, sign)
        return self.ring._elem(self.ring, acc)

    def term(self, acc, sign):
        """Add sign times the next term into the term map acc."""
        tokens = self.tokens
        exp = [0] * self.ring.nvars
        num, den, last = sign, 1, -1
        value = None
        while True:
            tok = tokens[self.pos]
            kind = tok[0]
            if kind == "int":
                self.pos += 1
                num *= tok[1] ** self._power()
            elif kind == "name":
                i = self._index(tok)
                if i < last and not self.any_order:
                    value = self._products(exp, num, den)
                    break
                self.pos += 1
                exp[i] += self._power()
                last = i
            else:
                value = self._products(exp, num, den)
                break
            while tokens[self.pos][0] == "/":
                self.pos += 1
                den *= self._divisor()
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if value is None:
            if num:
                _add_term(acc, tuple(exp), Fraction(num, den))
            return
        for e, c in value._terms.items():
            _add_term(acc, e, c)

    def _products(self, exp, num, den):
        """The rest of a term by ring products, from its folded part."""
        value = self.ring.monomial(exp, Fraction(num, den))
        while True:
            value = value * self.factor()
            while self.peek()[0] == "/":
                self.take()
                value = value * self._const(Fraction(1, self._divisor()))
            if self.peek()[0] != "*":
                return value
            self.take()

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            value = value ** self.take("int")[1]
        return value

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return self._const(tok[1])
        if tok[0] == "name":
            i = self._index(tok)
            self.take()
            return self.ring.var(i)
        if tok[0] == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise self.error("parentheses nested deeper than %d" % MAX_DEPTH, tok)
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        found = tok[1] if tok[1] is not None else "end of input"
        raise self.error("expected a value, found %r" % found, tok)


def _add_term(acc, e, c):
    """acc[e] += c in place, dropping a sum that cancels."""
    prev = acc.get(e)
    if prev is not None:
        c = prev + c
        if not c:
            del acc[e]
            return
    acc[e] = c


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse a commutative polynomial over the given ring."""
    return _Parser(text, ring).parse()


def parse_op(text: str, ring: WeylRing) -> WeylOp:
    """Parse an operator; products keep the written factor order."""
    return _Parser(text, ring).parse()
