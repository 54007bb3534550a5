"""Exact multivariate polynomials over a pluggable coefficient field.

The two fields used in practice are the rationals (coefficients are
``fractions.Fraction``) and the residue fields Frac(Q[a]/Q) defined in
:mod:`genbs.parametric`.  Polynomials are immutable; a ring object carries
the variable names, the coefficient field and the ambient term order, and
all term bookkeeping is exact.  The Weyl algebra (:mod:`genbs.weyl`)
subclasses both the polynomial and the ring and changes only the product.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from .errors import MixedRingError, ZeroPolynomialError
from .orders import GRevLex, TermOrder, mono_mul


class RationalField:
    """The field of rationals; elements are ``fractions.Fraction``."""

    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_rational(self, q):
        return Fraction(q)

    def as_rational(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _check_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise MixedRingError("polynomials live in different rings")


class Poly:
    """Immutable sparse polynomial. Terms map exponent tuple -> coefficient.

    The term map is never mutated after construction: every operation
    builds a new dict.  The cached leading exponent and the cached sorted
    term list rely on that.  Results are built as ``type(self)``, so a
    subclass that changes only the product (:class:`genbs.weyl.WeylOp`)
    inherits everything else.
    """

    __slots__ = ("ring", "_terms", "_sorted", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms
        self._sorted = None
        self._lead = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self._terms)

    def const_value(self):
        """Coefficient of the constant term (the whole value if constant)."""
        if not self._terms:
            return self.ring.field.zero()
        return self._terms.get(self.ring._zero_exp, self.ring.field.zero())

    def terms(self):
        """Terms as (exponent, coefficient) pairs, descending in the ring order.

        Only printing and callers that walk every term need the sort; the
        leading term comes from :meth:`lead_exp` without one.
        """
        if self._sorted is None:
            terms = self._terms
            order = sorted(terms, key=self.ring.order.cached_key, reverse=True)
            self._sorted = [(exp, terms[exp]) for exp in order]
        return self._sorted

    def monomials(self):
        return [exp for exp, _ in self.terms()]

    def lead_exp(self):
        if self._lead is None:
            if not self._terms:
                raise ZeroPolynomialError("zero polynomial has no leading term")
            self._lead = max(self._terms, key=self.ring.order.cached_key)
        return self._lead

    def lead_coeff(self):
        return self._terms[self.lead_exp()]

    def coeff(self, exp):
        return self._terms.get(tuple(exp), self.ring.field.zero())

    def total_degree(self):
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def degree_in(self, var):
        i = self.ring.index(var) if isinstance(var, str) else var
        if not self._terms:
            return -1
        return max(exp[i] for exp in self._terms)

    def variables(self):
        """Indices of variables that actually occur."""
        used = set()
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return sorted(used)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            _check_same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.ring.field
        out = dict(self._terms)
        for exp, c in other._terms.items():
            acc = out.get(exp)
            c2 = c if acc is None else f.add(acc, c)
            if f.is_zero(c2):
                out.pop(exp, None)
            else:
                out[exp] = c2
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return type(self)(self.ring, {e: f.neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            _check_same_ring(self, other)
            f = self.ring.field
            out = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = mono_mul(e1, e2)
                    c = f.mul(c1, c2)
                    acc = out.get(e)
                    c3 = c if acc is None else f.add(acc, c)
                    if f.is_zero(c3):
                        out.pop(e, None)
                    else:
                        out[e] = c3
            return type(self)(self.ring, out)
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.from_rational(Fraction(other)))
        return NotImplemented

    __rmul__ = __mul__

    def sub_mul_term(self, c, m, g):
        """Return self - c*x^m*g, with c a field element and m an exponent.

        The reduction step of the Groebner engine and exact division use
        it in place of building the product as a polynomial.
        """
        _check_same_ring(self, g)
        f = self.ring.field
        return self._sub_terms({mono_mul(e, m): f.mul(c, v) for e, v in g._terms.items()})

    def _sub_terms(self, prod):
        """self minus the terms of ``prod``, a map exponent -> coefficient."""
        f = self.ring.field
        out = dict(self._terms)
        for exp, t in prod.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = f.neg(t)
                continue
            acc = f.sub(acc, t)
            if f.is_zero(acc):
                del out[exp]
            else:
                out[exp] = acc
        return type(self)(self.ring, out)

    def scale(self, c):
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return type(self)(self.ring, {e: f.mul(c, v) for e, v in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    # -- calculus / substitution -------------------------------------------

    def diff(self, var):
        i = self.ring.index(var) if isinstance(var, str) else var
        f = self.ring.field
        out = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            out[tuple(new)] = f.mul(c, f.from_rational(Fraction(e)))
        return type(self)(self.ring, out)

    def subs(self, assignment):
        """Substitute rational values for variables (by name or index)."""
        f = self.ring.field
        idx = {}
        for k, v in assignment.items():
            i = self.ring.index(k) if isinstance(k, str) else k
            idx[i] = f.from_rational(Fraction(v))
        out = {}
        for exp, c in self._terms.items():
            new = list(exp)
            for i, val in idx.items():
                e = new[i]
                if e:
                    for _ in range(e):
                        c = f.mul(c, val)
                    new[i] = 0
            key = tuple(new)
            acc = out.get(key)
            c2 = c if acc is None else f.add(acc, c)
            if f.is_zero(c2):
                out.pop(key, None)
            else:
                out[key] = c2
        return type(self)(self.ring, out)

    def coefficients_wrt(self, vars_subset):
        """Group terms by the exponents of ``vars_subset``.

        Returns a dict mapping the restricted exponent tuple to the
        cofactor polynomial in the remaining variables (same ring).
        """
        sel = tuple(
            self.ring.index(v) if isinstance(v, str) else v for v in vars_subset
        )
        selset = set(sel)
        groups = {}
        for exp, c in self._terms.items():
            key = tuple(exp[i] for i in sel)
            rest = tuple(0 if i in selset else e for i, e in enumerate(exp))
            groups.setdefault(key, {})[rest] = c
        return {k: type(self)(self.ring, t) for k, t in sorted(groups.items())}

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if set(self._terms) != set(other._terms):
            return False
        f = self.ring.field
        return all(f.eq(c, other._terms[e]) for e, c in self._terms.items())

    def __hash__(self):
        items = tuple(sorted((e, self.ring.field.to_str(c)) for e, c in self._terms.items()))
        return hash((self.ring.names, items))

    def _mono_str(self, exp):
        parts = []
        for name, e in zip(self.ring.names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __str__(self):
        if not self._terms:
            return "0"
        f = self.ring.field
        chunks = []
        for exp, c in self.terms():
            mono = self._mono_str(exp)
            cs = f.to_str(c)
            # a compound coefficient, as over a residue field, is parenthesized
            neg = cs.startswith("-") and "+" not in cs[1:] and "- " not in cs
            if "+" in cs or " " in cs:
                cs = "(%s)" % cs
                neg = False
            if neg:
                cs = cs[1:]
            if mono:
                body = mono if cs == "1" else "%s*%s" % (cs, mono)
            else:
                body = cs
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class PolyRing:
    """A polynomial ring: coefficient field, ordered variable names, term order.

    It is the Weyl ring without Weyl pairs (:class:`genbs.weyl.WeylRing`
    adds them); ``_elem`` is the element class the ring builds.
    """

    pairs = ()
    _elem = Poly

    def __init__(self, field, names, order: TermOrder | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.field = field
        self.names = names
        self.order = order if order is not None else GRevLex()
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * self.nvars

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r in ring %r" % (name, self.names))

    def zero(self):
        return self._elem(self, {})

    def one(self):
        return self.const(1)

    def const(self, q):
        c = self.field.from_rational(Fraction(q)) if not self._is_coeff(q) else q
        if self.field.is_zero(c):
            return self._elem(self, {})
        return self._elem(self, {self._zero_exp: c})

    def _is_coeff(self, value):
        if isinstance(value, (int, Fraction)):
            return False
        return True

    def var(self, name):
        i = self.index(name) if isinstance(name, str) else name
        exp = [0] * self.nvars
        exp[i] = 1
        return self._elem(self, {tuple(exp): self.field.one()})

    def monomial(self, exp, coeff=1):
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        c = coeff if self._is_coeff(coeff) else self.field.from_rational(Fraction(coeff))
        if self.field.is_zero(c):
            return self.zero()
        return self._elem(self, {exp: c})

    def from_terms(self, terms):
        out = {}
        f = self.field
        for exp, c in terms:
            exp = tuple(exp)
            acc = out.get(exp)
            c2 = c if acc is None else f.add(acc, c)
            if f.is_zero(c2):
                out.pop(exp, None)
            else:
                out[exp] = c2
        return self._elem(self, out)

    def with_order(self, order):
        if order == self.order:
            return self
        ring = copy.copy(self)
        ring.order = order
        return ring

    def convert(self, poly: "Poly"):
        """Move an element of another ring into this one.

        This is the one move between rings (commutative, Weyl, over Q or
        a residue field), and it follows three rules:

        - names: each variable goes to the generator of the same name;
          a variable with no namesake here must not occur.
        - derivatives: an element of a ring without Weyl pairs must not
          occur in a generator this ring pairs as a derivative, since
          commuting variables carry no normal order.
        - field: when the fields differ, each coefficient is carried as
          its rational value; a residue coefficient that is not rational
          raises ValueError.

        Terms are walked in their stored order.  With the same names and
        field, and no derivative to guard, the term map is shared.
        """
        if poly.ring is self:
            return poly
        src = poly.ring
        lift = src.field is not self.field and src.field != self.field
        guard = {d for _, d in self.pairs} if not src.pairs else ()
        if src.names == self.names and not lift and not guard:
            return self._elem(self, poly._terms)
        pos = [self._index.get(n) for n in src.names]
        out = {}
        for exp, c in poly._terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                j = pos[i]
                if j is None:
                    raise MixedRingError(
                        "variable %r does not exist in target ring" % src.names[i]
                    )
                if j in guard:
                    raise MixedRingError(
                        "cannot embed a polynomial in a derivative generator"
                    )
                new[j] = e
            if lift:
                c = self.field.from_rational(src.field.as_rational(c))
            out[tuple(new)] = c
        return self._elem(self, out)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self)
            and self.field == other.field
            and self.names == other.names
            and self.pairs == other.pairs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.pairs, self.order))

    def __repr__(self):
        return "PolyRing(%s; %s; %s)" % (
            self.field,
            ",".join(self.names),
            self.order.describe(),
        )

