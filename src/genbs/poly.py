"""Exact multivariate polynomials over a pluggable coefficient field.

The fields used are the rationals and the residue fields Frac(Q[a]/Q) of
:mod:`genbs.parametric`.  A rational coefficient is a ``fractions.Fraction``
in every field; a residue field adds ``ResidueElem`` for the values that
are not rational.  Coefficients compute with Python's operators, and a
field object only names the field a ring is over.  Polynomials are
immutable; a ring carries the variable names, the coefficient field and
the term order.  The Weyl algebra (:mod:`genbs.weyl`) subclasses both
the polynomial and the ring and changes only the product.

The reduction kernel subtracts c*x^m*g from a mutable term map in place:
``sub_mul_into`` with the field's operators, ``sub_ratios_into`` over Q on
normalized (numerator, denominator) int pairs, without a ``Fraction``
per term.  A term arithmetic (``term_arithmetic(ring)``) holds every step
the Groebner loop takes on term maps: load and export, cancelling a lead,
monic scaling, S-polynomials and cofactor combinations.  ``RatioTerms``
takes each over Q on int pairs, where values do not depend on the order
of the operations; ``OperatorTerms`` runs the ``Poly`` expression each
replaces, in its order, because over a residue field the form of a
value depends on that order.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd

from .errors import InvalidInput, MixedRingError, ZeroPolynomialError, digit_limit
from .orders import GRevLex, TermOrder, mono_mul


class RationalField:
    """The field of rationals; elements are ``fractions.Fraction``."""

    name = "QQ"

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

    __slots__ = ("ring", "_terms", "_sorted", "_lead", "_ratios")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms
        self._sorted = None
        self._lead = None
        self._ratios = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self._terms)

    def const_value(self):
        """Coefficient of the constant term (the whole value if constant)."""
        return self._terms.get(self.ring._zero_exp, Fraction(0))

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

    def ratio_terms(self):
        """The term map exponent -> (numerator, denominator), over Q only.

        The reduction kernel reads a reducer's terms this way many times,
        so the map is built once; it must not be mutated.
        """
        if self._ratios is None:
            self._ratios = {e: c.as_integer_ratio() for e, c in self._terms.items()}
        return self._ratios

    def coeff(self, exp):
        return self._terms.get(tuple(exp), Fraction(0))

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
        out = dict(self._terms)
        for exp, c in other._terms.items():
            acc = out.get(exp)
            c2 = c if acc is None else acc + c
            if not c2:
                out.pop(exp, None)
            else:
                out[exp] = c2
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.ring, {e: -c for e, c in self._terms.items()})

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
            out = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = mono_mul(e1, e2)
                    c = c1 * c2
                    acc = out.get(e)
                    c3 = c if acc is None else acc + c
                    if not c3:
                        out.pop(e, None)
                    else:
                        out[e] = c3
            return type(self)(self.ring, out)
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def sub_mul_term(self, c, m, g):
        """Return self - c*x^m*g, with c a field element and m an exponent.

        It runs the operations of ``self - ring.monomial(m, c) * g`` in
        their order, without building the product as a polynomial.
        """
        g = self._coerce(g)
        out = dict(self._terms)
        sub_mul_into(out, c, m, g._terms, g.ring)
        return type(self)(self.ring, out)

    def scale(self, c):
        if not c:
            return self.ring.zero()
        return type(self)(self.ring, {e: c * v for e, v in self._terms.items()})

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
        return self.scale(1 / self.lead_coeff())

    # -- calculus / substitution -------------------------------------------

    def diff(self, var):
        i = self.ring.index(var) if isinstance(var, str) else var
        out = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            out[tuple(new)] = c * e
        return type(self)(self.ring, out)

    def subs(self, assignment):
        """Substitute rational values for variables (by name or index)."""
        idx = {}
        for k, v in assignment.items():
            i = self.ring.index(k) if isinstance(k, str) else k
            idx[i] = Fraction(v)
        out = {}
        for exp, c in self._terms.items():
            new = list(exp)
            for i, val in idx.items():
                e = new[i]
                if e:
                    for _ in range(e):
                        c = c * val
                    new[i] = 0
            key = tuple(new)
            acc = out.get(key)
            c2 = c if acc is None else acc + c
            if not c2:
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
        return all(c == other._terms[e] for e, c in self._terms.items())

    def __hash__(self):
        # the support only: equal residue coefficients may differ in form
        return hash((self.ring.names, frozenset(self._terms)))

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
        chunks = []
        for exp, c in self.terms():
            mono = self._mono_str(exp)
            try:
                cs = str(c)
            except ValueError:
                # what str() of a coefficient refuses: an integer past
                # Python's int/str digit limit
                raise InvalidInput(digit_limit("a coefficient")) from None
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

    It is the Weyl ring without pairs (:class:`genbs.weyl.WeylRing` adds
    Weyl pairs and shift pairs); ``_elem`` is the element class the ring
    builds.
    """

    pairs = ()
    shift_pairs = ()
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

    def expansion(self, m):
        """The map e -> terms (exp, k) of x^m * x^e, the top term first.

        Each is k*x^exp with k an integer.  Without pairs a product of
        monomials is one term; a Weyl ring adds the corrections of its
        pairs.  Every product of an element by a monomial on the left
        expands term by term through this map.
        """
        return lambda e: ((mono_mul(m, e), 1),)

    def const(self, q):
        c = Fraction(q) if not self._is_coeff(q) else q
        if not c:
            return self._elem(self, {})
        return self._elem(self, {self._zero_exp: c})

    def _is_coeff(self, value):
        return not isinstance(value, (int, Fraction))

    def var(self, name):
        i = self.index(name) if isinstance(name, str) else name
        exp = [0] * self.nvars
        exp[i] = 1
        return self._elem(self, {tuple(exp): Fraction(1)})

    def monomial(self, exp, coeff=1):
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        c = coeff if self._is_coeff(coeff) else Fraction(coeff)
        if not c:
            return self.zero()
        return self._elem(self, {exp: c})

    def from_terms(self, terms):
        out = {}
        for exp, c in terms:
            exp = tuple(exp)
            acc = out.get(exp)
            c2 = c if acc is None else acc + c
            if not c2:
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
        - derivatives: an element of a ring without pairs must not occur
          in a generator this ring pairs as a derivative (a Weyl pair's
          d or a shift pair's dt), since commuting variables carry no
          normal order.
        - field: when the fields differ, a rational coefficient (a
          ``Fraction`` in every field) passes through, and any other
          coefficient raises ValueError.

        Terms are walked in their stored order.  With the same names and
        field, and no derivative to guard, the term map is shared.
        """
        if poly.ring is self:
            return poly
        src = poly.ring
        cross = src.field is not self.field and src.field != self.field
        guard = (
            {d for _, d in self.pairs + self.shift_pairs}
            if not (src.pairs or src.shift_pairs)
            else ()
        )
        if src.names == self.names and not cross and not guard:
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
            if cross and not isinstance(c, (int, Fraction)):
                raise ValueError("coefficient %s is not rational" % c)
            out[tuple(new)] = c
        return self._elem(self, out)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self)
            and self.field == other.field
            and self.names == other.names
            and self.pairs == other.pairs
            and self.shift_pairs == other.shift_pairs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.pairs, self.shift_pairs, self.order))

    def __repr__(self):
        return "PolyRing(%s; %s; %s)" % (
            self.field,
            ",".join(self.names),
            self.order.describe(),
        )


def _add_product_terms(acc, c, terms):
    """Add c*k at exp into ``acc`` for each (exp, k) of a monomial product.

    The multiply is skipped when k is 1, as it is for every term of a
    product without an active pair.
    """
    for exp, k in terms:
        t = c if k == 1 else c * k
        prev = acc.get(exp)
        if prev is None:
            acc[exp] = t
            continue
        t = prev + t
        if not t:
            del acc[exp]
        else:
            acc[exp] = t




def sub_mul_into(acc, c, m, g, ring):
    """acc -= c*x^m*g in place, with the field's operators.

    ``acc`` and ``g`` are term maps of ``ring`` and c a field element.
    Each coefficient of the product is summed in full before it is
    subtracted, as in ``f - ring.monomial(m, c) * g``: over a residue
    field the form of a result depends on that order.
    """
    expand = ring.expansion(m)
    prod = {}
    for e, v in g.items():
        _add_product_terms(prod, c * v, expand(e))
    for exp, t in prod.items():
        prev = acc.get(exp)
        if prev is None:
            acc[exp] = -t
            continue
        prev = prev - t
        if not prev:
            del acc[exp]
        else:
            acc[exp] = prev


def _ratio(n, d):
    """n/d as a normalized pair: coprime, with a positive denominator."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def sub_ratios_into(acc, cn, cd, m, g, ring):
    """acc -= (cn/cd)*x^m*g in place, over Q on normalized int pairs.

    ``acc`` and ``g`` are term maps of ``ring`` whose values are pairs
    (num, den); cn/cd is normalized too.  Each difference is normalized
    the way ``Fraction`` does it, so the values are those of the same
    steps on ``Fraction`` coefficients.
    """
    expand = ring.expansion(m)
    for e, (tn, td) in g.items():
        tn *= cn
        td *= cd
        h = gcd(tn, td)
        if h != 1:
            tn //= h
            td //= h
        for exp, k in expand(e):
            kn, kd = tn, td
            if k != 1:
                # tn and td are coprime, so only k can share a factor with td
                h = gcd(k, td)
                kn, kd = tn * (k // h), td // h
            prev = acc.get(exp)
            if prev is None:
                acc[exp] = (-kn, kd)
                continue
            an, ad = prev
            h = gcd(ad, kd)
            if h == 1:
                num, den = an * kd - ad * kn, ad * kd
            else:
                s = ad // h
                num = an * (kd // h) - kn * s
                h2 = gcd(num, h)
                den = s * (kd // h2)
                if h2 != 1:
                    num //= h2
            if num:
                acc[exp] = (num, den)
            else:
                del acc[exp]


class _TermArithmetic:
    """What both term arithmetics share: the ring, and monic scaling.

    An element is a term map exponent -> value in the arithmetic's form,
    and is never mutated; ``load`` gives a fresh map that a reduction
    mutates in place.
    """

    def __init__(self, ring):
        self.ring = ring

    def monic(self, terms, lead):
        """(terms scaled by the inverse c of the value at lead, c)."""
        c = self.inverse(terms[lead])
        return self.scale(terms, c), c


class OperatorTerms(_TermArithmetic):
    """Term-map arithmetic with the field's operators, on stored values.

    The residue fields compute this way: their elements are operands, and
    the forms they reach depend on the order of the operations.  So each
    step runs the operations of the ``Poly`` expression its docstring
    names, in their order, on ``Poly``s that wrap the term maps.
    """

    @staticmethod
    def load(p):
        return dict(p._terms)

    @staticmethod
    def element(p):
        return p._terms

    @staticmethod
    def export(terms):
        return terms

    @staticmethod
    def inverse(c):
        return 1 / c

    @staticmethod
    def scale(terms, c):
        """``p.scale(c)``."""
        return {e: c * v for e, v in terms.items()}

    def cancel_lead(self, acc, lt, m, g, lg):
        """Subtract c*x^m*g with c = acc[lt] / g[lg], cancelling lt; return c."""
        c = acc[lt] / g[lg]
        sub_mul_into(acc, c, m, g, self.ring)
        return c

    def difference(self, a, b, ca, ma, cb, mb):
        """``(ring.monomial(ma, ca) * a).sub_mul_term(cb, mb, b)``."""
        ring = self.ring
        a, b = ring._elem(ring, a), ring._elem(ring, b)
        return (ring.monomial(ma, ca) * a).sub_mul_term(cb, mb, b)._terms

    def sub_combination(self, rep, q, reps):
        """``r - qk * rk`` for each component r, for each non-zero q[k]."""
        ring = self.ring
        elem = ring._elem
        out = [elem(ring, r) for r in rep]
        for qk, rk in zip(q, reps):
            if qk:
                qk = elem(ring, qk)
                out = [r - qk * elem(ring, x) for r, x in zip(out, rk)]
        return [r._terms for r in out]


class RatioTerms(_TermArithmetic):
    """Term-map arithmetic over Q on normalized int pairs (num, den).

    A term map is loaded from a polynomial's ``Fraction`` coefficients and
    exported back to them; in between no ``Fraction`` is built.  Values
    over Q do not depend on the order of the operations, so each step
    takes the cheapest: a product by a polynomial is one
    ``sub_ratios_into`` per term.
    """

    @staticmethod
    def load(p):
        return {e: c.as_integer_ratio() for e, c in p._terms.items()}

    @staticmethod
    def element(p):
        return p.ratio_terms()

    @staticmethod
    def export(terms):
        return {e: Fraction(n, d) if d != 1 else Fraction(n) for e, (n, d) in terms.items()}

    @staticmethod
    def inverse(c):
        n, d = c
        return (d, n) if n > 0 else (-d, -n)

    @staticmethod
    def scale(terms, c):
        """terms times c; terms itself when c is 1."""
        if c == (1, 1):
            return terms
        cn, cd = c
        out = {}
        for e, (n, d) in terms.items():
            n *= cn
            d *= cd
            h = gcd(n, d)
            out[e] = (n // h, d // h) if h != 1 else (n, d)
        return out

    def cancel_lead(self, acc, lt, m, g, lg):
        """Subtract c*x^m*g with c = acc[lt] / g[lg], cancelling lt; return c."""
        n, d = acc[lt]
        gn, gd = g[lg]
        c = _ratio(n * gd, d * gn)
        sub_ratios_into(acc, c[0], c[1], m, g, self.ring)
        return c

    def difference(self, a, b, ca, ma, cb, mb):
        """ca*x^ma*a - cb*x^mb*b."""
        out = {}
        sub_ratios_into(out, -ca[0], ca[1], ma, a, self.ring)
        sub_ratios_into(out, cb[0], cb[1], mb, b, self.ring)
        return out

    def sub_combination(self, rep, q, reps):
        """r - sum_k q[k]*rk for each component r: q[k]*rk is the sum of
        c*x^m*rk over the terms c*x^m of q[k]."""
        ring = self.ring
        out = [dict(r) for r in rep]
        for qk, rk in zip(q, reps):
            for m, (cn, cd) in qk.items():
                for r, x in zip(out, rk):
                    sub_ratios_into(r, cn, cd, m, x, ring)
        return out


def term_arithmetic(ring):
    """The term arithmetic of ring's field: int pairs over Q, the field's
    operators otherwise."""
    return RatioTerms(ring) if ring.field is QQ else OperatorTerms(ring)
