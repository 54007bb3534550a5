"""Weyl algebras with central variables, in normally ordered form.

A ring fixes a tuple of generator names and a set of index pairs
(position, derivative) obeying [d, x] = 1; all other generators are
central.  Every operator is stored normally ordered: a term is a single
exponent tuple over all generators, read as the product written in name
order (positions before their derivatives, by construction of the name
tuple).  Multiplication applies the two-sided Leibniz rule per pair:

    d^b x^a = sum_k k! C(a,k) C(b,k) x^(a-k) d^(b-k)

Coefficients live in a pluggable field, the rationals or a residue
field of the parameter ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import MixedRingError, ZeroPolynomialError
from .orders import GRevLex, mono_mul
from .poly import Poly, PolyRing


class WeylRing:
    """Generator names, Weyl pairs, coefficient field and display order."""

    def __init__(self, field, names, pairs, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self.pairs = tuple((int(p), int(d)) for p, d in pairs)
        paired = set()
        for p, d in self.pairs:
            if p == d or p in paired or d in paired:
                raise ValueError("invalid Weyl pairing")
            paired.add(p)
            paired.add(d)
        self.order = order if order is not None else GRevLex()
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * self.nvars

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown generator %r" % name)

    def central_indices(self):
        paired = {i for pd in self.pairs for i in pd}
        return [i for i in range(self.nvars) if i not in paired]

    def zero(self):
        return WeylOp(self, {})

    def one(self):
        return self.const(1)

    def const(self, q):
        c = q if self._is_coeff(q) else self.field.from_rational(Fraction(q))
        if self.field.is_zero(c):
            return WeylOp(self, {})
        return WeylOp(self, {self._zero_exp: c})

    def _is_coeff(self, value):
        return not isinstance(value, (int, Fraction))

    def gen(self, name):
        i = self.index(name) if isinstance(name, str) else name
        exp = [0] * self.nvars
        exp[i] = 1
        return WeylOp(self, {tuple(exp): self.field.one()})

    def monomial(self, exp, coeff=1):
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        c = coeff if self._is_coeff(coeff) else self.field.from_rational(Fraction(coeff))
        if self.field.is_zero(c):
            return self.zero()
        return WeylOp(self, {exp: c})

    def with_order(self, order):
        if order == self.order:
            return self
        return WeylRing(self.field, self.names, self.pairs, order)

    def from_poly(self, poly: Poly):
        """Embed a commutative polynomial whose variables all exist here.

        The polynomial must not involve derivative generators (an
        embedded product of commuting variables needs no reordering).
        """
        der = {d for _, d in self.pairs}
        out = {}
        for exp, c in poly._terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                j = self._index.get(poly.ring.names[i])
                if j is None:
                    raise MixedRingError(
                        "variable %r not present in the operator ring"
                        % poly.ring.names[i]
                    )
                if j in der:
                    raise MixedRingError(
                        "cannot embed a polynomial in a derivative generator"
                    )
                new[j] = e
            out[tuple(new)] = c
        return WeylOp(self, out)

    def to_poly(self, op: "WeylOp", target: PolyRing) -> Poly:
        """Rewrite an operator as a commutative polynomial in ``target``.

        Valid whenever, for every term, no Weyl pair has both entries
        nonzero in the same monomial of any product ambiguity; since the
        operator is already normally ordered this is a plain renaming.
        """
        out = {}
        for exp, c in op._terms.items():
            new = [0] * target.nvars
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                new[target.index(self.names[i])] = e
            out[tuple(new)] = c
        return Poly(target, out)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeylRing)
            and self.field == other.field
            and self.names == other.names
            and self.pairs == other.pairs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.pairs, self.order))

    def __repr__(self):
        return "WeylRing(%s; %s; pairs=%s)" % (
            self.field,
            ",".join(self.names),
            self.pairs,
        )


class WeylOp:
    """Immutable normally ordered operator; terms map exponents to coefficients.

    The term map is never mutated after construction: every operation
    builds a new dict.  The cached leading exponent and the cached sorted
    term list rely on that.
    """

    __slots__ = ("ring", "_terms", "_sorted", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms
        self._sorted = None
        self._lead = None

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self._terms)

    def const_value(self):
        if not self._terms:
            return self.ring.field.zero()
        return self._terms.get(self.ring._zero_exp, self.ring.field.zero())

    def terms(self):
        """Terms, descending in the ring order; sorted once, for printing."""
        if self._sorted is None:
            key = self.ring.order.key
            self._sorted = sorted(
                self._terms.items(), key=lambda t: key(t[0]), reverse=True
            )
        return self._sorted

    def num_terms(self):
        return len(self._terms)

    def lead_exp(self):
        if self._lead is None:
            if not self._terms:
                raise ZeroPolynomialError("zero operator has no leading term")
            self._lead = max(self._terms, key=self.ring.order.key)
        return self._lead

    def lead_coeff(self):
        return self._terms[self.lead_exp()]

    def total_degree(self):
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def degree_in(self, name):
        i = self.ring.index(name) if isinstance(name, str) else name
        if not self._terms:
            return -1
        return max(exp[i] for exp in self._terms)

    def support_indices(self):
        used = set()
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return sorted(used)

    def _coerce(self, other):
        if isinstance(other, WeylOp):
            if self.ring is not other.ring and self.ring != other.ring:
                raise MixedRingError("operators live in different rings")
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
        return WeylOp(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return WeylOp(self.ring, {e: f.neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return WeylOp(self.ring, {e: f.mul(c, v) for e, v in self._terms.items()})

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.from_rational(Fraction(other)))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        f = ring.field
        acc = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                _add_product_terms(f, acc, f.mul(c1, c2), _leibniz_terms(ring, e1, e2))
        return WeylOp(ring, acc)

    def sub_mul_term(self, c, m, g):
        """Return self - c*x^m*g, with c a field element and m an exponent.

        One pass over the terms of g, applying the Leibniz rule to x^m
        times each term; this is the left reduction step of the Groebner
        engine.  Each coefficient of the product is summed in full before
        it is subtracted, as in ``self - ring.monomial(m, c) * g``: over a
        residue field the form of a result depends on that order.
        """
        g = self._coerce(g)
        ring = self.ring
        f = ring.field
        prod = {}
        for e2, c2 in g._terms.items():
            _add_product_terms(f, prod, f.mul(c, c2), _leibniz_terms(ring, m, e2))
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
        return WeylOp(ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.from_rational(Fraction(other)))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, WeylOp):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if set(self._terms) != set(other._terms):
            return False
        f = self.ring.field
        return all(f.eq(c, other._terms[e]) for e, c in self._terms.items())

    def __hash__(self):
        items = tuple(
            sorted((e, self.ring.field.to_str(c)) for e, c in self._terms.items())
        )
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
        return "WeylOp(%s)" % self

    def map_coeffs(self, fn, target_ring):
        tf = target_ring.field
        out = {}
        for exp, c in self._terms.items():
            c2 = fn(c)
            if not tf.is_zero(c2):
                out[exp] = c2
        return WeylOp(target_ring, out)


def _add_product_terms(f, acc, c, terms):
    """Add c*num at exp into ``acc`` for each (exp, num) of a Leibniz expansion.

    The multiply is skipped when num is 1, as it is for every term of a
    product without an active pair.
    """
    for exp, num in terms:
        t = c if num == 1 else f.mul(c, f.from_rational(Fraction(num)))
        prev = acc.get(exp)
        if prev is None:
            acc[exp] = t
            continue
        t = f.add(prev, t)
        if f.is_zero(t):
            del acc[exp]
        else:
            acc[exp] = t


def _leibniz_terms(ring, e1, e2):
    """Expand (normal e1) * (normal e2) into normally ordered terms.

    Returns a list of (exponent, integer coefficient).  Only pairs where
    the left factor has derivative power and the right factor has
    position power contribute corrections.
    """
    base = mono_mul(e1, e2)
    active = []
    for p, d in ring.pairs:
        b = e1[d]
        a = e2[p]
        if b > 0 and a > 0:
            active.append((p, d, a, b))
    if not active:
        return [(base, 1)]
    terms = [(base, 1)]
    for p, d, a, b in active:
        new = []
        for exp, num in terms:
            for k in range(0, min(a, b) + 1):
                coef = num * factorial(k) * comb(a, k) * comb(b, k)
                if k == 0:
                    new.append((exp, coef))
                else:
                    lowered = list(exp)
                    lowered[p] -= k
                    lowered[d] -= k
                    new.append((tuple(lowered), coef))
        terms = new
    return terms


def commutator(f: WeylOp, g: WeylOp) -> WeylOp:
    return f * g - g * f
