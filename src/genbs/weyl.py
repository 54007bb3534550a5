"""Weyl algebras with central variables, in normally ordered form.

A ring fixes a tuple of generator names and a set of index pairs
(position, derivative) obeying [d, x] = 1; all other generators are
central.  Every operator is stored normally ordered: a term is a single
exponent tuple over all generators, read as the product written in name
order (positions before their derivatives, by construction of the name
tuple).  Multiplication applies the two-sided Leibniz rule per pair:

    d^b x^a = sum_k k! C(a,k) C(b,k) x^(a-k) d^(b-k)

The term kernel is :mod:`genbs.poly`: ``WeylRing`` is a ``PolyRing``
with pairs and ``WeylOp`` a ``Poly`` with this product.  Coefficients
live in a pluggable field, the rationals or a residue field of the
parameter ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .orders import mono_mul
from .poly import Poly, PolyRing


class WeylOp(Poly):
    """Immutable normally ordered operator: a Poly with the Leibniz product.

    Only the product and the fused reduction step differ from
    :class:`Poly`; every other method, printing included, is inherited.
    """

    __slots__ = ()

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
        return self._sub_terms(prod)


class WeylRing(PolyRing):
    """A PolyRing with Weyl pairs; its elements are WeylOps."""

    _elem = WeylOp

    def __init__(self, field, names, pairs, order=None):
        super().__init__(field, names, order)
        self.pairs = tuple((int(p), int(d)) for p, d in pairs)
        paired = set()
        for p, d in self.pairs:
            if p == d or p in paired or d in paired:
                raise ValueError("invalid Weyl pairing")
            paired.add(p)
            paired.add(d)

    # the Weyl algebra calls its variables generators
    gen = PolyRing.var

    def __repr__(self):
        return "WeylRing(%s; %s; pairs=%s)" % (
            self.field,
            ",".join(self.names),
            self.pairs,
        )


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
