"""Weyl algebras with shift pairs and central variables, normally ordered.

A ring fixes a tuple of generator names and two kinds of index pairs.  A
Weyl pair (position, derivative) obeys [d, x] = 1; a shift pair (s, dt)
obeys dt s = (s - 1) dt, the relation of Briancon-Maisonobe's algebra
A_n[s]<dt>.  All other generators are central.  Every operator is stored
normally ordered: a term is a single exponent tuple over all generators,
read as the product written in name order, in which each pair's first
member comes before its second.  Multiplication moves each pair's second
member of the left factor past the first member of the right factor:

    d^b x^a = sum_k k! C(a,k) C(b,k) x^(a-k) d^(b-k)
    dt^a s^b = (s - a)^b dt^a = sum_k C(b,k) (-a)^(b-k) s^k dt^a

Every correction term divides the top term, so the lead of a product is
the product of the leads under any global monomial order.

The term kernel is :mod:`genbs.poly`: ``WeylRing`` is a ``PolyRing``
with pairs and ``WeylOp`` a ``Poly`` with this product.  Coefficients
live in a pluggable field, the rationals or a residue field of the
parameter ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial

from .orders import mono_mul
from .poly import Poly, PolyRing, _add_product_terms


class WeylOp(Poly):
    """Immutable normally ordered operator: a Poly with the Leibniz product.

    Only the product differs from :class:`Poly`; every other method is
    inherited, printing and the fused reduction step included, and every
    product by a monomial expands through the ring's ``expansion``.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        acc = {}
        for e1, c1 in self._terms.items():
            expand = ring.expansion(e1)
            for e2, c2 in other._terms.items():
                _add_product_terms(acc, c1 * c2, expand(e2))
        return WeylOp(ring, acc)


class WeylRing(PolyRing):
    """A PolyRing with Weyl pairs and shift pairs; its elements are WeylOps."""

    _elem = WeylOp

    def __init__(self, field, names, pairs, order=None, shift_pairs=()):
        super().__init__(field, names, order)
        self.pairs = tuple((int(p), int(d)) for p, d in pairs)
        self.shift_pairs = tuple((int(s), int(dt)) for s, dt in shift_pairs)
        paired = set()
        for p, d in self.pairs + self.shift_pairs:
            if not p < d or p in paired or d in paired:
                raise ValueError("invalid Weyl pairing")
            paired.add(p)
            paired.add(d)
        self._second = tuple(d for _, d in self.pairs + self.shift_pairs)

    # the Weyl algebra calls its variables generators
    gen = PolyRing.var

    def expansion(self, m):
        """The map e -> terms (exp, k) of x^m * x^e, the top term first.

        When m holds the second member of a pair, the Leibniz and shift
        rules add their corrections (``_leibniz_terms``).
        """
        for i in self._second:
            if m[i]:
                return partial(_leibniz_terms, self, m)
        return super().expansion(m)

    def __repr__(self):
        return "WeylRing(%s; %s; pairs=%s; shift_pairs=%s)" % (
            self.field,
            ",".join(self.names),
            self.pairs,
            self.shift_pairs,
        )


def _leibniz_terms(ring, e1, e2):
    """Expand (normal e1) * (normal e2) into normally ordered terms.

    Returns a list of (exponent, integer coefficient), the top term
    first.  Only pairs whose second member has a power in the left
    factor and whose first member has one in the right factor
    contribute corrections.
    """
    terms = [(mono_mul(e1, e2), 1)]
    for p, d in ring.pairs:
        b = e1[d]
        a = e2[p]
        if b > 0 and a > 0:
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
    for s, dt in ring.shift_pairs:
        a = e1[dt]
        b = e2[s]
        if a > 0 and b > 0:
            # dt^a s^b = sum_j C(b,j) (-a)^j s^(b-j) dt^a
            new = []
            for exp, num in terms:
                for j in range(0, b + 1):
                    coef = num * comb(b, j) * (-a) ** j
                    if j == 0:
                        new.append((exp, coef))
                    else:
                        lowered = list(exp)
                        lowered[s] -= j
                        new.append((tuple(lowered), coef))
            terms = new
    return terms


def commutator(f: WeylOp, g: WeylOp) -> WeylOp:
    return f * g - g * f
