"""Problem instances: a family f = (f_1..f_p) with shift vector v.

The family's coefficients live in Q[a_1..a_m] with m = 0 meaning plain
rational coefficients; the f_j themselves are polynomials in the x
variables.  One canonical commutative ring (parameters first, then x)
holds the family, and derived rings (adding s, or the operator rings)
are built here so every downstream module agrees on generator order.

Canonical generator order for operator rings: parameters, x block,
t block, u block, dx block, dt block, y block, s block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroPolynomialError
from .orders import GRevLex
from .poly import Poly, PolyRing, QQ
from .variables import VarRegistry
from .weyl import WeylRing


@dataclass(frozen=True)
class ProblemInstance:
    """Fixed data: registry (n, p, m), family f, shift vector v."""

    registry: VarRegistry
    f: tuple
    v: tuple

    def __post_init__(self):
        if len(self.f) != self.registry.p or len(self.v) != self.registry.p:
            raise ValueError("need |f| = |v| = p")
        if self.registry.p < 1 or self.registry.n < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if any(int(vj) != vj or vj < 0 for vj in self.v):
            raise ValueError("v must consist of non-negative integers")
        for fj in self.f:
            if fj.is_zero():
                raise ZeroPolynomialError("family members must be nonzero")
            if fj.ring != self.x_ring():
                raise ValueError("family members must live in the canonical ring")

    # -- rings ----------------------------------------------------------------

    def x_ring(self) -> PolyRing:
        return PolyRing(QQ, self.registry.a + self.registry.x, GRevLex())

    def param_ring(self) -> PolyRing:
        return PolyRing(QQ, self.registry.a, GRevLex())

    def s_ring(self) -> PolyRing:
        return PolyRing(QQ, self.registry.s, GRevLex())

    def fs_ring(self) -> PolyRing:
        """Numerator ring for f^s module elements: Q[a, x, s]."""
        return PolyRing(
            QQ, self.registry.a + self.registry.x + self.registry.s, GRevLex()
        )

    def weyl_ring(self) -> WeylRing:
        """Operator ring A_n[s]; parameters (if any) are central generators."""
        r = self.registry
        names = r.a + r.x + r.d_names() + r.s
        offset = len(r.a)
        n = r.n
        pairs = [(offset + i, offset + n + i) for i in range(n)]
        return WeylRing(QQ, names, pairs)

    # -- family helpers ---------------------------------------------------------

    def f_power_v(self) -> Poly:
        acc = self.x_ring().one()
        for fj, vj in zip(self.f, self.v):
            acc = acc * fj**vj
        return acc

    def f_in_fs_ring(self):
        ring = self.fs_ring()
        return tuple(ring.convert(fj) for fj in self.f)

    def specialize(self, point) -> "ProblemInstance":
        """Substitute rational values for all parameters; returns an m = 0 instance."""
        r = self.registry
        if isinstance(point, dict):
            values = {name: Fraction(point[name]) for name in r.a}
        else:
            point = tuple(point)
            if len(point) != r.m:
                raise ValueError("parameter point has wrong length")
            values = {name: Fraction(q) for name, q in zip(r.a, point)}
        new_registry = VarRegistry(r.x, r.s, ())
        target = PolyRing(QQ, r.x, GRevLex())
        new_f = []
        for fj in self.f:
            sub = fj.subs(values)
            new_f.append(target.convert(sub))
        inst = ProblemInstance(new_registry, tuple(new_f), self.v)
        return inst

    def __str__(self):
        return "f=(%s), v=%s" % (
            ", ".join(str(fj) for fj in self.f),
            tuple(self.v),
        )


def make_instance(x_names, f_polys, v=None, a_names=()):
    """Build an instance from raw polynomials, converting into canonical rings."""
    p = len(f_polys)
    registry = VarRegistry.create(tuple(x_names), p, tuple(a_names))
    ring = PolyRing(QQ, registry.a + registry.x, GRevLex())
    f = tuple(ring.convert(fj) for fj in f_polys)
    if v is None:
        v = (1,) * p
    return ProblemInstance(registry, f, tuple(int(x) for x in v))
