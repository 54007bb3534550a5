"""Problem instances: a family f = (f_1..f_p) with shift vector v.

This module is the one place that knows how a family's names become
rings and points.  One instance type serves both readings of a family.
Over Q, the default ``field``, the coefficients live in Q[a_1..a_m] with
the parameters as central variables (m = 0: plain rational
coefficients).  Over a residue field Frac(Q[a]/Q) the parameters are
scalars of the field and the registry lists none: the family read at
the generic point of V(Q).  ``family_ring`` is the one builder of the
members' ring field[a, x]; every derived ring (adding s, or the operator
rings) is built here over ``field`` too, so every downstream module
agrees on generator order.  ``ProblemInstance.point`` is the one place a
parameter point is read, and ``generic_family`` builds the fully generic
family of a degree.

Generator order:
  - A_n[s] (``weyl_ring``): parameters, x block, dx block, s block;
  - A_n[s]<dt> (``annihilator_ring``): parameters, s block, x block,
    dx block, dt block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GenbsError, InvalidInput, PointOutsideStratum, ZeroPolynomialError
from .orders import GRevLex, multi_indices
from .poly import Poly, PolyRing, QQ
from .variables import VarRegistry
from .weyl import WeylRing


def family_ring(registry: VarRegistry, field=QQ) -> PolyRing:
    """field[a, x], the ring of a family's members: parameters, then x."""
    return PolyRing(field, registry.a + registry.x, GRevLex())


@dataclass(frozen=True)
class ProblemInstance:
    """Fixed data: registry (n, p, m), family f, shift vector v, and the
    coefficient field of every ring built from them."""

    registry: VarRegistry
    f: tuple
    v: tuple
    field: object = QQ

    def __post_init__(self):
        if len(self.f) != self.registry.p or len(self.v) != self.registry.p:
            raise InvalidInput("need |f| = |v| = p")
        if self.registry.p < 1 or self.registry.n < 1:
            raise InvalidInput("need n >= 1 and p >= 1")
        if any(int(vj) != vj or vj < 0 for vj in self.v):
            raise InvalidInput("v must consist of non-negative integers")
        for fj in self.f:
            if fj.is_zero():
                raise ZeroPolynomialError("family members must be nonzero")
            if fj.ring != self.x_ring():
                raise InvalidInput("family members must live in the canonical ring")

    # -- rings ----------------------------------------------------------------

    def x_ring(self) -> PolyRing:
        return family_ring(self.registry, self.field)

    def param_ring(self) -> PolyRing:
        return PolyRing(QQ, self.registry.a, GRevLex())

    def s_ring(self) -> PolyRing:
        """Ring of Bernstein-Sato ideal members: field[a, s]."""
        return PolyRing(self.field, self.registry.a + self.registry.s, GRevLex())

    def rational_s_ring(self) -> PolyRing:
        """Q[s], where a rational member of the ideal is read, whatever
        the field."""
        return PolyRing(QQ, self.registry.s, GRevLex())

    def fs_ring(self) -> PolyRing:
        """Numerator ring for f^s module elements: field[a, x, s]."""
        return PolyRing(
            self.field, self.registry.a + self.registry.x + self.registry.s, GRevLex()
        )

    def weyl_ring(self) -> WeylRing:
        """Operator ring A_n[s]; parameters (if any) are central generators."""
        r = self.registry
        names = r.a + r.x + r.d_names() + r.s
        offset = len(r.a)
        n = r.n
        pairs = [(offset + i, offset + n + i) for i in range(n)]
        return WeylRing(self.field, names, pairs)

    def dt_names(self):
        """Names of dt_1..dt_p, reserved as every name starting with '_' is."""
        return tuple("_dt%d" % (j + 1) for j in range(self.registry.p))

    def annihilator_ring(self) -> WeylRing:
        """A_n[s]<dt>, the ring where Ann f^s is eliminated: dt_j s_j =
        (s_j - 1) dt_j, and dt_j commutes with x and dx."""
        r = self.registry
        names = r.a + r.s + r.x + r.d_names() + self.dt_names()
        m, n, p = r.m, r.n, r.p
        x0 = m + p
        pairs = [(x0 + i, x0 + n + i) for i in range(n)]
        shift_pairs = [(m + j, x0 + 2 * n + j) for j in range(p)]
        return WeylRing(self.field, names, pairs, shift_pairs=shift_pairs)

    # -- family helpers ---------------------------------------------------------

    def f_power_v(self) -> Poly:
        acc = self.x_ring().one()
        for fj, vj in zip(self.f, self.v):
            acc = acc * fj**vj
        return acc

    def f_in_fs_ring(self):
        ring = self.fs_ring()
        return tuple(ring.convert(fj) for fj in self.f)

    def point(self, values) -> dict:
        """{name: Fraction} for every parameter, from a dict by name or a
        sequence in parameter order; anything else raises
        PointOutsideStratum."""
        names = self.registry.a
        if isinstance(values, dict):
            if set(values) != set(names):
                raise PointOutsideStratum(
                    "point names %s, the parameters are %s"
                    % (sorted(values), list(names))
                )
            values = [values[nm] for nm in names]
        values = tuple(values)
        if len(values) != len(names):
            raise PointOutsideStratum(
                "point has %d coordinates, expected %d" % (len(values), len(names))
            )
        try:
            return {nm: Fraction(q) for nm, q in zip(names, values)}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            msg = "bad coordinate in point %s: %s" % (values, exc)
            raise PointOutsideStratum(msg) from exc

    def specialize(self, point) -> "ProblemInstance":
        """Substitute rational values for all parameters; returns an m = 0 instance."""
        values = self.point(point)
        registry = VarRegistry(self.registry.x, self.registry.s)
        target = family_ring(registry)
        f = tuple(target.convert(fj.subs(values)) for fj in self.f)
        return ProblemInstance(registry, f, self.v)

    def __str__(self):
        return "f=(%s), v=%s" % (
            ", ".join(str(fj) for fj in self.f),
            tuple(self.v),
        )


def make_instance(x_names, f_polys, v=None, a_names=()):
    """Build an instance from raw polynomials, converting into canonical rings."""
    p = len(f_polys)
    registry = VarRegistry.create(tuple(x_names), p, tuple(a_names))
    ring = family_ring(registry)
    f = tuple(ring.convert(fj) for fj in f_polys)
    if v is None:
        v = (1,) * p
    return ProblemInstance(registry, f, tuple(int(x) for x in v))


def generic_family(n: int, p: int, d: int) -> ProblemInstance:
    """The fully generic degree <= d family with m = p C(n+d, d) parameters.

    Parameter a_j_alpha multiplies x^alpha inside f_j; names serialize the
    multi-index so they round-trip through the parser.
    """
    if n < 1 or p < 1 or d < 0:
        raise GenbsError("generic_family needs n, p >= 1 and d >= 0")
    alphas = multi_indices(n, d)
    a_names = tuple(
        "a_%d_%s" % (j, "_".join(map(str, alpha)))
        for j in range(1, p + 1)
        for alpha in alphas
    )
    registry = VarRegistry.create(("x%d" % (i + 1) for i in range(n)), p, a_names)
    ring = family_ring(registry)
    fs = []
    for j in range(p):
        terms = []
        for k, alpha in enumerate(alphas):
            exp = [0] * len(a_names) + list(alpha)
            exp[j * len(alphas) + k] = 1
            terms.append((exp, Fraction(1)))
        fs.append(ring.from_terms(terms))
    return ProblemInstance(registry, tuple(fs), (1,) * p)
