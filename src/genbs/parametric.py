"""Residue fields Frac(Q[a]/Q) and generic Bernstein-Sato data over V(Q).

An element of the residue field is a fraction num/den of normal forms
mod the prime Q.  ``ResidueField.make`` reduces both parts mod Q and
cancels their gcd.  A rational value always ends as two constants there:
if num/den equals r in the field then num - r*den is a normal form equal
to 0, hence num = r*den as polynomials.  So ``make`` returns a rational
value, zero included, as a ``Fraction``, and a ``ResidueElem`` (den
monic and not in Q) only for a value that is not rational.  Arithmetic
with an int or Fraction operand cannot cancel anything, so it builds
that canonical form directly, with no gcd.

The generic package runs the Bernstein-Sato pipeline over the residue
field, which reads off the least-degree member b of the ideal in Q[s]
with its one certificate (``annbs.rationalize``; ``rational_equations``
here splits the residue coefficients of that search into equations over
Q), clears denominators into (h, U) over Q[a] and stores the congruence
remainder; the identity

    h b(s) f^s = U(s) f^(s+v) + remainder,   remainder's coefficients in Q

is re-verified by direct action before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# perfbench/tracer.py wraps rationalize by this module's name; it is
# defined in annbs, which runs the search and cannot import this module
from .annbs import BSIdeal, bs_ideal_ctx, rationalize
from .errors import (
    DivisionByZeroModQ,
    FamilyVanishesModQ,
    PointOutsideStratum,
    VerificationFailed,
)
from .factor import exact_div, multi_gcd, squarefree_part
from .fsmodule import check_identity, congruence_remainder, remainder_in_Q
from .groebner import normal_form
from .instance import ProblemInstance, family_ring
from .poly import Poly, PolyRing
from .primes import PrimeIdealQ, the_zero_prime
from .variables import VarRegistry
from .weyl import WeylOp, WeylRing


def _lifted(op, scalar_op, scalar_rop):
    """``op`` on two elements as an operator and its reflection.

    An int or Fraction operand q takes its own path, which builds the
    result from the element's num and den without ``make``:
    ``scalar_op(a, q)`` is a op q and ``scalar_rop(a, q)`` is q op a.
    """

    def forward(a, b):
        if isinstance(b, ResidueElem):
            return op(a, b)
        if isinstance(b, (int, Fraction)):
            return scalar_op(a, b)
        return NotImplemented

    def reflected(a, q):
        if isinstance(q, (int, Fraction)):
            return scalar_rop(a, q)
        return NotImplemented

    return forward, reflected


class ResidueElem:
    """num/den for a value of Frac(Q[a]/Q) that is not rational.

    The invariant: num and den are normal forms mod Q, coprime as
    polynomials, and den is monic and not in Q.  A rational value, zero
    included, is a ``Fraction``, so an element is never zero and equals
    no int or Fraction.  Elements compute with Python's operators.  Two
    elements combine through ``make`` of the formula, which cancels
    their gcd.  An int or Fraction operand q builds its result directly,
    the one ``make`` would return: normal forms are closed under linear
    combination, num + q*den stays coprime to den, and a nonzero q keeps
    num and den coprime, so only ``q / e`` rescales, by 1/lc(num).
    ``==`` cross-multiplies, so elements are not hashable.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    def _add(a, b):
        return a.field.make(a.num * b.den + b.num * a.den, a.den * b.den)

    def _add_q(a, q):
        return ResidueElem(a.field, a.num + a.den.scale(q), a.den)

    def _sub(a, b):
        return a.field.make(a.num * b.den - b.num * a.den, a.den * b.den)

    def _sub_q(a, q):
        return ResidueElem(a.field, a.num + a.den.scale(-q), a.den)

    def _rsub_q(a, q):
        return ResidueElem(a.field, a.den.scale(q) - a.num, a.den)

    def _mul(a, b):
        return a.field.make(a.num * b.num, a.den * b.den)

    def _mul_q(a, q):
        if not q:
            return Fraction(0)
        return ResidueElem(a.field, a.num.scale(q), a.den)

    def _div(a, b):
        return a.field.make(a.num * b.den, a.den * b.num)

    def _div_q(a, q):
        if not q:
            raise DivisionByZeroModQ("denominator lies in Q")
        return ResidueElem(a.field, a.num.scale(Fraction(1) / q), a.den)

    def _rdiv_q(a, q):
        if not q:
            return Fraction(0)
        inv = Fraction(1) / a.num.lead_coeff()
        return ResidueElem(a.field, a.den.scale(q * inv), a.num.scale(inv))

    __add__, __radd__ = _lifted(_add, _add_q, _add_q)
    __sub__, __rsub__ = _lifted(_sub, _sub_q, _rsub_q)
    __mul__, __rmul__ = _lifted(_mul, _mul_q, _mul_q)
    __truediv__, __rtruediv__ = _lifted(_div, _div_q, _rdiv_q)

    def __neg__(self):
        return ResidueElem(self.field, -self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self.field.nf(self.num * other.den - other.num * self.den).is_zero()

    def __str__(self):
        if self.den.is_constant() and self.den.const_value() == 1:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "ResidueElem(%s / %s)" % (self.num, self.den)


class ResidueField:
    """Frac(Q[a]/Q): it builds elements, which compute themselves."""

    name = "Frac(Q[a]/Q)"

    def __init__(self, Q: PrimeIdealQ):
        self.Q = Q
        self.ring = Q.ring
        self.basis = [self.ring.convert(b) for b in Q.basis]

    def nf(self, poly: Poly) -> Poly:
        poly = self.ring.convert(poly)
        if not self.basis:
            return poly
        return normal_form(poly, self.basis)

    def make(self, num: Poly, den: Poly | None = None) -> ResidueElem | Fraction:
        """num/den in canonical form: a Fraction when the value is rational,
        else a ResidueElem.  Raises DivisionByZeroModQ when den lies in Q."""
        if den is None:
            den = self.ring.one()
        num = self.nf(num)
        den = self.nf(den)
        if den.is_zero():
            raise DivisionByZeroModQ("denominator lies in Q")
        if num.is_zero():
            return Fraction(0)
        # a constant side shares no factor with the other
        if not (num.is_constant() or den.is_constant()):
            g = multi_gcd(num, den)
            if not g.is_constant():
                num = self.nf(exact_div(num, g))
                den = self.nf(exact_div(den, g))
        if num.is_constant() and den.is_constant():
            return num.const_value() / den.const_value()
        lc = den.lead_coeff()
        if lc != 1:
            inv = Fraction(1) / lc
            den = den.scale(inv)
            num = num.scale(inv)
        return ResidueElem(self, num, den)

    def rational_equations(self, remainders):
        """sum_g c_g r_g = 0 over this field as a rational system: one
        column per c_g.

        An s-monomial's row holds the coefficients of the r_g there.  A
        row of rationals stays as it is.  Any other row is brought over
        the lcm D of its denominators, num/den becoming nf(num * D/den)
        mod Q, and splits into one equation per monomial of Q[a]: D lies
        outside the prime Q, so the row vanishes in the field exactly
        when its numerator sum lies in Q, that is, when its normal form
        is zero.
        """
        rows = {}
        for col, r in enumerate(remainders):
            for delta, c in r._terms.items():
                rows.setdefault(delta, {})[col] = c
        columns = [{} for _ in remainders]
        for delta, row in rows.items():
            if not any(isinstance(c, ResidueElem) for c in row.values()):
                for col, c in row.items():
                    columns[col][delta] = c
                continue
            D = _den_lcm(self.ring, row.values())
            for col, c in row.items():
                num, den = _num_den(c, self.ring)
                for aexp, q in self.nf(num * exact_div(D, den))._terms.items():
                    columns[col][delta, aexp] = q
        return columns

    def __eq__(self, other):
        return isinstance(other, ResidueField) and self.Q.basis == other.Q.basis and (
            self.ring == other.ring
        )

    def __hash__(self):
        return hash(("residue", self.ring.names, tuple(str(b) for b in self.Q.basis)))

    def __repr__(self):
        return "Frac(Q[%s]/<%s>)" % (
            ",".join(self.ring.names),
            ", ".join(str(b) for b in self.Q.basis),
        )


def residue_context(inst: ProblemInstance, Q: PrimeIdealQ) -> ProblemInstance:
    """The family read over F = Frac(Q[a]/Q): an instance over F with no
    parameters, which become scalars of F.

    Raises FamilyVanishesModQ when some f_j has all coefficients in Q.
    """
    r = inst.registry
    F = ResidueField(Q)
    registry = VarRegistry(r.x, r.s)
    base = family_ring(registry, F)
    new_f = []
    for fj in inst.f:
        groups = fj.coefficients_wrt(r.x)
        terms = []
        for xexp, coeff in groups.items():
            apoly = inst.param_ring().convert(coeff)
            elem = F.make(apoly)
            if elem:
                terms.append((xexp, elem))
        if not terms:
            raise FamilyVanishesModQ(
                "family member %s vanishes identically mod Q = %s" % (fj, Q)
            )
        new_f.append(base.from_terms(terms))
    return ProblemInstance(registry, tuple(new_f), inst.v, field=F)


# -- denominator clearing ------------------------------------------------------


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_constant():
        return b.monic() if not b.is_constant() else a.ring.one()
    if b.is_constant():
        return a.monic()
    g = multi_gcd(a, b)
    return (a * exact_div(b, g)).monic()


def _num_den(c, ring: PolyRing):
    """A residue-field coefficient as (num, den) over ring; a Fraction is c/1."""
    if isinstance(c, ResidueElem):
        return ring.convert(c.num), ring.convert(c.den)
    return ring.const(c), ring.one()


def _den_lcm(param_ring: PolyRing, coeffs) -> Poly:
    """Monic lcm of the denominators of residue-field coefficients, folded
    in the order given."""
    h = param_ring.one()
    for c in coeffs:
        h = _poly_lcm(h, _num_den(c, param_ring)[1])
    return h


def op_scale_clear(A: WeylOp, param_ring: PolyRing, target: WeylRing):
    """Clear coefficient denominators: h A = A' over Q[a].

    A has coefficients in a residue field; h is the monic polynomial lcm
    of their stored denominators, and parameter monomials fold into
    central exponents of the target ring.
    """
    h = _den_lcm(param_ring, A._terms.values())
    terms = []
    for exp, c in A._terms.items():
        num, den = _num_den(c, param_ring)
        cof = exact_div(h, den) * num
        # the parameters are central, so this product only adds exponents
        term = target.convert(cof) * target.convert(A.ring.monomial(exp))
        terms.extend(term._terms.items())
    return h, target.from_terms(terms)


# -- the generic package --------------------------------------------------------


@dataclass
class GenericBS:
    """Certified generic Bernstein-Sato data over V(Q).

    The exact identity h b f^s = U f^(s+v) + remainder holds with every
    remainder numerator coefficient in Q; h_radical is the squarefree
    part of h defining the same excluded hypersurface.
    """

    instance: ProblemInstance
    Q: PrimeIdealQ
    h: Poly
    h_radical: Poly
    b: Poly
    U: WeylOp
    remainder: object
    ideal: BSIdeal


def generic_bs(
    inst: ProblemInstance,
    Q: PrimeIdealQ | None = None,
    budget=None,
) -> GenericBS:
    """Generic package: rational b valid on V(Q) minus V(h), certified."""
    if Q is None:
        Q = the_zero_prime(inst.param_ring())
    B = bs_ideal_ctx(residue_context(inst, Q), budget=budget)
    (b,), (U_residue,) = B.generators, B.certificates
    b = inst.rational_s_ring().convert(b)

    param = inst.param_ring()
    target = inst.weyl_ring()
    h, U = op_scale_clear(U_residue, param, target)
    r = congruence_remainder(h, b, U, inst)
    if not remainder_in_Q(r, Q, inst):
        raise VerificationFailed("congruence remainder escaped Q; pipeline bug")
    if B.instance.field.nf(h).is_zero():
        raise VerificationFailed("cleared denominator lies in Q; pipeline bug")
    return GenericBS(
        instance=inst,
        Q=Q,
        h=h,
        h_radical=squarefree_part(h) if not h.is_constant() else param.one(),
        b=b,
        U=U,
        remainder=r,
        ideal=B,
    )


def specialize_check(g: GenericBS, point) -> bool:
    """Substitute a rational parameter point and verify the identity exactly.

    The point must lie on V(Q) with h nonvanishing; then b is a certified
    member of B^v(f(point, x)).
    """
    inst = g.instance
    values = inst.point(point)

    for q in g.Q.basis:
        if not inst.param_ring().convert(q).subs(values).is_zero():
            raise PointOutsideStratum("point is not on V(Q): %s != 0" % q)
    hval = g.h.subs(values)
    if hval.is_zero():
        raise PointOutsideStratum("h vanishes at the point")
    hq = hval.const_value()

    inst0 = inst.specialize(values)
    wring0 = inst0.weyl_ring()
    U0 = wring0.convert(g.U.subs(values))
    b0 = g.b * hq
    return check_identity(b0, U0, inst0)
