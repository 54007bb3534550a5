"""Residue fields Frac(Q[a]/Q) and generic Bernstein-Sato data over V(Q).

An element of the residue field is a fraction of normal forms mod the
prime Q, the denominator monic and not in Q.  Rationality of an element
is decidable from the canonical form: if num/den equals r in the field
then num - r*den is a normal form equal to 0, hence num = r*den as
polynomials and gcd cancellation leaves two constants.

The generic package runs the Bernstein-Sato pipeline over the residue
field, picks a rational b, clears denominators into (h, U) over Q[a]
and stores the congruence remainder; the identity

    h b(s) f^s = U(s) f^(s+v) + remainder,   remainder's coefficients in Q

is re-verified by direct action before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .annbs import BSIdeal, bs_ideal_ctx, over_QQ
from .errors import (
    DivisionByZeroModQ,
    FamilyVanishesModQ,
    NonRationalCertificate,
    PointOutsideStratum,
    VerificationFailed,
)
from .factor import exact_div, multi_gcd, squarefree_part
from .fsmodule import (
    _exp,
    b_kernel,
    check_identity,
    congruence_remainder,
    remainder_in_Q,
)
from .groebner import normal_form
from .instance import ProblemInstance, family_ring
from .orders import multi_indices
from .poly import Poly, PolyRing, RationalField
from .primes import PrimeIdealQ, the_zero_prime
from .variables import VarRegistry
from .weyl import WeylOp, WeylRing
from .weyl_groebner import eliminate


class ResidueElem:
    """num/den with both parts normal forms mod Q, den monic and not in Q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return "ResidueElem(%s / %s)" % (self.num, self.den)


class ResidueField:
    """Field operations for Frac(Q[a]/Q); elements are ResidueElem."""

    def __init__(self, Q: PrimeIdealQ):
        self.Q = Q
        self.ring = Q.ring
        self.basis = [self.ring.convert(b) for b in Q.basis]

    def nf(self, poly: Poly) -> Poly:
        poly = self.ring.convert(poly)
        if not self.basis:
            return poly
        return normal_form(poly, self.basis)

    def make(self, num: Poly, den: Poly | None = None) -> ResidueElem:
        if den is None:
            den = self.ring.one()
        num = self.nf(num)
        den = self.nf(den)
        if den.is_zero():
            raise DivisionByZeroModQ("denominator lies in Q")
        if num.is_zero():
            return ResidueElem(self.ring.zero(), self.ring.one())
        # a constant side shares no factor with the other
        if not (num.is_constant() or den.is_constant()):
            g = multi_gcd(num, den)
            if not g.is_constant():
                num = self.nf(exact_div(num, g))
                den = self.nf(exact_div(den, g))
        lc = den.lead_coeff()
        if lc != 1:
            inv = Fraction(1) / lc
            den = den.scale(inv)
            num = num.scale(inv)
        return ResidueElem(num, den)

    # -- field protocol --------------------------------------------------------

    name = "Frac(Q[a]/Q)"

    def zero(self):
        return ResidueElem(self.ring.zero(), self.ring.one())

    def one(self):
        return ResidueElem(self.ring.one(), self.ring.one())

    def from_rational(self, q):
        return ResidueElem(self.ring.const(Fraction(q)), self.ring.one())

    def is_zero(self, e):
        return e.num.is_zero()

    def is_rational_elem(self, e) -> bool:
        return e.num.is_constant() and e.den.is_constant()

    def as_rational(self, e) -> Fraction:
        if not self.is_rational_elem(e):
            raise ValueError("element is not rational: %r" % e)
        num = e.num.const_value()
        den = e.den.const_value()
        return Fraction(num) / Fraction(den)

    def _rational(self, e):
        """The value of e when it is a constant over the constant 1, the form
        ``make`` gives every rational element; None otherwise."""
        num, den = e.num._terms, e.den._terms
        z = self.ring._zero_exp
        if len(den) != 1 or den.get(z) != 1 or len(num) > 1:
            return None
        return num.get(z) if num else 0

    # on two rational operands the result is computed in Fraction; it is
    # the element make would return

    def add(self, a, b):
        p, q = self._rational(a), self._rational(b)
        if p is None or q is None:
            return self.make(a.num * b.den + b.num * a.den, a.den * b.den)
        return self.from_rational(p + q)

    def sub(self, a, b):
        p, q = self._rational(a), self._rational(b)
        if p is None or q is None:
            return self.make(a.num * b.den - b.num * a.den, a.den * b.den)
        return self.from_rational(p - q)

    def neg(self, a):
        return ResidueElem(-a.num, a.den)

    def mul(self, a, b):
        p, q = self._rational(a), self._rational(b)
        if p is None or q is None:
            return self.make(a.num * b.num, a.den * b.den)
        return self.from_rational(p * q)

    def div(self, a, b):
        if b.num.is_zero():
            raise DivisionByZeroModQ("division by zero in the residue field")
        p, q = self._rational(a), self._rational(b)
        if p is None or q is None:
            return self.make(a.num * b.den, a.den * b.num)
        return self.from_rational(p / q)

    def inv(self, a):
        if a.num.is_zero():
            raise DivisionByZeroModQ("cannot invert an element of Q")
        p = self._rational(a)
        if p is None:
            return self.make(a.den, a.num)
        return self.from_rational(1 / p)

    def eq(self, a, b):
        return self.nf(a.num * b.den - b.num * a.den).is_zero()

    def to_str(self, e):
        if e.den.is_constant() and e.den.const_value() == 1:
            return str(e.num)
        return "(%s)/(%s)" % (e.num, e.den)

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
            if not elem.num.is_zero():
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


def _den_lcm(param_ring: PolyRing, coeffs) -> Poly:
    """Monic lcm of the denominators of residue-field coefficients, folded
    in the order given."""
    h = param_ring.one()
    for c in coeffs:
        h = _poly_lcm(h, param_ring.convert(c.den))
    return h


def op_scale_clear(A: WeylOp, param_ring: PolyRing, target: WeylRing):
    """Clear coefficient denominators: h A = A' over Q[a].

    For rational coefficients h is the integer least common denominator;
    for residue coefficients h is the monic polynomial lcm of the stored
    denominators, and parameter monomials fold into central exponents of
    the target ring.
    """
    fld = A.ring.field
    if isinstance(fld, RationalField):
        denlcm = lcm(*(c.denominator for c in A._terms.values()))
        return param_ring.const(denlcm), target.convert(A * denlcm)

    h = _den_lcm(param_ring, A._terms.values())
    terms = []
    for exp, c in A._terms.items():
        cof = exact_div(h, param_ring.convert(c.den)) * param_ring.convert(c.num)
        # the parameters are central, so this product only adds exponents
        term = target.convert(cof) * target.convert(A.ring.monomial(exp))
        terms.extend(term._terms.items())
    return h, target.from_terms(terms)


# -- rationalization -----------------------------------------------------------


@dataclass
class RationalizeResult:
    """A rational member of the ideal with its residue-field certificate."""

    b: Poly  # over Q[s]
    U_residue: WeylOp
    strategy: str


def rationalize(B: BSIdeal, degree_budget: int = 8) -> RationalizeResult:
    """A nonzero element of B with rational coefficients, plus certificate.

    Strategy cascade per the package contract: (i) a generator already
    rational; (ii) product of rational univariate elimination generators;
    (iii) Q-linear combinations of s-monomial multiples and pairwise
    products of generators up to the degree budget.
    """
    F = B.instance.field
    if not B.generators:
        raise NonRationalCertificate("the computed ideal has no generators")
    s_ring = B.instance.rational_s_ring()

    found = _strategy_rational_generator(B, s_ring)
    if found is not None:
        return found
    found = _strategy_univariate_products(B, s_ring)
    if found is not None:
        return found
    found = _strategy_linear_combination(B, F, s_ring, degree_budget)
    if found is not None:
        return found
    raise NonRationalCertificate(
        "no rational element found within degree budget %d" % degree_budget
    )


def _strategy_rational_generator(B, s_ring):
    for g, P in zip(B.generators, B.certificates):
        q = over_QQ(g, s_ring)
        if q is not None and not q.is_zero():
            return RationalizeResult(b=q, U_residue=P, strategy="rational-generator")
    return None


def _strategy_univariate_products(B, s_ring):
    parts = []
    for j in range(B.instance.registry.p):
        part = _univariate_part(B, s_ring, j)
        if part is None:
            return None
        parts.append(part)
    b = s_ring.one()
    for bj, _ in parts:
        b = b * bj
    prefix = s_ring.one()
    for bj, _ in parts[:-1]:
        prefix = prefix * bj
    wring = B.certificates[0].ring if B.certificates else None
    U_last = parts[-1][1]
    U = wring.convert(prefix) * U_last
    return RationalizeResult(b=b, U_residue=U, strategy="univariate-products")


def _univariate_part(B, s_ring, j):
    """Monic rational generator of B intersected with F[s_j], with certificate."""
    ring = B.instance.s_ring()
    gens = [ring.convert(g) for g in B.generators]
    sj = B.instance.registry.s[j]
    members, reps = eliminate(
        gens, [nm for nm in ring.names if nm != sj], track=range(len(gens))
    )
    # the first member of least degree
    best = min(zip(members, reps), key=lambda m: m[0].total_degree(), default=None)
    if best is None:
        return None
    g, rep = best
    bq = over_QQ(g, s_ring)
    if bq is None or bq.is_zero():
        return None
    wring = B.certificates[0].ring
    U = wring.zero()
    for cof, P in zip(rep, B.certificates):
        if cof.is_zero():
            continue
        U = U + wring.convert(cof) * P
    return bq, U


def _strategy_linear_combination(B, F, s_ring, degree_budget):
    s_names = B.instance.registry.s
    ring = B.instance.s_ring()
    param = F.ring
    candidates = []  # (poly over F in s, certificate op)

    def add_candidate(poly, cert):
        if poly.is_zero() or poly.total_degree() > degree_budget:
            return
        key = str(poly)
        if key in seen:
            return
        seen.add(key)
        candidates.append((poly, cert))

    seen = set()
    wring = B.certificates[0].ring
    gens = [ring.convert(g) for g in B.generators]
    for i, (g, P) in enumerate(zip(gens, B.certificates)):
        room = degree_budget - g.total_degree()
        if room < 0:
            continue
        for gamma in multi_indices(len(s_names), room):
            mono = ring.monomial(_exp(ring, s_names, gamma))
            cert = wring.convert(mono) * P
            add_candidate(mono * g, cert)
    for i, (gi, Pi) in enumerate(zip(gens, B.certificates)):
        for j2 in range(i, len(gens)):
            gj, Pj = gens[j2], B.certificates[j2]
            prod = gi * gj
            if prod.total_degree() > degree_budget:
                continue
            cert = wring.convert(gi) * Pj
            add_candidate(prod, cert)

    if not candidates:
        return None

    # unknowns: a rational weight per denominator-cleared candidate, then
    # b's coefficients; one equation per (s-monomial, a-monomial)
    certs = []
    columns = []
    for poly, cert in candidates:
        den = F.make(_den_lcm(param, poly._terms.values()))
        certs.append(cert.scale(den))
        columns.append(
            {
                (sexp, aexp): q
                for sexp, c in poly.scale(den)._terms.items()
                for aexp, q in c.num._terms.items()
            }
        )
    b_exps = sorted({sexp for col in columns for sexp, _ in col})
    unit = (0,) * param.nvars
    columns += [{(sexp, unit): Fraction(-1)} for sexp in b_exps]
    solutions = [t for t in b_kernel(columns, b_exps, s_ring) if not t[0].is_zero()]
    if not solutions:
        return None
    b, weights = min(solutions, key=lambda t: t[0].total_degree())
    U = wring.zero()
    for k, q in weights.items():
        U = U + certs[k].scale(F.from_rational(q))
    return RationalizeResult(b=b, U_residue=U, strategy="linear-combination")


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
    strategy: str
    ideal: BSIdeal


def generic_bs(
    inst: ProblemInstance,
    Q: PrimeIdealQ | None = None,
    budget=None,
    degree_budget: int = 8,
) -> GenericBS:
    """Generic package: rational b valid on V(Q) minus V(h), certified."""
    if Q is None:
        Q = the_zero_prime(inst.param_ring())
    B = bs_ideal_ctx(residue_context(inst, Q), budget=budget)
    res = rationalize(B, degree_budget=degree_budget)

    param = inst.param_ring()
    target = inst.weyl_ring()
    h, U = op_scale_clear(res.U_residue, param, target)
    r = congruence_remainder(h, res.b, U, inst)
    if not remainder_in_Q(r, Q, inst):
        raise VerificationFailed("congruence remainder escaped Q; pipeline bug")
    if B.instance.field.nf(h).is_zero():
        raise VerificationFailed("cleared denominator lies in Q; pipeline bug")
    return GenericBS(
        instance=inst,
        Q=Q,
        h=h,
        h_radical=squarefree_part(h) if not h.is_constant() else param.one(),
        b=res.b,
        U=U,
        remainder=r,
        strategy=res.strategy,
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
