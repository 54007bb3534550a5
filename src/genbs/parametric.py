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

from .annbs import BSIdeal, bs_ideal_ctx
from .errors import (
    DivisionByZeroModQ,
    FamilyVanishesModQ,
    NonRationalCertificate,
    PointOutsideStratum,
    VerificationFailed,
)
from .factor import exact_div, multi_gcd, squarefree_part
from .fsmodule import (
    _echelon_by_priority,
    _multi_indices,
    congruence_remainder,
    check_identity,
    nullspace,
    remainder_in_Q,
)
from .groebner import buchberger, normal_form
from .instance import ProblemInstance
from .orders import Block, GRevLex
from .poly import Poly, PolyRing, QQ, RationalField
from .primes import PrimeIdealQ, the_zero_prime
from .variables import VarRegistry
from .weyl import WeylOp, WeylRing


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

    def add(self, a, b):
        return self.make(a.num * b.den + b.num * a.den, a.den * b.den)

    def sub(self, a, b):
        return self.make(a.num * b.den - b.num * a.den, a.den * b.den)

    def neg(self, a):
        return ResidueElem(-a.num, a.den)

    def mul(self, a, b):
        return self.make(a.num * b.num, a.den * b.den)

    def div(self, a, b):
        if b.num.is_zero():
            raise DivisionByZeroModQ("division by zero in the residue field")
        return self.make(a.num * b.den, a.den * b.num)

    def inv(self, a):
        if a.num.is_zero():
            raise DivisionByZeroModQ("cannot invert an element of Q")
        return self.make(a.den, a.num)

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
    base = PolyRing(F, r.x, GRevLex())
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
    return ProblemInstance(VarRegistry(r.x, r.s), tuple(new_f), inst.v, field=F)


# -- denominator clearing ------------------------------------------------------


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_constant():
        return b.monic() if not b.is_constant() else a.ring.one()
    if b.is_constant():
        return a.monic()
    g = multi_gcd(a, b)
    return (a * exact_div(b, g)).monic()


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

    h = param_ring.one()
    for c in A._terms.values():
        h = _poly_lcm(h, param_ring.convert(c.den))
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
    s_ring = PolyRing(QQ, B.instance.registry.s, GRevLex())

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


def _over_QQ(g: Poly, s_ring: PolyRing) -> Poly | None:
    """g moved into s_ring over Q, None when a coefficient is not rational."""
    try:
        return s_ring.convert(g)
    except ValueError:
        return None


def _strategy_rational_generator(B, s_ring):
    for g, P in zip(B.generators, B.certificates):
        q = _over_QQ(g, s_ring)
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
    others = tuple(i for i, nm in enumerate(ring.names) if nm != sj)
    if others:
        elim = ring.with_order(Block(others))
    else:
        elim = ring
    egens = [elim.convert(g) for g in gens]
    basis, reps = buchberger(egens, cofactors=True)
    best = None
    for g, rep in zip(basis, reps):
        if all(all(exp[i] == 0 for i in others) for exp in g._terms):
            if best is None or g.total_degree() < best[0].total_degree():
                best = (g, rep)
    if best is None:
        return None
    g, rep = best
    bq = _over_QQ(g, s_ring)
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
        for gamma in _multi_indices(len(s_names), room):
            exp = [0] * ring.nvars
            for j, nm in enumerate(s_names):
                exp[ring.index(nm)] = gamma[j]
            mono = ring.monomial(tuple(exp))
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

    # clear denominators per candidate, collect Q-linear equations
    cleared = []
    for poly, cert in candidates:
        den = param.one()
        for c in poly._terms.values():
            den = _poly_lcm(den, param.convert(c.den))
        scaled = poly.scale(F.make(den))
        cert2 = cert.scale(F.make(den))
        cleared.append((scaled, cert2))

    s_monomials = sorted(
        {exp for poly, _ in cleared for exp in poly._terms},
        key=s_ring.order.key,
    )
    a_monomials = set()
    coeff_table = []
    for poly, _ in cleared:
        row = {}
        for exp, c in poly._terms.items():
            npoly = F.nf(param.convert(c.num))
            row[exp] = npoly
            for aexp in npoly._terms:
                a_monomials.add(aexp)
        coeff_table.append(row)
    a_monomials.add((0,) * param.nvars)
    a_monomials = sorted(a_monomials)

    ncand = len(cleared)
    nb = len(s_monomials)
    ncols = ncand + nb
    rows = []
    unit_a = (0,) * param.nvars
    for si, sexp in enumerate(s_monomials):
        for aexp in a_monomials:
            row = [Fraction(0)] * ncols
            nontrivial = False
            for k in range(ncand):
                npoly = coeff_table[k].get(sexp)
                if npoly is None:
                    continue
                c = npoly._terms.get(aexp)
                if c:
                    row[k] = c
                    nontrivial = True
            if aexp == unit_a:
                row[ncand + si] = Fraction(-1)
                nontrivial = True
            if nontrivial:
                rows.append(row)

    kernel = nullspace(rows, ncols)
    if not kernel:
        return None
    border = sorted(
        range(nb), key=lambda i: s_ring.order.key(s_monomials[i]), reverse=True
    )
    priority = [ncand + i for i in border] + list(range(ncand))
    reduced = _echelon_by_priority(kernel, priority)
    ring_q = PolyRing(QQ, ring.names, GRevLex())
    best = None
    for vec in reduced:
        bterms = [(sexp, vec[ncand + i]) for i, sexp in enumerate(s_monomials)]
        b = s_ring.convert(ring_q.from_terms(bterms))
        if b.is_zero():
            continue
        if best is None or b.total_degree() < best[0].total_degree():
            best = (b, vec)
    if best is None:
        return None
    b, vec = best
    U = wring.zero()
    for k in range(ncand):
        if vec[k]:
            U = U + cleared[k][1].scale(F.from_rational(vec[k]))
    lc = b.lead_coeff()
    b = b.monic()
    U = U.scale(F.from_rational(Fraction(1) / lc))
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
    r = inst.registry
    if isinstance(point, dict):
        values = {nm: Fraction(point[nm]) for nm in r.a}
    else:
        point = tuple(point)
        if len(point) != r.m:
            raise PointOutsideStratum("parameter point has wrong length")
        values = {nm: Fraction(q) for nm, q in zip(r.a, point)}

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
