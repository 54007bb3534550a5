"""Ann f^s and the Bernstein-Sato ideal B^v(f), with certificates.

Pipeline (Briancon-Maisonobe): in A_n(R)[s]<dt> with dt_j s_j =
(s_j - 1) dt_j, the left ideal generated by

    s_j + f_j dt_j,   d_i + sum_j (df_j/dx_i) dt_j

meets A_n(R)[s] in Ann f^s, so one elimination of dt gives its
generators.  Appending f^v = prod f_j^v_j, the Bernstein-Sato ideal is
the intersection of the left ideal I = Ann f^s + A_n(R)[s] f^v with
R[s], reached by one of two routes:

- p = 1 and no central parameter: R is a field K (Q, or a residue field
  Frac(Q[a]/Q)), so I meets K[s] in the multiples of one monic b, the
  minimal polynomial of s modulo I.  One left Groebner basis of I in the
  order of ``inst.weyl_ring()`` gives the normal forms of 1, s, s^2, ...,
  and their first linear dependence is b (M. Noro, ICMS 2002).
- otherwise (p >= 2, or parameters as central variables, where the
  intersection need not be principal): one elimination of x, dx.

Either way the left-reduction cofactor of the f^v generator gives a
certificate operator P with b f^s = P f^(s+v).

P is defined only modulo Ann f^(s+v) = sigma_v(Ann f^s), where sigma_v
maps s_j to s_j + v_j.  Every certificate has one form, over Q and over
a residue field alike: ``bs_ideal_ctx`` reports P as its normal form
modulo a reduced left Groebner basis of that ideal, whose S-pairs count
against the budget.  So P depends only on f, v, b and the term order,
though over a field such as Frac(Q[a,b]/<ab-1>) how its coefficients
print may depend on the path (``ResidueField.make`` gives them no unique
form).  A U that ``generic_bs`` combines from several P is no normal form.

Every ring comes from the instance, over its coefficient field, so the
same code serves instances over Q (parameters as central variables) and
over a residue field Frac(Q[a]/Q) of the parameter ring (parameters as
field elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import MixedRingError, VerificationFailed
from .factor import Factorization, factor
from .fsmodule import FsElement, act, b_kernel, check_identity
from .groebner import normal_form
from .instance import ProblemInstance
from .poly import Poly, PolyRing
from .weyl import WeylOp
from .weyl_groebner import GBBudget, LeftIdealW, eliminate, left_buchberger


@dataclass
class BSIdeal:
    """Verified members of the Bernstein-Sato ideal with certificates.

    ``generators[i]`` lies in the instance's ``s_ring`` (parameters and
    s); ``certificates[i]`` is the operator P with
    generators[i] * f^s = P f^(s+v).
    """

    instance: ProblemInstance
    generators: list
    certificates: list

    def is_zero(self):
        return not self.generators


def ann_fs_ctx(inst: ProblemInstance, budget: GBBudget | None = None) -> LeftIdealW:
    """Generators of Ann f^s in A_n(R)[s], not yet verified.

    Acting on f^s by dt_j g(s) f^s = -s_j g(s - e_j) f^(s - e_j), the
    generators s_j + f_j dt_j and d_i + sum_j (df_j/dx_i) dt_j kill f^s,
    and the members free of dt of their left ideal generate Ann f^s
    (J. Briancon & Ph. Maisonobe, *Remarques sur l'ideal de Bernstein
    associe a des polynomes*, 2002; Levandovskyy & Martin Morales,
    ISSAC 2008).  They come from one ``eliminate`` with dt in front and
    are moved into ``inst.weyl_ring()``.
    """
    ring = inst.annihilator_ring()
    dt = [ring.gen(nm) for nm in inst.dt_names()]
    gens = [
        ring.gen(sj) + ring.convert(fj) * dtj
        for sj, fj, dtj in zip(inst.registry.s, inst.f, dt)
    ]
    for xn in inst.registry.x:
        g = ring.gen("d" + xn)
        for fj, dtj in zip(inst.f, dt):
            df = fj.diff(xn)
            if not df.is_zero():
                g = g + ring.convert(df) * dtj
        gens.append(g)
    target = inst.weyl_ring()
    kept = eliminate(gens, inst.dt_names(), budget=budget)
    return LeftIdealW(ring=target, generators=[target.convert(g) for g in kept])


def ann_fs(inst: ProblemInstance, budget: GBBudget | None = None) -> LeftIdealW:
    """Ann f^s with every generator replayed once: it must kill f^s
    exactly, or VerificationFailed is raised."""
    ideal = ann_fs_ctx(inst, budget=budget)
    symbol = FsElement.symbol(inst)
    for g in ideal.generators:
        if not act(g, symbol).is_zero():
            raise VerificationFailed(
                "annihilator candidate fails to kill f^s: %s" % g
            )
    return ideal


def bs_ideal_ctx(inst: ProblemInstance, budget: GBBudget | None = None) -> BSIdeal:
    """(Ann f^s + A_n(R)[s] f^v) intersected with R[s], certificates included.

    For p = 1 and m = 0 the coefficients R form a field K, so the
    intersection is generated by the minimal polynomial b of s modulo the
    left ideal, read off by ``_minimal_polynomial_of_s``.  That loop
    ends: Bernstein's theorem gives a nonzero b, say of degree d, so the
    normal forms of 1, s, ..., s^d are linearly dependent over K.  With
    a central parameter (m > 0) the coefficients Q[a] are no field, and
    the normal forms of the s^k need never become dependent over Q (the
    ideal of x^2 + a*y^2 meets Q[a][s] in a*(s+1)^2, with no member in
    Q[s]); for p >= 2 the ideal lives in K[s_1..s_p] and need not be
    principal.  There the members come from one elimination of x, dx.

    Each certificate P, the cofactor of f^v in the member, is
    reported as its normal form modulo the reduced left Groebner basis of
    sigma_v(Ann f^s) = Ann f^(s+v) in the order of ``inst.weyl_ring()``,
    over Q and over a residue field alike; two certificates of one b
    differ by a member of that ideal.  That basis counts against
    ``budget``.  Nothing is replayed here: ``bs_ideal`` replays over Q,
    and ``generic_bs`` reads these certificates over a residue field.
    """
    ann = ann_fs_ctx(inst, budget=budget)
    ring = ann.ring
    fv = ring.convert(inst.f_power_v())
    gens = list(ann.generators) + [fv]
    # only the cofactor of f^v is read: it is the certificate P
    if inst.registry.p == 1 and inst.registry.m == 0:
        members, reps = _minimal_polynomial_of_s(gens, inst, budget)
    else:
        members, reps = eliminate(
            gens,
            inst.registry.x + inst.registry.d_names(),
            track=(len(gens) - 1,),
            budget=budget,
        )
    certificates = []
    if reps:
        shifted = [_shift_s(g, inst) for g in ann.generators]
        gb = left_buchberger(shifted, budget=budget)
        certificates = [normal_form(rep[0], gb) for rep in reps]
    s_ring = inst.s_ring()
    return BSIdeal(
        instance=inst,
        generators=[s_ring.convert(g) for g in members],
        certificates=certificates,
    )


def _minimal_polynomial_of_s(gens, inst: ProblemInstance, budget: GBBudget | None):
    """([b], [[P]]) for p = 1 and m = 0, by Noro's method.

    b is the minimal polynomial of s modulo the left ideal I of ``gens``
    (Ann f^s and f^v last): one tracked left basis of I in the order of
    ``inst.weyl_ring()``, then the normal forms r_k of s^k, k = 0, 1, ...,
    until the first linear dependence sum_k c_k r_k = 0 over the field.
    With s^k = sum_i q_ki g_i + r_k and g_i = rep_i f^v modulo Ann f^s,
    b = sum_k c_k s^k acts on f^s as P f^(s+v) for
    P = sum_i (sum_k c_k q_ki) rep_i.  The c_k come from ``b_kernel``
    with every column a b column, so b is monic.  (M. Noro, *An efficient
    modular algorithm for computing the global b-function*, ICMS 2002.)
    """
    basis, reps = left_buchberger(gens, track=(len(gens) - 1,), budget=budget)
    ring = gens[0].ring
    s_ring = inst.s_ring()
    s = ring.gen(inst.registry.s[0])
    power = ring.one()
    columns, quotients = [], []
    while True:
        r, q = normal_form(power, basis, with_cofactors=True)
        columns.append(r._terms)
        quotients.append(q)
        kernel = b_kernel(columns, [(k,) for k in range(len(columns))], s_ring)
        if kernel:
            break
        power = power * s
    b = kernel[0][0]
    P = ring.zero()
    for i, rep in enumerate(reps):
        qi = ring.zero()
        for (k,), c in b._terms.items():
            qi = qi + quotients[k][i].scale(c)
        if not qi.is_zero():
            P = P + qi * rep[0]
    return [b], [[P]]


def bs_ideal(inst: ProblemInstance, budget: GBBudget | None = None) -> BSIdeal:
    """Bernstein-Sato ideal over the plain coefficients, verified.

    ``bs_ideal_ctx`` with its one replay: over Q the parameters are
    central variables, so every generator's identity b f^s = P f^(s+v),
    with P in normal form modulo Ann f^(s+v), holds literally over Q[a];
    each one is replayed once by direct action, and a failure raises
    VerificationFailed.
    """
    B = bs_ideal_ctx(inst, budget=budget)
    for b, P in zip(B.generators, B.certificates):
        if not check_identity(b, P, inst):
            raise VerificationFailed(
                "certificate fails the functional identity for %s" % b
            )
    return B


def _shift_s(g: WeylOp, inst: ProblemInstance) -> WeylOp:
    """sigma_v(g): every s_j replaced by s_j + v_j.

    s is central, so sigma_v is a ring automorphism of A_n(R)[s], and it
    maps Ann f^s onto Ann f^(s+v).  Each term's power of s_j is expanded
    by the binomial theorem.
    """
    ring = g.ring
    terms = list(g._terms.items())
    for name, vj in zip(inst.registry.s, inst.v):
        i = ring.index(name)
        terms = [
            (exp[:i] + (k,) + exp[i + 1 :], c * (comb(exp[i], k) * vj ** (exp[i] - k)))
            for exp, c in terms
            for k in range(exp[i] + 1)
        ]
    return ring.from_terms(terms)


@dataclass
class BernsteinPoly:
    """Monic generator for p = 1 with its certificate and factorization."""

    b: Poly
    certificate: WeylOp
    factorization: Factorization
    ideal: BSIdeal


def bs_poly(inst: ProblemInstance, budget: GBBudget | None = None) -> BernsteinPoly:
    """The Bernstein polynomial: monic generator of B^v(f) for p = 1.

    For p = 1 over Q, b is the minimal polynomial of s modulo
    Ann f^s + A_n[s] f^v, so it is unique and monic; (b, P) is the one
    pair that ``bs_ideal`` already replayed.
    """
    if inst.registry.p != 1:
        raise ValueError("the Bernstein polynomial is defined for p = 1")
    if inst.registry.m != 0:
        raise ValueError("plain rational coefficients required; specialize first")
    B = bs_ideal(inst, budget=budget)
    (g,), (P,) = B.generators, B.certificates
    return BernsteinPoly(
        b=g, certificate=P, factorization=factor(g), ideal=B
    )


def rationality_report(B: BSIdeal, factorization: Factorization | None = None) -> dict:
    """Which generators lie in Q[s], with exact root data per factor.

    The roots are those ``factor`` splits off (:meth:`Factorization.roots`).
    ``factorization`` is that of B's one generator when the caller holds
    it already, as ``bs_poly`` does for p = 1; otherwise each rational
    generator is factored here.
    """
    if factorization is not None and len(B.generators) != 1:
        raise ValueError("a factorization is given for one generator only")
    s_ring = B.instance.rational_s_ring()
    out = {"generators": [], "rational_element_found": False}
    for g in B.generators:
        gq = over_QQ(g, s_ring)
        entry = {"poly": str(g), "rational": gq is not None, "factors": []}
        if gq is not None:
            out["rational_element_found"] = True
            fac = factor(gq) if factorization is None else factorization
            roots = fac.roots()
            for (piece, mult, certified), rs in zip(fac.factors, roots):
                rec = {
                    "factor": str(piece),
                    "multiplicity": mult,
                    "irreducible_certified": bool(certified),
                    "roots": [str(r) for r in rs],
                }
                used = piece.variables()
                if len(used) == 1:
                    rec["variable"] = piece.ring.names[used[0]]
                entry["factors"].append(rec)
            # only a linear factor lists a root, so each factor needs one
            negative = all(rs and rs[0] < 0 for rs in roots)
            entry["all_roots_negative_rational"] = negative
        out["generators"].append(entry)
    return out


def over_QQ(g: Poly, ring: PolyRing) -> Poly | None:
    """g moved into ring over Q, or None when a coefficient is not
    rational: it involves a parameter, or is a non-rational residue."""
    try:
        return ring.convert(g)
    except (ValueError, MixedRingError):
        return None
