"""Ann f^s and the Bernstein-Sato ideal B^v(f), with certificates.

Pipeline (Briancon-Maisonobe): in A_n(R)[s]<dt> with dt_j s_j =
(s_j - 1) dt_j, the left ideal generated by

    s_j + f_j dt_j,   d_i + sum_j (df_j/dx_i) dt_j

meets A_n(R)[s] in Ann f^s, so one elimination of dt gives its
generators.  Appending f^v = prod f_j^v_j, the Bernstein-Sato ideal is
the intersection of the left ideal I = Ann f^s + A_n(R)[s] f^v with
R[s], reached by one of two routes, chosen by what is reported:

- the least-degree member b in Q[s], with its one certificate: ``bs``
  for p = 1 over Q, and every job over a residue field Frac(Q[a]/Q)
  (``generic_bs``, hence ``stratify``), whatever p is.  One left Groebner
  basis of I in the order of ``inst.weyl_ring()`` gives the normal forms
  of the s-monomials, and ``rationalize`` finds their first rational
  linear dependence (M. Noro, ICMS 2002; for p >= 2, Andres,
  Levandovskyy & Martin Morales, ISSAC 2009).
- all of the intersection: ``bs`` for p >= 2 over Q, or with parameters
  as central variables, where it need not be principal and the normal
  forms of the s^k need never become dependent over Q.  One elimination
  of x, dx gives it.

Either way the left-reduction cofactor of the f^v generator gives a
certificate operator P with b f^s = P f^(s+v).

P is defined only modulo Ann f^(s+v) = sigma_v(Ann f^s), where sigma_v
maps s_j to s_j + v_j.  Every certificate has one form, over Q and over
a residue field alike: ``bs_ideal_ctx`` reports P as its normal form
modulo a reduced left Groebner basis of that ideal, whose S-pairs count
against the budget.  So P depends only on f, v, b and the term order,
though over a field such as Frac(Q[a,b]/<ab-1>) how its coefficients
print may depend on the path (``ResidueField.make`` gives them no unique
form).

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
from .orders import multi_indices
from .poly import QQ, Poly, PolyRing
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

    Over a residue field, and over Q for p = 1 with no central parameter
    (m = 0), the one generator is the least-degree member b of the
    intersection in Q[s], read off a tracked left basis of the ideal by
    ``rationalize``.  Over Q with a central parameter (m > 0) the
    coefficients Q[a] are no field, and the normal forms of the s^k need
    never become dependent over Q (the ideal of x^2 + a*y^2 meets
    Q[a][s] in a*(s+1)^2, with no member in Q[s]); over Q with p >= 2 the
    ideal lives in Q[s_1..s_p] and need not be principal.  There every
    member comes from one elimination of x, dx.

    Each certificate P, the cofactor of f^v in the member, is
    reported as its normal form modulo the reduced left Groebner basis of
    sigma_v(Ann f^s) = Ann f^(s+v) in the order of ``inst.weyl_ring()``,
    over Q and over a residue field alike; two certificates of one b
    differ by a member of that ideal.  That basis counts against
    ``budget``.  Nothing is replayed here: ``bs_ideal`` replays over Q,
    and ``generic_bs`` reads the certificate over a residue field.
    """
    ann = ann_fs_ctx(inst, budget=budget)
    ring = ann.ring
    fv = ring.convert(inst.f_power_v())
    gens = list(ann.generators) + [fv]
    # only the cofactor of f^v is read: it is the certificate P
    track = (len(gens) - 1,)
    r = inst.registry
    if inst.field is QQ and (r.p > 1 or r.m > 0):
        members, reps = eliminate(
            gens, r.x + r.d_names(), track=track, budget=budget
        )
    else:
        basis, basis_reps = left_buchberger(gens, track=track, budget=budget)
        b, u = rationalize(basis, basis_reps, inst)
        members, reps = [b], [u]
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


def rationalize(basis, reps, inst: ProblemInstance):
    """(b, u): the monic least-degree member b of the left ideal in Q[s],
    and u[t] its cofactor of the t-th tracked generator.

    ``basis`` is a left Groebner basis with reps[i][t] the cofactor of
    the t-th tracked generator in basis[i].  Every s-monomial s^g has
    s^g = sum_i q_gi basis_i + r_g, and a rational sum_g c_g s^g lies in
    the ideal exactly when sum_g c_g r_g = 0.  The search takes the s^g
    of total degree at most d, for d = 0, 1, ...: the r_g give a linear
    system in the c_g over Q (over a residue field, each coefficient is
    first split along the monomials of Q[a] mod Q by
    ``ResidueField.rational_equations``), and the first kernel vector of
    ``b_kernel`` gives b, monic.  Then u[t] = sum_i (sum_g c_g q_gi)
    reps[i][t].  (M. Noro, *An efficient modular algorithm for computing
    the global b-function*, ICMS 2002.)

    The search ends by a theorem, not a cap: Bernstein's theorem for p = 1
    over Q, and over a residue field, on an irreducible V(Q), the generic
    Bernstein-Sato ideal contains a nonzero rational polynomial
    (arXiv math/0307168).
    """
    ring = basis[0].ring
    places = [ring.index(name) for name in inst.registry.s]
    s_ring = inst.rational_s_ring()
    gammas, remainders, quotients = [], [], {}
    degree = 0
    while True:
        for gamma in multi_indices(len(places), degree)[len(gammas) :]:
            exp = [0] * ring.nvars
            for i, e in zip(places, gamma):
                exp[i] = e
            r, quotients[gamma] = normal_form(
                ring.monomial(exp), basis, with_cofactors=True
            )
            gammas.append(gamma)
            remainders.append(r)
        if inst.field is QQ:
            columns = [r._terms for r in remainders]
        else:
            columns = inst.field.rational_equations(remainders)
        kernel = b_kernel(columns, gammas, s_ring)
        if kernel:
            break
        degree += 1
    b = kernel[0][0]
    u = [ring.zero() for _ in reps[0]]
    for i, rep in enumerate(reps):
        qi = ring.zero()
        for gamma, c in b._terms.items():
            qi = qi + quotients[gamma][i].scale(c)
        if not qi.is_zero():
            u = [ut + qi * rt for ut, rt in zip(u, rep)]
    return b, u


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
