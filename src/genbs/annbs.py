"""Ann f^s and the Bernstein-Sato ideal B^v(f), with certificates.

Pipeline: the extended left ideal generated by

    t_j - u_j f_j,   d_i + sum_j u_j (df_j/dx_i) dt_j,   u_j y_j - 1

is intersected with the subalgebra free of u, y via a block elimination
order; survivors are balanced to matched t/dt powers and rewritten
through t^c dt^c = (t dt)(t dt - 1)..(t dt - c + 1) with t_j dt_j = -s_j - 1,
landing in A_n(R)[s].  Appending f^v = prod f_j^v_j and eliminating x, dx
yields the Bernstein-Sato ideal in R[s]; the left-reduction cofactor of
the f^v generator is the certificate operator P with b f^s = P f^(s+v).

Every ring comes from the instance, over its coefficient field, so the
same code serves instances over Q (parameters as central variables) and
over a residue field Frac(Q[a]/Q) of the parameter ring (parameters as
field elements).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationFailed, ZeroPolynomialError
from .factor import factor, rational_roots
from .fsmodule import FsElement, act, check_identity
from .instance import ProblemInstance
from .orders import Block, GRevLex
from .poly import Poly, PolyRing, QQ
from .weyl import WeylOp, WeylRing
from .weyl_groebner import (
    GBBudget,
    LeftIdealW,
    left_buchberger,
    subring_elements,
    weight0_extract,
    weight_vector,
)


@dataclass
class BSIdeal:
    """Verified members of the Bernstein-Sato ideal with certificates.

    ``generators[i]`` lies in the instance's ``s_ring`` (parameters and
    s); ``certificates[i]`` is the operator P with
    generators[i] * f^s = P f^(s+v).  ``elimination_basis`` is the full
    left basis the intersection was read from.
    """

    instance: ProblemInstance
    generators: list
    certificates: list
    ann_basis: list
    elimination_basis: list

    def is_zero(self):
        return not self.generators


def malgrange_ideal(inst: ProblemInstance) -> LeftIdealW:
    """The extended left ideal whose elimination yields Ann f^s."""
    ring = inst.malgrange_ring()
    t = [ring.gen(nm) for nm in inst.aux("t")]
    u = [ring.gen(nm) for nm in inst.aux("u")]
    dt = [ring.gen(nm) for nm in inst.aux("dt")]
    y = [ring.gen(nm) for nm in inst.aux("y")]
    f_ops = [ring.convert(fj) for fj in inst.f]
    p = inst.registry.p

    gens = []
    for j in range(p):
        gens.append(t[j] - u[j] * f_ops[j])
    for xn in inst.registry.x:
        g = ring.gen("d" + xn)
        for j in range(p):
            df = inst.f[j].diff(xn)
            if not df.is_zero():
                g = g + u[j] * ring.convert(df) * dt[j]
        gens.append(g)
    for j in range(p):
        gens.append(u[j] * y[j] - 1)
    return LeftIdealW(ring=ring, generators=gens)


def _malgrange_weights(ring, inst):
    """The +1/-1 grading on t, u versus dt, y, one aggregate vector."""
    assignment = {}
    for nm in inst.aux("t"):
        assignment[nm] = 1
    for nm in inst.aux("u"):
        assignment[nm] = 1
    for nm in inst.aux("dt"):
        assignment[nm] = -1
    for nm in inst.aux("y"):
        assignment[nm] = -1
    return weight_vector(ring, assignment)


def ann_fs_ctx(inst: ProblemInstance, budget: GBBudget | None = None) -> LeftIdealW:
    """Generators of Ann f^s in A_n(R)[s], not yet verified."""
    ideal = malgrange_ideal(inst)
    ring = ideal.ring
    front = [ring.index(nm) for nm in inst.aux("u") + inst.aux("y")]
    elim_ring = ring.with_order(Block(tuple(sorted(front))))
    gens = [elim_ring.convert(g) for g in ideal.generators]
    w = _malgrange_weights(elim_ring, inst)
    basis = left_buchberger(gens, budget=budget, weight_vectors=(w,))
    kept = subring_elements(basis, inst.aux("u") + inst.aux("y"))
    balanced = weight0_extract(
        kept,
        elim_ring,
        inst.aux("t"),
        inst.aux("dt"),
        u_names=inst.aux("u"),
        y_names=inst.aux("y"),
    )
    target = inst.weyl_ring()
    out = [_theta_substitute(g, elim_ring, target, inst) for g in balanced]
    out = [g for g in out if not g.is_zero()]
    return LeftIdealW(ring=target, generators=out)


def _theta_substitute(op: WeylOp, source: WeylRing, target: WeylRing, inst: ProblemInstance):
    """Rewrite matched t^c dt^c blocks as falling factorials in -s_j - 1.

    Uses t^c dt^c = (t dt)(t dt - 1)..(t dt - c + 1) and t_j dt_j = -s_j - 1;
    the substituted symbol is central on the remaining generators, so the
    rewrite respects products.
    """
    t_idx = [source.index(nm) for nm in inst.aux("t")]
    dt_idx = [source.index(nm) for nm in inst.aux("dt")]
    tset = set(t_idx) | set(dt_idx)
    s_ops = [target.gen(nm) for nm in inst.registry.s]
    out = target.zero()
    for exp, c in op._terms.items():
        sub = target.one()
        for j, (ti, di) in enumerate(zip(t_idx, dt_idx)):
            cj = exp[ti]
            if exp[di] != cj:
                raise VerificationFailed("unmatched t/dt powers reached substitution")
            for i in range(cj):
                sub = sub * (-s_ops[j] - (1 + i))
        base = [0] * target.nvars
        for i, e in enumerate(exp):
            if e and i not in tset:
                base[target.index(source.names[i])] = e
        out = out + target.monomial(tuple(base), c) * sub
    return out


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
    """(Ann f^s + A_n(R)[s] f^v) intersected with R[s], certificates included."""
    ann = ann_fs_ctx(inst, budget=budget)
    ring = ann.ring
    fv = ring.convert(inst.f_power_v())
    gens = list(ann.generators) + [fv]

    xd = inst.registry.x + inst.registry.d_names()
    front = tuple(sorted(ring.index(nm) for nm in xd))
    elim_ring = ring.with_order(Block(front))
    egens = [elim_ring.convert(g) for g in gens]
    basis, reps = left_buchberger(egens, cofactors=True, budget=budget)

    s_only = []
    certs = []
    s_ring = inst.s_ring()
    for g, rep in zip(basis, reps):
        if all(all(exp[i] == 0 for i in front) for exp in g._terms):
            s_only.append(s_ring.convert(g))
            certs.append(ring.convert(rep[-1]))
    return BSIdeal(
        instance=inst,
        generators=s_only,
        certificates=certs,
        ann_basis=list(ann.generators),
        elimination_basis=list(basis),
    )


def bs_ideal(inst: ProblemInstance, budget: GBBudget | None = None) -> BSIdeal:
    """Bernstein-Sato ideal over the plain coefficients, verified.

    Over Q the parameters are central variables, so every generator's
    identity b f^s = P f^(s+v) holds literally over Q[a]; each one is
    replayed once by direct action, and a failure raises
    VerificationFailed.
    """
    B = bs_ideal_ctx(inst, budget=budget)
    for b, P in zip(B.generators, B.certificates):
        if not check_identity(b, P, inst):
            raise VerificationFailed(
                "certificate fails the functional identity for %s" % b
            )
    return B


@dataclass
class BernsteinPoly:
    """Monic generator for p = 1 with its certificate and factorization."""

    b: Poly
    certificate: WeylOp
    factorization: object
    ideal: BSIdeal


def bs_poly(inst: ProblemInstance, budget: GBBudget | None = None) -> BernsteinPoly:
    """The Bernstein polynomial: monic generator of B^v(f) for p = 1.

    B^v(f) is principal, and a reduced elimination basis holds at most
    one element of Q[s] (two leads s^i, s^j would divide each other).
    So (b, P) is the one reduced, hence monic, pair that bs_ideal
    already replayed; a second member raises VerificationFailed.
    """
    if inst.registry.p != 1:
        raise ValueError("the Bernstein polynomial is defined for p = 1")
    if inst.registry.m != 0:
        raise ValueError("plain rational coefficients required; specialize first")
    B = bs_ideal(inst, budget=budget)
    if not B.generators:
        raise ZeroPolynomialError(
            "no nonzero element found in B^v(f); enlarge budgets"
        )
    if len(B.generators) > 1:
        raise VerificationFailed(
            "B^v(f) is principal, but the elimination basis has %d members"
            % len(B.generators)
        )
    g, P = B.generators[0], B.certificates[0]
    return BernsteinPoly(
        b=g, certificate=P, factorization=factor(g), ideal=B
    )


def rationality_report(B: BSIdeal) -> dict:
    """Which generators lie in Q[s], with exact root data per factor."""
    r = B.instance.registry
    out = {"generators": [], "rational_element_found": False}
    for g in B.generators:
        entry = {"poly": str(g), "rational": None, "factors": []}
        entry["rational"] = _is_rational_poly(g, r.a)
        if entry["rational"]:
            out["rational_element_found"] = True
            gq = PolyRing(QQ, r.s, GRevLex()).convert(g)
            fac = factor(gq)
            all_neg = True
            for piece, mult, certified in fac.factors:
                rec = {
                    "factor": str(piece),
                    "multiplicity": mult,
                    "irreducible_certified": bool(certified),
                    "roots": [],
                }
                used = piece.variables()
                if len(used) == 1:
                    var = used[0]
                    rec["variable"] = piece.ring.names[var]
                    try:
                        roots = rational_roots(piece, var)
                    except ValueError:
                        roots = []
                    rec["roots"] = [str(r) for r in roots]
                    deg = piece.degree_in(var)
                    if deg != len(roots) or any(r >= 0 for r in roots):
                        all_neg = False
                else:
                    all_neg = False
                entry["factors"].append(rec)
            entry["all_roots_negative_rational"] = all_neg
        out["generators"].append(entry)
    return out


def _is_rational_poly(g: Poly, a_names) -> bool:
    """True when every coefficient is a plain rational (no parameter part)."""
    fld = g.ring.field
    if fld == QQ:
        a_idx = [g.ring.index(nm) for nm in a_names if nm in g.ring._index]
        return all(all(exp[i] == 0 for i in a_idx) for exp in g._terms)
    rational = getattr(fld, "is_rational_elem", None)
    if rational is None:
        return False
    return all(rational(c) for c in g._terms.values())
