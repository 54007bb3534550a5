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

from .errors import HomogeneityViolation, MixedRingError, VerificationFailed, ZeroPolynomialError
from .factor import Factorization, factor
from .fsmodule import FsElement, act, check_identity
from .instance import ProblemInstance
from .poly import Poly, PolyRing
from .weyl import WeylOp, WeylRing
from .weyl_groebner import GBBudget, LeftIdealW, eliminate


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


def ann_fs_ctx(inst: ProblemInstance, budget: GBBudget | None = None) -> LeftIdealW:
    """Generators of Ann f^s in A_n(R)[s], not yet verified.

    The Malgrange generators are homogeneous for the weight +1 on each t
    and u, -1 on each dt and y, and 0 elsewhere, so every element of the
    elimination basis is too: the engine asserts it on each one.  The
    basis members free of u and y are balanced per (t, dt) pair (see
    ``_balance``) and rewritten in s (see ``_theta_substitute``).  They
    cover the weight-zero part of the ideal: a weight-zero member reduces
    to zero against left multiples of the members, and those multiples
    are reachable from the balanced members by weight-zero monomials.
    """
    ideal = malgrange_ideal(inst)
    ring = ideal.ring
    w = [0] * ring.nvars
    for prefix, sign in (("t", 1), ("u", 1), ("dt", -1), ("y", -1)):
        for nm in inst.aux(prefix):
            w[ring.index(nm)] = sign
    kept = eliminate(
        ideal.generators,
        inst.aux("u") + inst.aux("y"),
        budget=budget,
        weight_vectors=(w,),
    )
    pairs = list(zip(map(ring.index, inst.aux("t")), map(ring.index, inst.aux("dt"))))
    target = inst.weyl_ring()
    out = []
    for g in kept:
        g = _theta_substitute(_balance(g, pairs), pairs, target, inst)
        if not g.is_zero():
            out.append(g)
    return LeftIdealW(ring=target, generators=out)


def _balance(g: WeylOp, pairs):
    """Left-multiply g so every (t, dt) pair has net degree zero.

    An element whose degree t_j - dt_j is d_j > 0 is left-multiplied by
    dt_j^d_j, one with d_j < 0 by t_j^-d_j; the product lies in the left
    ideal.  Each pair's degree must be one number on all of g
    (HomogeneityViolation otherwise): for p >= 2 the aggregate weight
    that the engine asserts does not imply it.
    """
    ring = g.ring
    mults = [0] * ring.nvars
    for ti, di in pairs:
        degs = {exp[ti] - exp[di] for exp in g._terms}
        if len(degs) > 1:
            raise HomogeneityViolation(
                "element is not homogeneous in a t/dt pair degree: %s" % g
            )
        d = degs.pop()
        if d > 0:
            mults[di] += d
        elif d < 0:
            mults[ti] += -d
    if not any(mults):
        return g
    return ring.monomial(tuple(mults)) * g


def _theta_substitute(op: WeylOp, pairs, target: WeylRing, inst: ProblemInstance):
    """Rewrite matched t^c dt^c blocks as falling factorials in -s_j - 1.

    ``pairs`` holds the (t_j, dt_j) indices of op's ring.  Uses
    t^c dt^c = (t dt)(t dt - 1)..(t dt - c + 1) and t_j dt_j = -s_j - 1;
    the substituted symbol is central on the remaining generators, so the
    rewrite respects products.  A term whose t_j and dt_j powers differ
    raises VerificationFailed: this is the one check that balancing
    matched them.
    """
    source = op.ring
    tset = {i for pair in pairs for i in pair}
    s_ops = [target.gen(nm) for nm in inst.registry.s]
    out = target.zero()
    for exp, c in op._terms.items():
        sub = target.one()
        for j, (ti, di) in enumerate(pairs):
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
    # only the cofactor of f^v is read: it is the certificate P
    members, reps = eliminate(
        gens,
        inst.registry.x + inst.registry.d_names(),
        track=(len(gens) - 1,),
        budget=budget,
    )
    s_ring = inst.s_ring()
    return BSIdeal(
        instance=inst,
        generators=[s_ring.convert(g) for g in members],
        certificates=[rep[0] for rep in reps],
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
    factorization: Factorization
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
