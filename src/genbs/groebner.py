"""Commutative Groebner bases over a coefficient field, with certificates.

The engine is a plain Buchberger loop with the Gebauer-Moeller variant of
Buchberger's two criteria, normal pair selection, and a final
minimalization plus interreduction pass.  Every routine is deterministic:
given the same ring (including its term order) and the same generator
list, the reduced basis comes out identical.

When ``cofactors=True`` the basis is returned together with an expression
of every basis element as an explicit polynomial combination of the input
generators, which is what certificate extraction downstream relies on.
"""

from __future__ import annotations

from .errors import MissingBasisError, UnitIdealError
from .orders import (
    Block,
    GRevLex,
    mono_div,
    mono_divides,
    mono_is_one,
    mono_lcm,
    mono_mul,
)
from .poly import Poly, PolyRing


def reduce_step(f: Poly, basis):
    """One top-reduction step of f by the first basis element that divides.

    Returns (g, i, m, c) with g = f - c*m*basis[i], or None when the lead
    of f is irreducible.
    """
    lt = f.lead_exp()
    lc = f.lead_coeff()
    fld = f.ring.field
    for i, b in enumerate(basis):
        m = mono_div(lt, b.lead_exp())
        if m is not None:
            c = fld.div(lc, b.lead_coeff())
            return f.sub_mul_term(c, m, b), i, m, c
    return None


def normal_form(f: Poly, basis, with_cofactors=False):
    """Full normal form of f modulo basis (reduce every term, not just the lead).

    With cofactors, also return the list q with f = sum q_i basis_i + nf.
    """
    ring = f.ring
    basis = list(basis)
    q = [ring.zero() for _ in basis] if with_cofactors else None
    tail = {}
    work = f
    while not work.is_zero():
        step = reduce_step(work, basis)
        if step is None:
            # move the irreducible lead to the tail; later leads are smaller
            lt = work.lead_exp()
            rest = dict(work._terms)
            tail[lt] = rest.pop(lt)
            work = Poly(ring, rest)
        else:
            work, i, m, c = step
            if with_cofactors:
                q[i] = q[i] + ring.monomial(m, c)
    tail = Poly(ring, tail)
    if with_cofactors:
        return tail, q
    return tail


def spoly(f: Poly, g: Poly):
    ring = f.ring
    fld = ring.field
    lf, lg = f.lead_exp(), g.lead_exp()
    l = mono_lcm(lf, lg)
    mf = ring.monomial(mono_div(l, lf), fld.inv(f.lead_coeff()))
    return (mf * f).sub_mul_term(fld.inv(g.lead_coeff()), mono_div(l, lg), g)


def _update_pairs(pairs, basis, t):
    """Gebauer-Moeller pair update when basis[t] is appended."""
    lt = basis[t].lead_exp()
    new = [(i, t, mono_lcm(basis[i].lead_exp(), lt)) for i in range(t)]

    # M: drop a new pair when another new pair's lcm strictly divides its lcm
    new = [
        (i, j, l)
        for i, j, l in new
        if not any(l2 != l and mono_divides(l2, l) for _, _, l2 in new)
    ]
    # F: one pair per lcm value; a whole class dies if any member has
    # coprime leads (that member reduces to zero by the product criterion)
    classes = {}
    for i, j, l in new:
        classes.setdefault(l, []).append((i, j, l))
    kept = []
    for l, cls in classes.items():
        if any(mono_mul(basis[i].lead_exp(), lt) == l for i, j, l2 in cls):
            continue
        kept.append(min(cls))
    # chain criterion on old pairs
    old = []
    for i, j, l in pairs:
        if (
            not mono_divides(lt, l)
            or mono_lcm(basis[i].lead_exp(), lt) == l
            or mono_lcm(basis[j].lead_exp(), lt) == l
        ):
            old.append((i, j, l))
    return old + kept


def buchberger(generators, cofactors=False, budget=None):
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Parameters
    ----------
    generators : list of Poly, all in one ring (zeros allowed, dropped).
    cofactors : bool
        When true, return (basis, reps) where reps[k] expresses basis[k]
        as a list of polynomial cofactors against the input generators.
    budget : optional object with a ``tick()`` method, called once per
        processed S-pair; it may raise to abort long runs.

    Returns the reduced basis (monic, sorted descending by lead monomial).
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if cofactors:
            return [], []
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MissingBasisError("generators live in different rings")

    basis = []
    reps = []  # reps[k][i] = cofactor of generators[i] in basis[k]
    pairs = []

    def append(poly, rep):
        basis.append(poly)
        if cofactors:
            reps.append(rep)
        return _update_pairs(pairs, basis, len(basis) - 1)

    for idx, g in enumerate(generators):
        if g.is_zero():
            continue
        rep = [ring.zero()] * len(generators)
        rep[idx] = ring.one()
        nf, q = normal_form(g, basis, with_cofactors=True)
        if cofactors:
            rep = _sub_combination(rep, q, reps, ring)
        if nf.is_zero():
            continue
        c = ring.field.inv(nf.lead_coeff())
        nf = nf.scale(c)
        if cofactors:
            rep = [r.scale(c) for r in rep]
        pairs = append(nf, rep)

    while pairs:
        if budget is not None:
            budget.tick()
        # normal selection: smallest lcm in the ring order
        key = ring.order.key
        pairs.sort(key=lambda t: key(t[2]))
        i, j, l = pairs.pop(0)
        s = spoly(basis[i], basis[j])
        nf, q = normal_form(s, basis, with_cofactors=True)
        if nf.is_zero():
            continue
        if cofactors:
            rep = _spoly_rep(basis, reps, i, j, ring)
            rep = _sub_combination(rep, q, reps, ring)
        else:
            rep = None
        c = ring.field.inv(nf.lead_coeff())
        nf = nf.scale(c)
        if cofactors:
            rep = [r.scale(c) for r in rep]
        pairs = append(nf, rep)

    return _reduce_basis(basis, reps, generators, ring, cofactors)


def _spoly_rep(basis, reps, i, j, ring):
    fld = ring.field
    f, g = basis[i], basis[j]
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), fld.inv(f.lead_coeff()))
    mg = ring.monomial(mono_div(l, g.lead_exp()), fld.inv(g.lead_coeff()))
    return [mf * a - mg * b for a, b in zip(reps[i], reps[j])]


def _sub_combination(rep, q, reps, ring):
    """rep - sum_k q[k] * reps[k], componentwise."""
    out = list(rep)
    for k, qk in enumerate(q):
        if qk.is_zero():
            continue
        out = [r - qk * rk for r, rk in zip(out, reps[k])]
    return out


def _reduce_basis(basis, reps, generators, ring, cofactors):
    # minimalize: drop elements whose lead is divisible by another lead
    order = sorted(range(len(basis)), key=lambda k: ring.order.key(basis[k].lead_exp()))
    keep = []
    for k in order:
        lt = basis[k].lead_exp()
        if any(mono_divides(basis[k2].lead_exp(), lt) for k2 in keep):
            continue
        keep.append(k)
    minimal = [basis[k] for k in keep]
    minreps = [reps[k] for k in keep] if cofactors else None

    # interreduce tails
    reduced = []
    redreps = []
    for pos in range(len(minimal)):
        others = minimal[:pos] + minimal[pos + 1 :]
        nf, q = normal_form(minimal[pos], others, with_cofactors=True)
        if cofactors:
            other_reps = minreps[:pos] + minreps[pos + 1 :]
            rep = _sub_combination(minreps[pos], q, other_reps, ring)
        c = ring.field.inv(nf.lead_coeff())
        reduced.append(nf.scale(c))
        if cofactors:
            redreps.append([r.scale(c) for r in rep])

    idx = sorted(
        range(len(reduced)),
        key=lambda k: ring.order.key(reduced[k].lead_exp()),
        reverse=True,
    )
    final = [reduced[k] for k in idx]
    if cofactors:
        return final, [redreps[k] for k in idx]
    return final


def is_groebner(basis, budget=None):
    """Check every S-polynomial reduces to zero (direct Buchberger test)."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if budget is not None:
                budget.tick()
            if not normal_form(spoly(basis[i], basis[j]), basis).is_zero():
                return False
    return True


def ideal_contains(basis, f):
    return normal_form(f, basis).is_zero()


def is_unit_ideal(basis):
    return any(not b.is_zero() and mono_is_one(b.lead_exp()) for b in basis)


def eliminate(generators, drop_names, budget=None):
    """Generators of the ideal's intersection with the subring without drop_names.

    Uses a block elimination order with the dropped variables in front,
    then selects the basis elements free of them.  The returned
    polynomials stay in the original ring.
    """
    if not generators:
        return []
    ring = generators[0].ring
    front = tuple(sorted(ring.index(n) for n in drop_names))
    elim_ring = ring.with_order(Block(front))
    gb = buchberger([elim_ring.convert(g) for g in generators], budget=budget)
    frontset = set(front)
    out = []
    for g in gb:
        if all(all(exp[i] == 0 for i in frontset) for exp in g.monomials()):
            out.append(ring.convert(g))
    return out


def ideal_dim(basis, ring=None):
    """Krull dimension of the ideal from a Groebner basis.

    Computed as the size of a maximum subset S of variables such that no
    leading monomial is supported entirely inside S.  Returns -1 for the
    unit ideal and nvars for the zero ideal (pass ``ring`` so the zero
    ideal, whose basis is empty, knows its ambient dimension).
    """
    if not basis:
        if ring is None:
            raise MissingBasisError("dimension of the zero ideal needs the ring")
        return ring.nvars
    ring = basis[0].ring
    if is_unit_ideal(basis):
        return -1
    leads = [b.lead_exp() for b in basis if not b.is_zero()]
    if not leads:
        return ring.nvars
    n = ring.nvars
    best = 0
    # independent sets: leads must all have support outside S
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in leads]

    def extend(current, start):
        nonlocal best
        best = max(best, len(current))
        for v in range(start, n):
            cand = current | {v}
            if all(not sup <= cand for sup in supports):
                extend(cand, v + 1)

    extend(frozenset(), 0)
    return best


def zero_dimensional(basis):
    return ideal_dim(basis) <= 0


def radical_membership(generators, f, budget=None):
    """Decide f in rad(I) via the Rabinowitsch trick: 1 in I + (1 - t*f)."""
    if f.is_zero():
        return True
    ring = f.ring
    if "_rab" in ring.names:
        raise ValueError("ring already contains the auxiliary name _rab")
    big = PolyRing(ring.field, ring.names + ("_rab",), GRevLex())
    gens = [big.convert(g) for g in generators]
    t = big.var("_rab")
    gens.append(big.one() - t * big.convert(f))
    gb = buchberger(gens, budget=budget)
    return is_unit_ideal(gb)
