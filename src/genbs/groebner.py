"""Groebner bases of ideals and of left ideals, with certificates.

One engine serves both rings: a commutative :class:`~genbs.poly.PolyRing`
and a Weyl ring (:class:`~genbs.weyl.WeylRing`), which is a PolyRing with
Weyl pairs whose product applies the Leibniz rule.  A commutative ring is
a Weyl ring without pairs, so every routine is written for left ideals:
S-pairs and reductions use left monomial multiples.  Orders must be
global monomial orders; then the lead of a left product m*g is
m + lead(g), because every Leibniz correction term strictly divides the
top term, and the commutative divisibility bookkeeping carries over.

Pair selection is normal selection: the next S-pair is the one whose lcm
is smallest in the ring order, ties broken by creation order (pairs are
created as basis elements are appended, (0, t), (1, t), ..., (t-1, t)).
Bases, cofactors and hence certificates depend on this rule, so a change
to it changes reports.

New pairs pass the Gebauer-Moeller update.  Its chain parts (the M
test, one pair per lcm, and the chain test on old pairs) run in every
ring: Buchberger's chain criterion holds in solvable algebras such as
the Weyl algebra, because the leading terms of left multiples multiply
like commutative monomials.  The product criterion runs only in a ring
without Weyl pairs; it needs commuting leading monomials, and in a
solvable algebra an S-pair with coprime leads need not reduce to zero
(Kandri-Rody & Weispfenning, *Non-commutative Groebner bases in algebras
of solvable type*, 1990; Levandovskyy, *Non-commutative computer algebra
for polynomial algebras*, thesis, 2005).  Whether a ring has pairs is a
fact of the input, not an option.  A pair the criteria skip has an
S-polynomial with a standard representation through the pairs kept, so
the result is still a Groebner basis.

A final minimalization plus interreduction pass gives the reduced basis.
Every routine is deterministic: given the same ring (including its term
order) and the same generator list, the reduced basis comes out
identical.

Optional weight vectors are carried through a run purely as homogeneity
assertions: the primary comparison is always the global order, never a
signed weight.  When cofactors are asked for, the basis is returned
together with an expression of every basis element as an explicit left
combination of the input generators, which is what certificate
extraction downstream relies on.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import HomogeneityViolation, MissingBasisError, MixedRingError
from .orders import (
    Block,
    mono_div,
    mono_divides,
    mono_is_one,
    mono_lcm,
    mono_mul,
)
from .poly import Poly


def reduce_step(f: Poly, basis):
    """One left top-reduction step of f by the first basis element that divides.

    Returns (g, i, m, c) with g = f - c*x^m*basis[i], or None when the
    lead of f is irreducible.
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
    """Full left normal form; no term of the result is divisible by a lead.

    With cofactors, also return q with f = sum q_i * basis_i + nf, the
    products taken on the left.
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
            work = type(f)(ring, rest)
        else:
            work, i, m, c = step
            if with_cofactors:
                q[i] = q[i] + ring.monomial(m, c)
    tail = type(f)(ring, tail)
    if with_cofactors:
        return tail, q
    return tail


def spoly(f: Poly, g: Poly):
    """Left S-polynomial of f and g."""
    ring = f.ring
    fld = ring.field
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), fld.inv(f.lead_coeff()))
    return (mf * f).sub_mul_term(fld.inv(g.lead_coeff()), mono_div(l, g.lead_exp()), g)


def _assert_homogeneous(op, weight_vectors, where):
    for w in weight_vectors:
        degs = {sum(wi * e for wi, e in zip(w, exp)) for exp in op._terms}
        if len(degs) > 1:
            raise HomogeneityViolation(
                "element is not weight-homogeneous during %s: degrees %s"
                % (where, sorted(degs))
            )


def _update_pairs(pairs, basis, t, push):
    """Gebauer-Moeller pair update when basis[t] is appended.

    ``pairs`` is the heap of (key, serial, i, j, lcm); old pairs failing
    the chain criterion are dropped from it in place, and the surviving
    new pairs are handed to ``push`` as (i, t, lcm).  The chain parts run
    in every ring; the product criterion only in a ring without Weyl pairs.
    """
    lt = basis[t].lead_exp()
    product = not basis[t].ring.pairs
    new = [(i, t, mono_lcm(basis[i].lead_exp(), lt)) for i in range(t)]

    # M: drop a new pair when another new pair's lcm strictly divides its lcm
    new = [
        (i, j, l)
        for i, j, l in new
        if not any(l2 != l and mono_divides(l2, l) for _, _, l2 in new)
    ]
    # F: one pair per lcm value; with the product criterion a whole class
    # dies if any member has coprime leads (that member reduces to zero)
    classes = {}
    for i, j, l in new:
        classes.setdefault(l, []).append((i, j, l))
    kept = []
    for l, cls in classes.items():
        if product and any(mono_mul(basis[i].lead_exp(), lt) == l for i, j, l2 in cls):
            continue
        kept.append(min(cls))
    # chain criterion on old pairs
    pairs[:] = [
        p
        for p in pairs
        if not mono_divides(lt, p[4])
        or mono_lcm(basis[p[2]].lead_exp(), lt) == p[4]
        or mono_lcm(basis[p[3]].lead_exp(), lt) == p[4]
    ]
    heapq.heapify(pairs)
    for pair in kept:
        push(*pair)


def _buchberger(generators, cofactors, budget, weight_vectors):
    """Reduced (left) Groebner basis: the loop behind both public entry points.

    Every appended element and every S-polynomial is asserted homogeneous
    for each of ``weight_vectors``; the budget ticks once per S-pair that
    survives the criteria.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ([], []) if cofactors else []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRingError("generators live in different rings")

    basis = []
    reps = []  # reps[k][i] = cofactor of generators[i] in basis[k]
    # heap of (order key of the lcm, creation index, i, j, lcm): normal selection
    pairs = []
    key = ring.order.key
    serial = itertools.count()

    def push(i, j, lcm):
        heapq.heappush(pairs, (key(lcm), next(serial), i, j, lcm))

    def add(poly, rep, where):
        _assert_homogeneous(poly, weight_vectors, where)
        basis.append(poly)
        if cofactors:
            reps.append(rep)
        _update_pairs(pairs, basis, len(basis) - 1, push)

    for idx, g in enumerate(generators):
        if g.is_zero():
            continue
        rep = None
        nf, q = normal_form(g, basis, with_cofactors=True)
        if cofactors:
            rep = [ring.zero()] * len(generators)
            rep[idx] = ring.one()
            rep = _sub_combination(rep, q, reps)
        if nf.is_zero():
            continue
        c = ring.field.inv(nf.lead_coeff())
        nf = nf.scale(c)
        if cofactors:
            rep = [r.scale(c) for r in rep]
        add(nf, rep, "input reduction")

    while pairs:
        if budget is not None:
            budget.tick()
        _, _, i, j, _ = heapq.heappop(pairs)
        s = spoly(basis[i], basis[j])
        _assert_homogeneous(s, weight_vectors, "S-pair formation")
        nf, q = normal_form(s, basis, with_cofactors=True)
        if nf.is_zero():
            continue
        rep = None
        if cofactors:
            rep = _spoly_rep(basis, reps, i, j, ring)
            rep = _sub_combination(rep, q, reps)
        c = ring.field.inv(nf.lead_coeff())
        nf = nf.scale(c)
        if cofactors:
            rep = [r.scale(c) for r in rep]
        add(nf, rep, "S-pair reduction")

    return _reduce_basis(basis, reps, ring, cofactors, weight_vectors)


def buchberger(generators, cofactors=False, budget=None):
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Parameters
    ----------
    generators : list of Poly, all in one ring (zeros allowed, dropped).
    cofactors : bool
        When true, return (basis, reps) where reps[k] expresses basis[k]
        as a list of polynomial cofactors against the input generators.
    budget : optional object with a ``tick()`` method, called once per
        S-pair that survives the criteria; it may raise to abort long runs.

    Returns the reduced basis (monic, sorted descending by lead monomial).
    """
    return _buchberger(generators, cofactors, budget, ())


def _spoly_rep(basis, reps, i, j, ring):
    fld = ring.field
    f, g = basis[i], basis[j]
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), fld.inv(f.lead_coeff()))
    cg, mg = fld.inv(g.lead_coeff()), mono_div(l, g.lead_exp())
    return [(mf * a).sub_mul_term(cg, mg, b) for a, b in zip(reps[i], reps[j])]


def _sub_combination(rep, q, reps):
    """rep - sum_k q[k] * reps[k], componentwise."""
    out = list(rep)
    for k, qk in enumerate(q):
        if qk.is_zero():
            continue
        out = [r - qk * rk for r, rk in zip(out, reps[k])]
    return out


def _reduce_basis(basis, reps, ring, cofactors, weight_vectors):
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
        _assert_homogeneous(nf, weight_vectors, "interreduction")
        if cofactors:
            rep = _sub_combination(minreps[pos], q, minreps[:pos] + minreps[pos + 1 :])
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
