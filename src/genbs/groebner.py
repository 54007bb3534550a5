"""Groebner bases of ideals and of left ideals, with certificates.

One engine serves both rings: a commutative :class:`~genbs.poly.PolyRing`
and a Weyl ring (:class:`~genbs.weyl.WeylRing`), which is a PolyRing with
Weyl pairs and shift pairs whose product applies the Leibniz rule and the
shift rule.  A commutative ring is a Weyl ring without pairs, so every
routine is written for left ideals: S-pairs and reductions use left
monomial multiples.  Orders must be global monomial orders; then the lead
of a left product m*g is m + lead(g), because every correction term of
either rule strictly divides the top term, and the commutative
divisibility bookkeeping carries over.

Pair selection is normal selection: the next S-pair is the one whose lcm
is smallest in the ring order, ties broken by creation order (pairs are
created as basis elements are appended, (0, t), (1, t), ..., (t-1, t)).
Bases, cofactors and hence certificates depend on this rule, so a change
to it changes reports.

New pairs pass the Gebauer-Moeller update.  Its chain parts (the M
test, one pair per lcm, and the chain test on old pairs) run in every
ring: Buchberger's chain criterion holds in solvable algebras such as
the Weyl algebra and A_n[s]<dt>, because the leading terms of left multiples multiply
like commutative monomials.  The product criterion runs only in a ring
without pairs of either kind; it needs commuting leading monomials, and in a
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
signed weight.  When input generators are tracked, the basis is
returned together with each element's left cofactors against those
generators, which is what certificate extraction downstream relies on.
Only the tracked components are carried, and a normal form builds its
quotients only when something is tracked: the b-function needs the one
cofactor of f^v, not a full matrix.

A normal form reduces one mutable term map in place (``_reduce``): an
irreducible lead moves to the tail, a reducible one is cancelled by
``reduce_step``.  ``normal_form`` and the Buchberger loop share that
core, and only the arithmetic on each term depends on the field
(:func:`genbs.poly.term_arithmetic`).  The loop keeps its basis
elements, S-polynomials and cofactors as term maps in that arithmetic
from the first input reduction to the reduced basis.  Over Q the maps
hold normalized (numerator, denominator) int pairs, and ``Fraction``s
are built once, for the basis and cofactors returned; an S-pair that
reduces to zero builds none.  Over a residue field they hold the
field's elements, and every step runs the ``Poly`` operations it
replaces, in their order.
"""

from __future__ import annotations

import heapq
import itertools
from operator import ge, sub

from .errors import HomogeneityViolation, MissingBasisError, MixedRingError
from .orders import (
    mono_div,
    mono_divides,
    mono_is_one,
    mono_lcm,
    mono_mul,
)
from .poly import Poly, _check_same_ring, term_arithmetic


def reduce_step(work, lt, basis, leads, arith):
    """One left top-reduction step of the term map ``work`` at its lead ``lt``.

    ``basis`` holds elements in the form of ``arith`` (the term arithmetic
    of the ring's field) and ``leads`` their leads.  With the first b_i
    whose lead divides lt, subtract c*x^m*b_i from ``work`` in place, c
    chosen so that lt cancels, and return (i, m, c).  Return None,
    leaving ``work`` as it is, when lt is irreducible.
    """
    for i, le in enumerate(leads):
        if all(map(ge, lt, le)):
            m = tuple(map(sub, lt, le))
            return i, m, arith.cancel_lead(work, lt, m, basis[i], le)
    return None


def _reduce(work, basis, leads, arith, q):
    """Reduce the term map ``work`` to nothing in place; return the tail.

    Each lead is either cancelled by ``reduce_step`` or moved to the tail,
    a new term map in descending order, whose first key is its lead.
    With ``q`` (one map per basis element), each step's c*x^m is stored
    as the term m: c of its element's quotient.
    """
    key = arith.ring.order.cached_key
    tail = {}
    while work:
        lt = max(work, key=key)
        step = reduce_step(work, lt, basis, leads, arith)
        if step is None:
            # later leads are smaller, so the tail is built in descending order
            tail[lt] = work.pop(lt)
        elif q is not None:
            # for one i each step has a smaller m, so every m is new
            i, m, c = step
            q[i][m] = c
    return tail


def normal_form(f: Poly, basis, with_cofactors=False):
    """Full left normal form; no term of the result is divisible by a lead.

    With cofactors, also return q with f = sum q_i * basis_i + nf, the
    products taken on the left.
    """
    ring = f.ring
    basis = list(basis)
    for b in basis:
        _check_same_ring(f, b)
    arith = term_arithmetic(ring)
    q = [{} for _ in basis] if with_cofactors else None
    tail = _reduce(
        arith.load(f),
        [arith.element(b) for b in basis],
        [b.lead_exp() for b in basis],
        arith,
        q,
    )
    tail = ring._elem(ring, arith.export(tail))
    if with_cofactors:
        return tail, [ring._elem(ring, arith.export(qi)) for qi in q]
    return tail


def _multipliers(arith, f, lf, g, lg):
    """(cf, mf, cg, mg) with cf*x^mf*f - cg*x^mg*g the S-polynomial.

    f and g are elements of ``arith`` with leads lf and lg.
    """
    l = mono_lcm(lf, lg)
    return arith.inverse(f[lf]), mono_div(l, lf), arith.inverse(g[lg]), mono_div(l, lg)


def spoly(f: Poly, g: Poly):
    """Left S-polynomial of f and g."""
    _check_same_ring(f, g)
    ring = f.ring
    arith = term_arithmetic(ring)
    a, b = arith.element(f), arith.element(g)
    s = arith.difference(a, b, *_multipliers(arith, a, f.lead_exp(), b, g.lead_exp()))
    return ring._elem(ring, arith.export(s))


def _assert_homogeneous(terms, weight_vectors, where):
    """Raise unless the exponents of the term map are weight-homogeneous."""
    for w in weight_vectors:
        degs = {sum(wi * e for wi, e in zip(w, exp)) for exp in terms}
        if len(degs) > 1:
            raise HomogeneityViolation(
                "element is not weight-homogeneous during %s: degrees %s"
                % (where, sorted(degs))
            )


def _update_pairs(pairs, leads, product, push):
    """Gebauer-Moeller pair update when a basis element with lead leads[-1]
    is appended.

    ``pairs`` is the heap of (key, serial, i, j, lcm); old pairs failing
    the chain criterion are dropped from it in place, and the surviving
    new pairs are handed to ``push`` as (i, t, lcm).  The chain parts run
    in every ring; the product criterion only when ``product`` is set,
    in a ring without pairs.
    """
    t = len(leads) - 1
    lt = leads[t]
    new = [(i, t, mono_lcm(leads[i], lt)) for i in range(t)]

    # M: drop a new pair when another new pair's lcm strictly divides its
    # lcm.  A strict divisor has a lower degree, so each distinct lcm, in
    # order of degree, is kept when no kept lcm divides it.
    minimal = []
    for l in sorted({l for _, _, l in new}, key=sum):
        if not any(mono_divides(m, l) for m in minimal):
            minimal.append(l)
    minimal = set(minimal)
    new = [pair for pair in new if pair[2] in minimal]
    # F: one pair per lcm value; with the product criterion a whole class
    # dies if any member has coprime leads (that member reduces to zero)
    classes = {}
    for i, j, l in new:
        classes.setdefault(l, []).append((i, j, l))
    kept = []
    for l, cls in classes.items():
        if product and any(mono_mul(leads[i], lt) == l for i, j, l2 in cls):
            continue
        kept.append(min(cls))
    # chain criterion on old pairs
    pairs[:] = [
        p
        for p in pairs
        if not mono_divides(lt, p[4])
        or mono_lcm(leads[p[2]], lt) == p[4]
        or mono_lcm(leads[p[3]], lt) == p[4]
    ]
    heapq.heapify(pairs)
    for pair in kept:
        push(*pair)


def _buchberger(generators, track, budget, weight_vectors):
    """Reduced (left) Groebner basis: the loop behind both public entry points.

    ``track`` holds positions in ``generators``; when it is non-empty
    the result is (basis, reps) with reps[k][t] the cofactor of
    generators[track[t]] in basis[k].  Quotients are built only then.
    Each component of a rep is updated on its own, so tracking fewer
    generators leaves the tracked components as they were.  Every
    appended element and every S-polynomial is asserted homogeneous for
    each of ``weight_vectors``; the budget ticks once per S-pair that
    survives the criteria.

    The basis and the reps are kept as elements of the ring's term
    arithmetic, and only the reduced basis and its reps are exported.
    """
    track = tuple(track)
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ([], []) if track else []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRingError("generators live in different rings")

    arith = term_arithmetic(ring)
    basis = []
    leads = []
    reps = []
    # heap of (order key of the lcm, creation index, i, j, lcm): normal selection
    pairs = []
    key = ring.order.cached_key
    serial = itertools.count()
    product = not (ring.pairs or ring.shift_pairs)

    def push(i, j, lcm):
        heapq.heappush(pairs, (key(lcm), next(serial), i, j, lcm))

    def add(work, rep_of_work, where):
        """Append the monic normal form of the term map ``work`` unless it is zero.

        ``rep_of_work()`` gives the cofactors of work; it runs only when
        something is tracked and the normal form is non-zero.
        """
        q = [{} for _ in basis] if track else None
        tail = _reduce(work, basis, leads, arith, q)
        if not tail:
            return
        _assert_homogeneous(tail, weight_vectors, where)
        # the tail is built in descending order
        lead = next(iter(tail))
        element, c = arith.monic(tail, lead)
        if track:
            rep = arith.sub_combination(rep_of_work(), q, reps)
            reps.append([arith.scale(r, c) for r in rep])
        basis.append(element)
        leads.append(lead)
        _update_pairs(pairs, leads, product, push)

    for idx, g in enumerate(generators):
        if not g.is_zero():
            unit = [arith.element(ring.one() if t == idx else ring.zero()) for t in track]
            add(arith.load(g), lambda: unit, "input reduction")

    while pairs:
        if budget is not None:
            budget.tick()
        _, _, i, j, _ = heapq.heappop(pairs)
        mult = _multipliers(arith, basis[i], leads[i], basis[j], leads[j])
        s = arith.difference(basis[i], basis[j], *mult)
        _assert_homogeneous(s, weight_vectors, "S-pair formation")
        add(
            s,
            lambda: [arith.difference(a, b, *mult) for a, b in zip(reps[i], reps[j])],
            "S-pair reduction",
        )

    return _reduce_basis(arith, basis, leads, reps, track, weight_vectors)


def buchberger(generators, track=(), budget=None):
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Parameters
    ----------
    generators : list of Poly, all in one ring (zeros allowed, dropped).
    track : positions in ``generators``
        When non-empty, return (basis, reps) where reps[k][t] is the
        cofactor of generators[track[t]] in basis[k].
    budget : optional object with a ``tick()`` method, called once per
        S-pair that survives the criteria; it may raise to abort long runs.

    Returns the reduced basis (monic, sorted descending by lead monomial).
    """
    return _buchberger(generators, track, budget, ())


def _reduce_basis(arith, basis, leads, reps, track, weight_vectors):
    """Minimalize and interreduce; export the basis (and reps) as Polys,
    sorted descending by lead."""
    ring = arith.ring
    key = ring.order.cached_key
    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for k in sorted(range(len(basis)), key=lambda k: key(leads[k])):
        if not any(mono_divides(leads[k2], leads[k]) for k2 in keep):
            keep.append(k)

    # interreduce tails: a kept lead is irreducible by the others
    final, final_reps = [], []
    for k in sorted(keep, key=lambda k: key(leads[k]), reverse=True):
        others = [o for o in keep if o != k]
        q = [{} for _ in others] if track else None
        tail = _reduce(
            dict(basis[k]), [basis[o] for o in others], [leads[o] for o in others], arith, q
        )
        _assert_homogeneous(tail, weight_vectors, "interreduction")
        element, c = arith.monic(tail, leads[k])
        final.append(ring._elem(ring, arith.export(element)))
        if track:
            rep = arith.sub_combination(reps[k], q, [reps[o] for o in others])
            final_reps.append([ring._elem(ring, arith.export(arith.scale(r, c))) for r in rep])
    return (final, final_reps) if track else final


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
