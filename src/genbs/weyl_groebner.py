"""Left Groebner bases in Weyl-type rings, elimination and weight extraction.

The engine is Buchberger's procedure adapted to left ideals: S-pairs are
formed with left monomial multiples, and no coprimality shortcut is used
(the product criterion is unsound when the leading monomials carry
noncommuting pairs).  Orders must be global monomial orders; then the
lead of a left product m*g is m + lead(g) because all Leibniz correction
terms strictly divide the top term, so the commutative divisibility
bookkeeping carries over.

Optional weight vectors are carried through the run purely as
homogeneity assertions: the primary comparison is always the global
order, never a signed weight.

Pair selection is normal selection: the next S-pair is the one whose lcm
is smallest in the ring order, ties broken by creation order (pairs are
created as basis elements are appended, (0, t), (1, t), ..., (t-1, t)).
Bases, cofactors and hence certificates depend on this rule, so a change
to it changes reports.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import (
    HomogeneityViolation,
    MissingBasisError,
    MixedRingError,
    TimeoutBudget,
)
from .orders import Block, mono_div, mono_divides, mono_lcm
from .weyl import WeylOp, WeylRing


@dataclass
class GBBudget:
    """Step budget shared by Groebner loops; tick once per processed pair."""

    max_steps: int = 200000
    used: int = 0
    label: str = "groebner"

    def tick(self, count: int = 1):
        self.used += count
        if self.used > self.max_steps:
            self.used = self.max_steps
            raise TimeoutBudget(
                "budget %r exhausted after %d steps" % (self.label, self.max_steps),
                partial={"label": self.label, "steps": self.used},
            )


@dataclass
class LeftIdealW:
    """A left ideal with an optional cached reduced left Groebner basis."""

    ring: WeylRing
    generators: list
    basis: list | None = None

    def require_basis(self):
        if self.basis is None:
            raise MissingBasisError("left Groebner basis not computed")
        return self.basis


def left_reduce_step(f: WeylOp, basis):
    """One left top-reduction step, or None when the lead is irreducible."""
    lt = f.lead_exp()
    lc = f.lead_coeff()
    fld = f.ring.field
    for i, b in enumerate(basis):
        m = mono_div(lt, b.lead_exp())
        if m is not None:
            c = fld.div(lc, b.lead_coeff())
            return f.sub_mul_term(c, m, b), i, f.ring.monomial(m, c)
    return None


def left_normal_form(f: WeylOp, basis, with_cofactors=False):
    """Full left normal form; no term of the result is divisible by a lead.

    With cofactors, also returns q with f = sum q_i * basis_i + nf, the
    products taken on the left.
    """
    ring = f.ring
    basis = list(basis)
    q = [ring.zero() for _ in basis] if with_cofactors else None
    tail = {}
    work = f
    while not work.is_zero():
        step = left_reduce_step(work, basis)
        if step is None:
            # move the irreducible lead to the tail; later leads are smaller
            lt = work.lead_exp()
            rest = dict(work._terms)
            tail[lt] = rest.pop(lt)
            work = WeylOp(ring, rest)
        else:
            work, i, mono = step
            if with_cofactors:
                q[i] = q[i] + mono
    tail = WeylOp(ring, tail)
    if with_cofactors:
        return tail, q
    return tail


def left_spoly(f: WeylOp, g: WeylOp):
    ring = f.ring
    fld = ring.field
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), fld.inv(f.lead_coeff()))
    return (mf * f).sub_mul_term(fld.inv(g.lead_coeff()), mono_div(l, g.lead_exp()), g)


def _assert_homogeneous(op, weight_vectors, where):
    for w in weight_vectors:
        degs = {
            sum(wi * e for wi, e in zip(w, exp)) for exp in op._terms
        }
        if len(degs) > 1:
            raise HomogeneityViolation(
                "element is not weight-homogeneous during %s: degrees %s"
                % (where, sorted(degs))
            )


def left_buchberger(generators, cofactors=False, budget=None, weight_vectors=()):
    """Reduced left Groebner basis of the left ideal of ``generators``.

    With ``cofactors``, also return reps expressing each basis element as
    a left combination of the input generators.  ``weight_vectors`` is a
    list of integer vectors; every intermediate element is asserted to be
    homogeneous with respect to each (the Malgrange construction's
    gradings survive the run, and this check certifies it).
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ([], []) if cofactors else []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRingError("generators live in different rings")

    basis = []
    reps = []
    # heap of (order key of the lcm, creation index, i, j): normal selection
    pairs = []
    key = ring.order.key
    serial = itertools.count()

    def add(poly, rep, where):
        _assert_homogeneous(poly, weight_vectors, where)
        basis.append(poly)
        if cofactors:
            reps.append(rep)
        t = len(basis) - 1
        lt = poly.lead_exp()
        for i in range(t):
            lcm = mono_lcm(basis[i].lead_exp(), lt)
            heapq.heappush(pairs, (key(lcm), next(serial), i, t))

    for idx, g in enumerate(generators):
        if g.is_zero():
            continue
        rep = None
        nf, q = left_normal_form(g, basis, with_cofactors=True)
        if cofactors:
            rep = [ring.zero()] * len(generators)
            rep[idx] = ring.one()
            rep = _sub_left_combination(rep, q, reps, ring)
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
        _, _, i, j = heapq.heappop(pairs)
        s = left_spoly(basis[i], basis[j])
        _assert_homogeneous(s, weight_vectors, "S-pair formation")
        nf, q = left_normal_form(s, basis, with_cofactors=True)
        if nf.is_zero():
            continue
        rep = None
        if cofactors:
            rep = _left_spoly_rep(basis, reps, i, j, ring)
            rep = _sub_left_combination(rep, q, reps, ring)
        c = ring.field.inv(nf.lead_coeff())
        nf = nf.scale(c)
        if cofactors:
            rep = [r.scale(c) for r in rep]
        add(nf, rep, "S-pair reduction")

    return _left_reduce_basis(basis, reps, ring, cofactors, weight_vectors)


def _left_spoly_rep(basis, reps, i, j, ring):
    fld = ring.field
    f, g = basis[i], basis[j]
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), fld.inv(f.lead_coeff()))
    cg, mg = fld.inv(g.lead_coeff()), mono_div(l, g.lead_exp())
    return [(mf * a).sub_mul_term(cg, mg, b) for a, b in zip(reps[i], reps[j])]


def _sub_left_combination(rep, q, reps, ring):
    out = list(rep)
    for k, qk in enumerate(q):
        if qk.is_zero():
            continue
        out = [r - qk * rk for r, rk in zip(out, reps[k])]
    return out


def _left_reduce_basis(basis, reps, ring, cofactors, weight_vectors):
    order = sorted(range(len(basis)), key=lambda k: ring.order.key(basis[k].lead_exp()))
    keep = []
    for k in order:
        lt = basis[k].lead_exp()
        if any(mono_divides(basis[k2].lead_exp(), lt) for k2 in keep):
            continue
        keep.append(k)
    minimal = [basis[k] for k in keep]
    minreps = [reps[k] for k in keep] if cofactors else None

    reduced = []
    redreps = []
    for pos in range(len(minimal)):
        others = minimal[:pos] + minimal[pos + 1 :]
        nf, q = left_normal_form(minimal[pos], others, with_cofactors=True)
        _assert_homogeneous(nf, weight_vectors, "interreduction")
        rep = None
        if cofactors:
            other_reps = minreps[:pos] + minreps[pos + 1 :]
            rep = _sub_left_combination(minreps[pos], q, other_reps, ring)
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


def is_left_groebner(basis, budget=None):
    """Direct check: every left S-polynomial reduces to zero."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if budget is not None:
                budget.tick()
            if not left_normal_form(left_spoly(basis[i], basis[j]), basis).is_zero():
                return False
    return True


def subring_elements(basis, kill_names):
    """Basis elements free of kill_names.

    When the basis was computed under a block order with kill_names in
    the front block, these generate the intersection of the left ideal
    with the subalgebra on the remaining generators (which must be
    closed under the ring relations, true for all blocks used here).
    """
    if not basis:
        return []
    ring = basis[0].ring
    kill = {ring.index(n) for n in kill_names}
    out = []
    for g in basis:
        if all(all(exp[i] == 0 for i in kill) for exp in g._terms):
            out.append(g)
    return out


def elimination_order(ring, front_names):
    """Block order with front_names dominating, grevlex inside each block."""
    front = tuple(sorted(ring.index(n) for n in front_names))
    return Block(front)


# -- weight bookkeeping -------------------------------------------------------


def weight_vector(ring, assignment):
    """Integer weight vector over ring generators from a name->weight map."""
    w = [0] * ring.nvars
    for name, value in assignment.items():
        w[ring.index(name)] = int(value)
    return w


def op_weight_degrees(op: WeylOp, w):
    return sorted({sum(wi * e for wi, e in zip(w, exp)) for exp in op._terms})


def is_weight_homogeneous(op: WeylOp, w) -> bool:
    return len(op_weight_degrees(op, w)) <= 1


def weight0_extract(basis, ring, t_names, dt_names, u_names=(), y_names=()):
    """Weight-zero members of a basis, balanced to matched t/dt powers.

    The weight is +1 on each t and u, -1 on each dt and y, 0 elsewhere.
    Every element must be weight-homogeneous (HomogeneityViolation
    otherwise).  Elements are first balanced per pair: an element whose
    j-th (t, dt) exponent difference is d_j is left-multiplied by dt^d_j
    (d_j > 0) or t^(-d_j) (d_j < 0), which lies in the left ideal and
    has matched powers by construction.  Elements still involving u or y
    are skipped.  The returned list covers the degree-zero part of the
    ideal: any degree-zero member reduces to zero against left
    multiples of basis elements, and those multiples are reachable from
    the balanced elements by degree-zero monomials.

    The matched-powers property (each monomial has equal t_j and dt_j
    exponents for every j) is asserted on every returned element.
    """
    w = weight_vector(
        ring,
        {
            **{n: 1 for n in t_names},
            **{n: -1 for n in dt_names},
            **{n: 1 for n in u_names},
            **{n: -1 for n in y_names},
        },
    )
    skip = [ring.index(n) for n in list(u_names) + list(y_names)]
    t_idx = [ring.index(n) for n in t_names]
    dt_idx = [ring.index(n) for n in dt_names]
    out = []
    for g in basis:
        if not is_weight_homogeneous(g, w):
            raise HomogeneityViolation(
                "basis element not homogeneous for the t/u-weight: %s" % g
            )
        if any(g.degree_in(i) > 0 for i in skip):
            continue
        balanced = balance_pairs(g, t_idx, dt_idx)
        for exp in balanced._terms:
            for ti, di in zip(t_idx, dt_idx):
                if exp[ti] != exp[di]:
                    raise HomogeneityViolation(
                        "unbalanced t/dt powers survive balancing: %s" % balanced
                    )
        out.append(balanced)
    return out


def balance_pairs(g: WeylOp, t_idx, dt_idx):
    """Left-multiply g so every (t, dt) pair has net degree zero.

    Requires g homogeneous in each pair's degree t - dt (checked);
    this holds for ideals generated by pair-homogeneous elements.
    """
    ring = g.ring
    mults = [0] * ring.nvars
    for ti, di in zip(t_idx, dt_idx):
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
