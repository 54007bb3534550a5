"""Left Groebner bases in Weyl rings: budget, elimination and weights.

The engine itself is :mod:`genbs.groebner`, shared with commutative
rings.  This module adds the step budget shared by every Groebner loop,
``left_buchberger`` with its weight-vector assertions, ``eliminate``
(the one intersection of a left ideal with a subring), and the weight
bookkeeping of the Malgrange construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HomogeneityViolation, TimeoutBudget
# perfbench/tracer.py wraps these names here: it counts the S-pairs of
# left_buchberger through _assert_homogeneous and its reduction steps
# through left_reduce_step
from .groebner import (
    _assert_homogeneous,
    _buchberger,
    reduce_step as left_reduce_step,
)
from .orders import Block
from .weyl import WeylOp, WeylRing


@dataclass
class GBBudget:
    """Step budget shared by Groebner loops.

    A loop ticks once per S-pair it reduces, i.e. per pair that survives
    the pair criteria, so ``used`` is the count a report gives as
    ``budget_used.steps``.  It caps S-pairs only: the reduction work of
    one pair and certificate replay are not counted, so ``max_steps``
    does not bound a run's time.
    """

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
    """A left ideal of a Weyl ring, given by its generators."""

    ring: WeylRing
    generators: list


def left_buchberger(generators, track=(), budget=None, weight_vectors=()):
    """Reduced left Groebner basis of the left ideal of ``generators``.

    With ``track`` (positions in ``generators``), also return reps with
    reps[k][t] the left cofactor of generators[track[t]] in basis[k].
    ``weight_vectors`` is a list of integer vectors; every intermediate
    element is asserted to be homogeneous with respect to each (the
    Malgrange construction's gradings survive the run, and this check
    certifies it).
    """
    return _buchberger(generators, track, budget, weight_vectors)


def elimination_order(ring, front_names):
    """Block order with front_names dominating, grevlex inside each block."""
    return Block(ring.index(n) for n in front_names)


def eliminate(generators, drop_names, track=(), budget=None, weight_vectors=()):
    """The left ideal's intersection with the subring free of ``drop_names``.

    The reduced left basis is computed in a block order with
    ``drop_names`` in front (the elimination step of Oaku's b-function
    algorithm, in the left Weyl setting of Levandovskyy's thesis); its
    members free of them generate the intersection with the subalgebra
    on the remaining generators, which must be closed under the ring
    relations, as every block used here is.  The members come back in
    the generators' ring, in the basis order.  With ``track`` (positions
    in ``generators``), the result is (members, reps) with reps[k][t]
    the left cofactor of generators[track[t]] in members[k].
    ``weight_vectors`` are asserted as in ``left_buchberger``.
    """
    if not generators:
        return ([], []) if track else []
    ring = generators[0].ring
    order = elimination_order(ring, drop_names)
    elim = ring.with_order(order)
    result = left_buchberger(
        [elim.convert(g) for g in generators], track, budget, weight_vectors
    )
    basis, reps = result if track else (result, None)
    members, member_reps = [], []
    for k, g in enumerate(basis):
        if all(exp[i] == 0 for exp in g._terms for i in order.front):
            members.append(ring.convert(g))
            if track:
                member_reps.append([ring.convert(r) for r in reps[k]])
    return (members, member_reps) if track else members


# -- weight bookkeeping -------------------------------------------------------


def weight_vector(ring, assignment):
    """Integer weight vector over ring generators from a name->weight map."""
    w = [0] * ring.nvars
    for name, value in assignment.items():
        w[ring.index(name)] = int(value)
    return w


def is_weight_homogeneous(op: WeylOp, w) -> bool:
    return len({sum(wi * e for wi, e in zip(w, exp)) for exp in op._terms}) <= 1


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
