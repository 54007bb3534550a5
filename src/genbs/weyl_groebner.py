"""Left Groebner bases in Weyl rings: budget and elimination.

The engine itself is :mod:`genbs.groebner`, shared with commutative
rings.  This module adds the step budget shared by every Groebner loop,
``left_buchberger`` with its weight-vector assertions, and ``eliminate``
(the one intersection of a left ideal with a subring).  The
Briancon-Maisonobe construction of Ann f^s that eliminates dt lives in
:mod:`genbs.annbs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TimeoutBudget
# perfbench/tracer.py wraps these names here: it counts the S-pairs of
# left_buchberger through _assert_homogeneous and its reduction steps
# through left_reduce_step
from .groebner import (
    _assert_homogeneous,
    _buchberger,
    reduce_step as left_reduce_step,
)
from .orders import Block
from .weyl import WeylRing


@dataclass
class GBBudget:
    """Step budget shared by Groebner loops.

    Every Groebner basis a job computes ticks once per S-pair it
    reduces, i.e. per pair that survives the pair criteria, and
    ``minimal_primes`` ticks once more per branch it visits; ``used`` is
    that count, which a report gives as ``budget_used.steps``.  Nothing
    else is counted: not the reduction work of one pair, nor certificate
    replay, nor the rational search of ``rationalize`` (its small basis
    in F[s] included), so ``max_steps`` does not bound a run's time.
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
    element is asserted to be homogeneous with respect to each, so a
    grading of the generators is certified to survive the run.
    """
    return _buchberger(generators, track, budget, weight_vectors)


def elimination_order(ring, front_names):
    """Block order with front_names dominating, grevlex inside each block."""
    return Block(ring.index(n) for n in front_names)


def eliminate(generators, drop_names, track=(), budget=None):
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
    """
    if not generators:
        return ([], []) if track else []
    ring = generators[0].ring
    order = elimination_order(ring, drop_names)
    elim = ring.with_order(order)
    result = left_buchberger([elim.convert(g) for g in generators], track, budget)
    basis, reps = result if track else (result, None)
    members, member_reps = [], []
    for k, g in enumerate(basis):
        if all(exp[i] == 0 for exp in g._terms for i in order.front):
            members.append(ring.convert(g))
            if track:
                member_reps.append([ring.convert(r) for r in reps[k]])
    return (members, member_reps) if track else members

