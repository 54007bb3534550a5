"""Finite stratification of parameter space by the generic b-polynomial.

Pieces come from generic packages: on V(Q) minus V(h) the rational b
is valid, and the complement V(Q + <h>) has strictly smaller dimension,
so the recursion terminates.  Strata with the same b merge into regions
that are unions of locally closed pieces minus earlier regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import FamilyVanishesModQ, PointOutsideStratum, VerificationFailed
from .groebner import buchberger, ideal_dim
from .instance import ProblemInstance
from .parametric import GenericBS, generic_bs
from .poly import Poly, PolyRing
from .primes import PrimeIdealQ, minimal_primes


@dataclass(frozen=True)
class LocallyClosedSet:
    """V(closed) minus V(prod removed) inside the parameter space."""

    ring: PolyRing
    closed: tuple
    removed: tuple = ()

    def contains(self, values: dict) -> bool:
        for g in self.closed:
            if not self.ring.convert(g).subs(values).is_zero():
                return False
        for h in self.removed:
            if self.ring.convert(h).subs(values).is_zero():
                return False
        return True

    def describe(self) -> str:
        closed = ", ".join(str(g) for g in self.closed) or "0"
        out = "V(%s)" % closed
        if self.removed:
            out += " \\ V(%s)" % " * ".join(str(h) for h in self.removed)
        return out

    def __str__(self):
        return self.describe()


@dataclass(frozen=True)
class Region:
    """A union of locally closed pieces minus every earlier region's piece."""

    parts: tuple
    excluded: tuple = ()

    def contains(self, values: dict) -> bool:
        if not any(p.contains(values) for p in self.parts):
            return False
        return not any(p.contains(values) for p in self.excluded)

    def describe(self) -> str:
        out = " u ".join("(%s)" % p.describe() for p in self.parts)
        if self.excluded:
            out += "  minus  " + " u ".join(
                "(%s)" % p.describe() for p in self.excluded
            )
        return out

    def __str__(self):
        return self.describe()


@dataclass
class Stratum:
    """One constructible region with its common generic b-polynomial.

    Degenerate strata collect primes where some f_j vanishes identically;
    they carry no b.  A stratum whose sample search failed is flagged
    emptiness_unknown rather than silently dropped.
    """

    region: Region
    b: Poly | None
    witnesses: tuple
    degenerate: bool = False
    sample: dict | None = None
    emptiness_unknown: bool = False


@dataclass
class Stratification:
    instance: ProblemInstance
    ambient: tuple
    pieces: tuple
    strata: tuple

    def find(self, values: dict) -> Stratum:
        values = self.instance.point(values)
        for st in self.strata:
            if st.region.contains(values):
                return st
        raise PointOutsideStratum(
            "point (%s) lies in no stratum"
            % ", ".join("%s=%s" % kv for kv in sorted(values.items()))
        )


@dataclass
class _Piece:
    prime: PrimeIdealQ
    part: LocallyClosedSet
    b: Poly | None
    witness: GenericBS | None
    degenerate: bool


def stratify(
    inst: ProblemInstance,
    ambient=(),
    budget=None,
    sample_limit: int = 20000,
) -> Stratification:
    """Partition V(ambient) into finitely many b-constant strata."""
    param = inst.param_ring()
    ambient = tuple(param.convert(g) for g in ambient)
    pieces: list[_Piece] = []
    seen = set()
    queue = [list(ambient)]
    while queue:
        gens = queue.pop(0)
        for Q in minimal_primes(gens, param, budget=budget):
            if Q.key() in seen:
                continue
            seen.add(Q.key())
            try:
                g = generic_bs(inst, Q, budget=budget)
            except FamilyVanishesModQ:
                pieces.append(
                    _Piece(
                        prime=Q,
                        part=LocallyClosedSet(param, tuple(Q.basis)),
                        b=None,
                        witness=None,
                        degenerate=True,
                    )
                )
                continue
            h = g.h_radical
            if h.is_constant():
                part = LocallyClosedSet(param, tuple(Q.basis))
            else:
                part = LocallyClosedSet(param, tuple(Q.basis), (h,))
                deeper = list(Q.basis) + [h]
                sub_basis = buchberger(deeper, budget=budget)
                sub_dim = ideal_dim(sub_basis, param)
                if sub_dim >= 0:
                    # h is not in the prime Q, so the cut is proper
                    if not sub_dim < Q.dim():
                        raise VerificationFailed(
                            "excluded locus failed to drop dimension"
                        )
                    queue.append(deeper)
            pieces.append(
                _Piece(prime=Q, part=part, b=g.b, witness=g, degenerate=False)
            )
    strata = refine_partition(pieces, sample_limit=sample_limit)
    return Stratification(
        instance=inst, ambient=ambient, pieces=tuple(pieces), strata=tuple(strata)
    )


def refine_partition(pieces, sample_limit: int = 20000):
    """Merge pieces with equal b; regions are set differences in input order.

    Groups keep first-occurrence order; every group's region excludes the
    parts of all earlier groups so the strata are pairwise disjoint and
    their union is the union of the input pieces.
    """
    groups = []  # (b key, [pieces])
    for piece in pieces:
        key = ("degenerate",) if piece.degenerate else ("b", str(piece.b))
        for gkey, members in groups:
            if gkey == key:
                members.append(piece)
                break
        else:
            groups.append((key, [piece]))
    strata = []
    earlier = []
    for key, members in groups:
        region = Region(
            parts=tuple(m.part for m in members), excluded=tuple(earlier)
        )
        witnesses = tuple(m.witness for m in members if m.witness is not None)
        sample = sample_point(region, limit=sample_limit)
        strata.append(
            Stratum(
                region=region,
                b=None if key[0] == "degenerate" else members[0].b,
                witnesses=witnesses,
                degenerate=key[0] == "degenerate",
                sample=sample,
                emptiness_unknown=sample is None,
            )
        )
        earlier.extend(m.part for m in members)
    return strata


_PALETTE = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7)]


def sample_point(region: Region, limit: int = 20000) -> dict | None:
    """Deterministic search for a rational point of the region; None if the
    search budget is exhausted (emptiness stays unknown, not asserted)."""
    if not region.parts:
        return None
    ring = region.parts[0].ring
    names = ring.names
    if not names:
        values = {}
        return values if region.contains(values) else None
    count = 0
    for combo in _graded_tuples(len(names)):
        count += 1
        if count > limit:
            return None
        values = {nm: combo[i] for i, nm in enumerate(names)}
        if region.contains(values):
            return values
    return None


def _graded_tuples(m: int):
    """All palette tuples of length m, ordered by max palette index."""
    for radius in range(1, len(_PALETTE) + 1):
        for combo in itertools.product(_PALETTE[:radius], repeat=m):
            if any(c == _PALETTE[radius - 1] for c in combo):
                yield combo
    return
