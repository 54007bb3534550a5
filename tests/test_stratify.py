"""Stratifications: regions, refinement, sampling, the worked families."""

import random
from fractions import Fraction

import pytest

from genbs.errors import PointOutsideStratum
from genbs.fsmodule import check_congruence
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.parametric import specialize_check
from genbs.poly import PolyRing, QQ
from genbs.stratify import (
    LocallyClosedSet,
    Region,
    refine_partition,
    sample_point,
    stratify,
    _Piece,
)

PARAM = PolyRing(QQ, ("a",), GRevLex())
A = PARAM.var("a")


def test_locally_closed_membership():
    part = LocallyClosedSet(PARAM, (A - 1,), (A + 1,))
    assert part.contains({"a": 1})
    assert not part.contains({"a": 2})
    whole = LocallyClosedSet(PARAM, ())
    assert whole.contains({"a": 5})
    punctured = LocallyClosedSet(PARAM, (), (A,))
    assert punctured.contains({"a": 2})
    assert not punctured.contains({"a": 0})


def test_region_difference():
    inner = LocallyClosedSet(PARAM, (), (A,))  # a != 0
    outer = LocallyClosedSet(PARAM, (A,))  # a = 0
    region = Region(parts=(outer,), excluded=(inner,))
    assert region.contains({"a": 0})
    assert not region.contains({"a": 1})


def test_stratify_x2_plus_a():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    st = stratify(inst)
    assert len(st.strata) == 2
    s0, s1 = st.strata
    assert str(s0.b) == "s + 1"
    assert str(s1.b) == "s^2 + 3/2*s + 1/2"
    # membership: generic points take s + 1, the origin the double root
    assert st.find({"a": 7}).b == s0.b
    assert st.find({"a": 0}).b == s1.b
    # witnesses carry verified congruences
    for stratum in st.strata:
        for w in stratum.witnesses:
            assert check_congruence(w)
    # samples found for both
    assert s0.sample is not None and s1.sample is not None
    assert not s0.emptiness_unknown and not s1.emptiness_unknown


def test_stratify_p2_x_and_x_plus_a():
    # x and x + a: two smooth branches for a != 0, one double at a = 0
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x, x + a], v=(1, 1), a_names=("a",))
    st = stratify(inst)
    assert [str(s.b) for s in st.strata] == [
        "s1*s2 + s1 + s2 + 1",
        "s1^2 + 2*s1*s2 + s2^2 + 3*s1 + 3*s2 + 2",
    ]
    generic, special = st.strata
    # each witness's h is nonzero at its stratum's point: a^2 and 1
    for stratum, point in ((generic, {"a": 3}), (special, {"a": 0})):
        assert st.find(point) is stratum
        for w in stratum.witnesses:
            assert check_congruence(w)
            assert specialize_check(w, point)


def test_stratify_covering_and_disjoint_grid():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    st = stratify(inst)
    rng = random.Random(97)
    for _ in range(100):
        a0 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 11))
        hits = [s for s in st.strata if s.region.contains({"a": a0})]
        assert len(hits) == 1


def test_stratify_smooth_deformation():
    # x(x + a): smooth for a != 0, double point at a = 0
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a * x], v=(1,), a_names=("a",))
    st = stratify(inst)
    assert [str(s.b) for s in st.strata] == ["s + 1", "s^2 + 3/2*s + 1/2"]


def test_stratify_generic_quadratic_family():
    from genbs.cli import generic_family

    inst = generic_family(1, 1, 2)
    st = stratify(inst)
    bs = [str(s.b) if s.b is not None else None for s in st.strata]
    assert bs == ["s + 1", "s^2 + 3/2*s + 1/2", "1", None]
    assert st.strata[3].degenerate
    # the degenerate stratum is exactly the origin
    names = inst.registry.a
    origin = {nm: 0 for nm in names}
    assert st.find(origin).degenerate
    # spot check: double root locus
    pt = {"a_1_0": 1, "a_1_1": 2, "a_1_2": 1}  # (x+1)^2
    assert str(st.find(pt).b) == "s^2 + 3/2*s + 1/2"
    # constant nonzero
    pt2 = {"a_1_0": 3, "a_1_1": 0, "a_1_2": 0}
    assert str(st.find(pt2).b) == "1"


def test_find_raises_outside():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    st = stratify(inst, ambient=[PARAM.var("a") - 1])
    with pytest.raises(PointOutsideStratum):
        st.find({"a": 2})


def test_refine_partition_synthetic():
    S = PolyRing(QQ, ("s",), GRevLex())
    b1 = S.var("s") + 1
    b2 = S.var("s") + 2
    pieces = [
        _Piece(None, LocallyClosedSet(PARAM, (), (A,)), b1, None, False),
        _Piece(None, LocallyClosedSet(PARAM, (A,)), b2, None, False),
        _Piece(None, LocallyClosedSet(PARAM, (A - 1,)), b1, None, False),
    ]
    strata = refine_partition(pieces)
    # two groups: b1 (two parts) then b2, in first-occurrence order
    assert len(strata) == 2
    assert strata[0].b == b1 and strata[1].b == b2
    assert len(strata[0].region.parts) == 2
    # a = 1 is in the first group only; exclusion keeps strata disjoint
    assert strata[0].region.contains({"a": 1})
    assert not strata[1].region.contains({"a": 1})
    assert strata[1].region.contains({"a": 0})


def test_refine_partition_disjoint_cover_random():
    rng = random.Random(131)
    S = PolyRing(QQ, ("s",), GRevLex())
    bs = [S.var("s") + k for k in range(3)]
    for _ in range(30):
        pieces = []
        for _ in range(rng.randrange(1, 5)):
            roots = [PARAM.var("a") - k for k in range(-2, 3)]
            closed = tuple(rng.sample(roots, rng.randrange(0, 2)))
            removed = tuple(rng.sample(roots, rng.randrange(0, 2)))
            pieces.append(
                _Piece(None, LocallyClosedSet(PARAM, closed, removed), rng.choice(bs), None, False)
            )
        strata = refine_partition(pieces, sample_limit=50)
        for a0 in range(-3, 4):
            point = {"a": Fraction(a0)}
            in_union = any(p.part.contains(point) for p in pieces)
            hits = [s for s in strata if s.region.contains(point)]
            assert len(hits) == (1 if in_union else 0)


def test_sample_point_deterministic():
    region = Region(parts=(LocallyClosedSet(PARAM, (), (A, A - 1, A + 1)),))
    pt = sample_point(region)
    assert pt == sample_point(region)
    assert pt is not None and pt["a"] not in (0, 1, -1)
    empty = Region(parts=(LocallyClosedSet(PARAM, (A,), (A,)),))
    assert sample_point(empty, limit=100) is None
