"""Left Groebner engine: reduction exactness, S-pairs, weights, extraction."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
import genbs.weyl_groebner
from hypothesis import given, settings, strategies as st

from genbs.annbs import ann_fs_ctx
from genbs.errors import HomogeneityViolation, TimeoutBudget
from genbs.groebner import _assert_homogeneous, is_groebner, normal_form, spoly
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.poly import QQ, PolyRing
from genbs.weyl import WeylRing
from genbs.weyl_groebner import GBBudget, eliminate, elimination_order, left_buchberger

W = WeylRing(QQ, ("x", "dx", "s"), ((0, 1),))
X, DX, S = (W.gen(n) for n in W.names)


def shifted_op(rng, ring, max_terms=2, max_exp=2):
    """Random operator with one fixed x/dx degree shift per Weyl pair.

    Left ideals of such operators are seldom the whole ring, so their
    bases have several elements and the pair criteria get to fire.
    """
    shifts = [rng.randrange(-1, 2) for _ in ring.pairs]
    acc = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = [rng.randrange(max_exp + 1) for _ in range(ring.nvars)]
        for (p, d), k in zip(ring.pairs, shifts):
            e = exp[d]
            exp[p], exp[d] = (e + k, e) if k >= 0 else (e, e - k)
        c = Fraction(rng.randrange(-3, 4))
        if c:
            acc[tuple(exp)] = acc.get(tuple(exp), 0) + c
    return ring.from_terms(acc.items())


def test_left_normal_form_exact():
    basis = [X * DX - S, X**2]
    f = X**2 * DX**2 + X * DX + S
    nf, cof = normal_form(f, basis, with_cofactors=True)
    rebuilt = nf
    for q, b in zip(cof, basis):
        rebuilt = rebuilt + q * b
    assert rebuilt == f


def test_left_buchberger_idempotent_and_groebner():
    gens = [X * DX - S, X**3]
    basis = left_buchberger(gens)
    assert is_groebner(basis)
    again = left_buchberger(basis)
    assert [str(g) for g in again] == [str(g) for g in basis]
    # every S-pair of the basis reduces to zero
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spoly(basis[i], basis[j])
            assert normal_form(s, basis).is_zero()


def test_left_buchberger_cofactors():
    gens = [X * DX - S, X**2]
    basis, reps = left_buchberger(gens, track=(0, 1))
    for g, rep in zip(basis, reps):
        rebuilt = W.zero()
        for q, f in zip(rep, gens):
            rebuilt = rebuilt + q * f
        assert rebuilt == g


W2 = WeylRing(QQ, ("x", "y", "dx", "dy"), ((0, 2), (1, 3)))
W2S = WeylRing(QQ, ("x", "y", "dx", "dy", "s"), ((0, 2), (1, 3)))
# A_1[s]<dt>: dt s = (s - 1) dt
WT = WeylRing(QQ, ("s", "x", "dx", "dt"), ((1, 2),), shift_pairs=((0, 3),))

# The engine skips S-pairs by the chain criterion in every ring; these
# rings cover one and two Weyl pairs, a central variable, a shift pair,
# and the block elimination orders of the dt- and s-eliminations.
CRITERIA_RINGS = {
    "one_pair_central": W,
    "two_pairs": W2,
    "one_pair_block": W.with_order(elimination_order(W, ("x", "dx"))),
    "two_pairs_central_block": W2S.with_order(
        elimination_order(W2S, ("x", "y", "dx", "dy"))
    ),
    "weyl_and_shift_block": WT.with_order(elimination_order(WT, ("dt",))),
}


def test_left_buchberger_random_spoly_property():
    for name, ring in CRITERIA_RINGS.items():
        rng = random.Random(29)
        checked = 0
        for _ in range(20):
            gens = [shifted_op(rng, ring) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            try:
                basis, reps = left_buchberger(
                    gens, track=range(len(gens)), budget=GBBudget(max_steps=200)
                )
            except TimeoutBudget:
                continue
            # is_groebner reduces every S-pair, with no criterion
            assert is_groebner(basis), name
            for g, rep in zip(basis, reps):
                rebuilt = ring.zero()
                for q, f in zip(rep, gens):
                    rebuilt = rebuilt + q * f
                assert rebuilt == g, name
            checked += 1
        assert checked >= 15, name


# Rings for the tracking property: Weyl and commutative, graded and
# block orders.
R3 = PolyRing(QQ, ("x", "y", "z"), GRevLex())
TRACK_RINGS = {
    **CRITERIA_RINGS,
    "commutative": R3,
    "commutative_block": R3.with_order(elimination_order(R3, ("x",))),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TRACK_RINGS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_tracking_one_generator_gives_that_component(name, seed, n, data):
    # track=(i,) carries the i-th component of the full cofactor vector,
    # term for term, and leaves the basis as it was
    ring = TRACK_RINGS[name]
    rng = random.Random(seed)
    gens = [shifted_op(rng, ring) for _ in range(n)]
    i = data.draw(st.integers(0, n - 1))
    try:
        basis, reps = left_buchberger(
            gens, track=range(n), budget=GBBudget(max_steps=200)
        )
    except TimeoutBudget:
        return
    one_basis, one_reps = left_buchberger(gens, track=(i,))
    assert [str(g) for g in one_basis] == [str(g) for g in basis]
    assert [[str(r) for r in rep] for rep in one_reps] == [
        [str(rep[i])] for rep in reps
    ]
    assert [str(g) for g in left_buchberger(gens)] == [str(g) for g in basis]


def test_pipeline_bases_pass_the_all_pairs_check():
    R = PolyRing(QQ, ("x", "y"), GRevLex())
    x, y = R.var("x"), R.var("y")
    # the dt-elimination basis of the cusp, in the dt elimination order
    cusp = make_instance(("x", "y"), [y**2 - x**3])
    A = cusp.annihilator_ring()
    dt = A.gen("_dt1")
    f = A.convert(cusp.f[0])
    gens = [A.gen("s") + f * dt] + [
        A.gen("d" + v) + A.convert(cusp.f[0].diff(v)) * dt for v in ("x", "y")
    ]
    E = A.with_order(elimination_order(A, cusp.dt_names()))
    assert is_groebner(left_buchberger([E.convert(g) for g in gens]))
    # the s-elimination basis of the pair (x^3, y^4), in the x, dx order
    pair = make_instance(("x", "y"), [x**3, y**4])
    ann = ann_fs_ctx(pair)
    gens = list(ann.generators) + [ann.ring.convert(pair.f_power_v())]
    E = ann.ring.with_order(
        elimination_order(ann.ring, pair.registry.x + pair.registry.d_names())
    )
    assert is_groebner(left_buchberger([E.convert(g) for g in gens]))


def test_product_criterion_is_off_with_a_shift_pair():
    """The leads dt and s are coprime, yet the S-pair of dt - 1 and s
    reduces to 1: s (dt - 1) - dt s = dt - s, as dt s = (s - 1) dt."""
    T = WeylRing(QQ, ("s", "dt"), (), shift_pairs=((0, 1),))
    s, dt = T.gen("s"), T.gen("dt")
    assert left_buchberger([dt - 1, s]) == [T.one()]


def test_elimination_and_subring():
    # eliminate dx from <x dx - s, x^2 dx>: the intersection with Q[x, s]
    gens = [X * DX - S, X**2 * DX]
    members, reps = eliminate(gens, ("dx",), track=(0, 1))
    assert [str(g) for g in eliminate(gens, ("dx",))] == [str(g) for g in members]
    assert members and all(g.ring is W for g in members)
    assert all(g.degree_in("dx") == 0 and not g.is_zero() for g in members)
    # each member is the left combination its cofactors say
    for g, rep in zip(members, reps):
        assert sum((q * f for q, f in zip(rep, gens)), W.zero()) == g


def test_elimination_order_dies_with_its_ring(monkeypatch):
    """An order's key cache closes no reference cycle: with the cyclic
    collector off, the Block order of an ``eliminate`` run is freed by
    refcount, its cache with it, once the run's ring is dropped."""
    refs = []

    def recorded(ring, front_names):
        order = elimination_order(ring, front_names)
        refs.append(weakref.ref(order))
        return order

    monkeypatch.setattr(genbs.weyl_groebner, "elimination_order", recorded)
    gc.collect()
    gc.disable()
    try:
        members, reps = eliminate([X * DX - S, X**2 * DX], ("dx",), track=(0, 1))
        assert members and len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


def test_weight_vector_and_homogeneity():
    """left_buchberger asserts each weight vector on every element it
    forms: a graded input passes, and an input that is not homogeneous
    raises."""
    w = [1, -1, 0]  # x, dx, s: [dx, x] = 1 is homogeneous of degree 0
    gens = [X * DX - S, X**3]
    assert left_buchberger(gens, weight_vectors=(w,)) == left_buchberger(gens)
    for g in gens + [DX * X]:
        _assert_homogeneous(g._terms, (w,), "test")
    with pytest.raises(HomogeneityViolation):
        left_buchberger([X + S], weight_vectors=(w,))


def test_budget_ticks():
    b = GBBudget(max_steps=5)
    for _ in range(5):
        b.tick()
    with pytest.raises(TimeoutBudget):
        b.tick()
    assert b.used == 5
