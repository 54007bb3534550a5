"""Left Groebner engine: reduction exactness, S-pairs, weights, extraction."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
import genbs.weyl_groebner
from hypothesis import given, settings, strategies as st

import genbs.annbs
from genbs.annbs import _balance, _theta_substitute, ann_fs_ctx, malgrange_ideal
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

# The engine skips S-pairs by the chain criterion in every ring; these
# rings cover one and two Weyl pairs, a central variable, and the block
# elimination orders of the s-elimination.
CRITERIA_RINGS = {
    "one_pair_central": W,
    "two_pairs": W2,
    "one_pair_block": W.with_order(elimination_order(W, ("x", "dx"))),
    "two_pairs_central_block": W2S.with_order(
        elimination_order(W2S, ("x", "y", "dx", "dy"))
    ),
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
    # the Malgrange basis of the cusp, in the u, y elimination order
    cusp = make_instance(("x", "y"), [y**2 - x**3])
    ideal = malgrange_ideal(cusp)
    E = ideal.ring.with_order(
        elimination_order(ideal.ring, cusp.aux("u") + cusp.aux("y"))
    )
    malgrange = left_buchberger([E.convert(g) for g in ideal.generators])
    assert is_groebner(malgrange)
    # the s-elimination basis of the pair (x^3, y^4), in the x, dx order
    pair = make_instance(("x", "y"), [x**3, y**4])
    ann = ann_fs_ctx(pair)
    gens = list(ann.generators) + [ann.ring.convert(pair.f_power_v())]
    E = ann.ring.with_order(
        elimination_order(ann.ring, pair.registry.x + pair.registry.d_names())
    )
    assert is_groebner(left_buchberger([E.convert(g) for g in gens]))


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


def test_weight_vector_and_homogeneity(monkeypatch):
    """ann_fs_ctx grades the Malgrange ring +1 on t, u and -1 on dt, y,
    and the engine's assertion holds that grading."""
    R = PolyRing(QQ, ("x", "y"), GRevLex())
    cusp = make_instance(("x", "y"), [R.var("y") ** 2 - R.var("x") ** 3])
    seen = []

    def recorded(generators, drop_names, **kw):
        seen.append(kw["weight_vectors"])
        return eliminate(generators, drop_names, **kw)

    monkeypatch.setattr(genbs.annbs, "eliminate", recorded)
    ann_fs_ctx(cusp)
    (w,) = seen[0]
    WT = cusp.malgrange_ring()
    assert w == [{"_t1": 1, "_u1": 1, "_dt1": -1, "_y1": -1}.get(n, 0) for n in WT.names]
    t, u, dt, y = (WT.gen(n) for n in ("_t1", "_u1", "_dt1", "_y1"))
    for g in malgrange_ideal(cusp).generators + [t * dt, u * y - 1]:
        _assert_homogeneous(g, (w,), "test")
    with pytest.raises(HomogeneityViolation):
        _assert_homogeneous(t + WT.one(), (w,), "test")


def test_balance_pairs():
    WT = WeylRing(QQ, ("x", "t", "dx", "dt"), ((0, 2), (1, 3)))
    x, t, dx, dt = (WT.gen(n) for n in WT.names)
    # degree +1 in the (t, dt) pair: balancing left-multiplies by dt
    g = t * x
    balanced = _balance(g, [(1, 3)])
    assert balanced == dt * (t * x)
    for exp in balanced._terms:
        assert exp[1] == exp[3]
    # degree -1: balancing multiplies by t
    g2 = dt * x
    balanced2 = _balance(g2, [(1, 3)])
    for exp in balanced2._terms:
        assert exp[1] == exp[3]
    # mixed degrees inside one element are rejected
    with pytest.raises(HomogeneityViolation):
        _balance(t + x, [(1, 3)])


def test_weight0_extract_matched():
    R = PolyRing(QQ, ("x",), GRevLex())
    inst = make_instance(("x",), [R.var("x")])
    WT = inst.malgrange_ring()
    x, t, u, dx, dt, y = (WT.gen(n) for n in WT.names)
    assert WT.pairs == ((0, 3), (1, 4))
    # eliminate returns the members free of u and y, and no other
    members = eliminate([t * dt + 1, t * x, u * y - 1], inst.aux("u") + inst.aux("y"))
    assert [str(g) for g in members] == ["x*_t1", "_t1*_dt1 + 1"]
    # balancing matches the t/dt powers; t dt = -s - 1, dt t = -s
    pairs = [(1, 4)]
    out = [
        _theta_substitute(_balance(g, pairs), pairs, inst.weyl_ring(), inst)
        for g in [t * dt + 1, t * x, dt * x]
    ]
    assert [str(g) for g in out] == ["-s", "-x*s", "-x*s - x"]


def test_budget_ticks():
    b = GBBudget(max_steps=5)
    for _ in range(5):
        b.tick()
    with pytest.raises(TimeoutBudget):
        b.tick()
    assert b.used == 5
