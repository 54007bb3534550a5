"""Left Groebner engine: reduction exactness, S-pairs, weights, extraction."""

import random
from fractions import Fraction

import pytest

from genbs.annbs import bs_ideal_ctx, malgrange_ideal
from genbs.errors import HomogeneityViolation, TimeoutBudget
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.poly import QQ, PolyRing
from genbs.weyl import WeylOp, WeylRing
from genbs.weyl_groebner import (
    GBBudget,
    balance_pairs,
    elimination_order,
    is_left_groebner,
    is_weight_homogeneous,
    left_buchberger,
    left_normal_form,
    left_spoly,
    subring_elements,
    weight0_extract,
    weight_vector,
)

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
    return WeylOp(ring, {e: c for e, c in acc.items() if c})


def test_left_normal_form_exact():
    basis = [X * DX - S, X**2]
    f = X**2 * DX**2 + X * DX + S
    nf, cof = left_normal_form(f, basis, with_cofactors=True)
    rebuilt = nf
    for q, b in zip(cof, basis):
        rebuilt = rebuilt + q * b
    assert rebuilt == f


def test_left_buchberger_idempotent_and_groebner():
    gens = [X * DX - S, X**3]
    basis = left_buchberger(gens)
    assert is_left_groebner(basis)
    again = left_buchberger(basis)
    assert [str(g) for g in again] == [str(g) for g in basis]
    # every S-pair of the basis reduces to zero
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = left_spoly(basis[i], basis[j])
            assert left_normal_form(s, basis).is_zero()


def test_left_buchberger_cofactors():
    gens = [X * DX - S, X**2]
    basis, reps = left_buchberger(gens, cofactors=True)
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
                    gens, cofactors=True, budget=GBBudget(max_steps=200)
                )
            except TimeoutBudget:
                continue
            # is_left_groebner reduces every S-pair, with no criterion
            assert is_left_groebner(basis), name
            for g, rep in zip(basis, reps):
                rebuilt = ring.zero()
                for q, f in zip(rep, gens):
                    rebuilt = rebuilt + q * f
                assert rebuilt == g, name
            checked += 1
        assert checked >= 15, name


def test_pipeline_bases_pass_the_all_pairs_check():
    R = PolyRing(QQ, ("x", "y"), GRevLex())
    x, y = R.var("x"), R.var("y")
    # the Malgrange basis of the cusp, in the u, y elimination order
    cusp = make_instance(("x", "y"), [y**2 - x**3])
    ideal = malgrange_ideal(cusp)
    E = ideal.ring.with_order(
        elimination_order(ideal.ring, cusp.aux("u") + cusp.aux("y"))
    )
    malgrange = left_buchberger([WeylOp(E, g._terms) for g in ideal.generators])
    assert is_left_groebner(malgrange)
    # the s-elimination basis of the pair (x^3, y^4)
    pair = make_instance(("x", "y"), [x**3, y**4])
    assert is_left_groebner(bs_ideal_ctx(pair).elimination_basis)


def test_elimination_and_subring():
    # eliminate dx from <x dx - s, x^2 dx>: the intersection with Q[x, s]
    E = W.with_order(elimination_order(W, ("dx",)))
    gens = [WeylOp(E, dict(g._terms)) for g in [X * DX - S, X**2 * DX]]
    basis = left_buchberger(gens)
    sub = subring_elements(basis, kill_names=("dx",))
    assert all(g.degree_in("dx") == 0 for g in sub)
    assert any(not g.is_zero() for g in sub)


def test_weight_vector_and_homogeneity():
    WT = WeylRing(QQ, ("t", "u", "dt", "y"), ((0, 2),))
    w = weight_vector(WT, {"t": 1, "dt": -1, "u": 1, "y": -1})
    t, u, dt, y = (WT.gen(n) for n in WT.names)
    assert is_weight_homogeneous(t * dt, w)
    assert is_weight_homogeneous(u * y - 1, w)
    assert not is_weight_homogeneous(t + WT.one(), w)


def test_balance_pairs():
    WT = WeylRing(QQ, ("x", "t", "dx", "dt"), ((0, 2), (1, 3)))
    x, t, dx, dt = (WT.gen(n) for n in WT.names)
    # degree +1 in the (t, dt) pair: balancing left-multiplies by dt
    g = t * x
    balanced = balance_pairs(g, t_idx=(1,), dt_idx=(3,))
    assert balanced == dt * (t * x)
    for exp in balanced._terms:
        assert exp[1] == exp[3]
    # degree -1: balancing multiplies by t
    g2 = dt * x
    balanced2 = balance_pairs(g2, t_idx=(1,), dt_idx=(3,))
    for exp in balanced2._terms:
        assert exp[1] == exp[3]
    # mixed degrees inside one element are rejected
    with pytest.raises(HomogeneityViolation):
        balance_pairs(t + x, t_idx=(1,), dt_idx=(3,))


def test_weight0_extract_matched():
    WT = WeylRing(QQ, ("x", "t", "u", "dx", "dt", "y"), ((0, 3), (1, 4)))
    x, t, u, dx, dt, y = (WT.gen(n) for n in WT.names)
    ops = [t * dt + 1, t * x, u * y - 1]
    out = weight0_extract(
        ops, WT, t_names=("t",), dt_names=("dt",), u_names=("u",), y_names=("y",)
    )
    # the u, y element is dropped; the others come back pair-balanced
    assert len(out) == 2
    for g in out:
        assert g.degree_in("u") == 0 and g.degree_in("y") == 0
        for exp in g._terms:
            assert exp[1] == exp[4]


def test_budget_ticks():
    b = GBBudget(max_steps=5)
    for _ in range(5):
        b.tick()
    with pytest.raises(TimeoutBudget):
        b.tick()
    assert b.used == 5
