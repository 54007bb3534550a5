"""Weyl algebra and shift pairs: commutation relations, normal ordering, associativity."""

import random
from fractions import Fraction

import pytest

from genbs.errors import MixedRingError
from genbs.poly import Poly, PolyRing, QQ
from genbs.orders import Block, GRevLex
from genbs.weyl import WeylOp, WeylRing, commutator

W = WeylRing(QQ, ("a", "x", "y", "dx", "dy", "s"), ((1, 3), (2, 4)))
Av, X, Y, DX, DY, S = (W.gen(n) for n in W.names)
# A_1[s]<dt> as Ann f^s is eliminated in it: dt s = (s - 1) dt
WT = WeylRing(QQ, ("s", "x", "dx", "dt"), ((1, 2),), shift_pairs=((0, 3),))
ST, XT, DXT, DT = (WT.gen(n) for n in WT.names)


def test_commutation_relations():
    assert commutator(DX, X) == W.one()
    assert commutator(DY, Y) == W.one()
    assert commutator(DX, Y).is_zero()
    assert commutator(DY, X).is_zero()
    assert commutator(X, Y).is_zero()
    assert commutator(DX, DY).is_zero()
    # parameters and s are central
    for g in (Av, S):
        for h in (X, Y, DX, DY):
            assert commutator(g, h).is_zero()


def test_normal_ordering():
    assert DX * X == X * DX + 1
    assert DX * X**2 == X**2 * DX + 2 * X
    assert DX**2 * X == X * DX**2 + 2 * DX
    assert DX**2 * X**2 == X**2 * DX**2 + 4 * X * DX + 2
    # the general Leibniz coefficient: k! C(a,k) C(b,k)
    op = DX**3 * X**3
    expected = (
        X**3 * DX**3 + 9 * X**2 * DX**2 + 18 * X * DX + 6 * W.one()
    )
    assert op == expected


def test_shift_pair_normal_ordering():
    assert DT * ST == (ST - 1) * DT
    assert DT**2 * ST**2 == (ST - 2) ** 2 * DT**2
    assert DT**2 * ST**2 == ST**2 * DT**2 - 4 * ST * DT**2 + 4 * DT**2
    assert str(DT * ST) == "s*dt - dt"
    # s stays central on x and dx, dt commutes with them, [dx, x] = 1
    for g in (ST, DT):
        for h in (XT, DXT):
            assert commutator(g, h).is_zero()
    assert commutator(DXT, XT) == WT.one()
    # both kinds of pair in one product
    assert (DT * DXT) * (ST * XT) == (ST - 1) * XT * DT * DXT + (ST - 1) * DT


def test_pairing_keeps_first_members_first():
    for pairs, shifts in ((((2, 1),), ()), ((), ((3, 0),)), (((1, 2),), ((1, 3),))):
        with pytest.raises(ValueError):
            WeylRing(QQ, WT.names, pairs, shift_pairs=shifts)


def random_op(rng, max_terms=3, max_exp=2, ring=W):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-3, 4))
        if c:
            terms.append((exp, c))
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return WeylOp(ring, {e: c for e, c in out.items() if c})


def test_associativity_random():
    # Weyl pairs alone, and a Weyl pair next to a shift pair
    for ring in (W, WT):
        rng = random.Random(17)
        for _ in range(120):
            f, g, h = (random_op(rng, ring=ring) for _ in range(3))
            assert (f * g) * h == f * (g * h)


def test_distributivity_random():
    rng = random.Random(23)
    for _ in range(120):
        f, g, h = (random_op(rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_convert_embeds_and_recovers_commutative_poly():
    P = PolyRing(QQ, ("a", "x", "y"), GRevLex())
    f = P.var("x") ** 2 + P.var("a") * P.var("y")
    op = W.convert(f)
    assert isinstance(op, WeylOp) and op == X**2 + Av * Y
    back = P.convert(op)
    assert type(back) is Poly and back == f
    # derivative generators cannot be embedded from a commutative poly,
    # the dt of a shift pair included
    Q2 = PolyRing(QQ, ("dx", "dt"), GRevLex())
    with pytest.raises(MixedRingError):
        W.convert(Q2.var("dx"))
    with pytest.raises(MixedRingError):
        WT.convert(Q2.var("dt"))


def test_weyl_ring_extends_poly_ring():
    # a Weyl ring never equals the commutative ring on the same names,
    # pairs or not, and every inherited method stays in the Weyl ring
    P = PolyRing(QQ, W.names, GRevLex())
    assert W != P and P != W
    assert WeylRing(QQ, W.names, ()) != P
    assert WeylRing(QQ, W.names, W.pairs) == W
    assert hash(WeylRing(QQ, W.names, W.pairs)) == hash(W)
    # equality and hashing see the shift pairs
    assert WeylRing(QQ, WT.names, WT.pairs) != WT
    assert hash(WeylRing(QQ, WT.names, WT.pairs)) != hash(WT)
    assert WeylRing(QQ, WT.names, WT.pairs, shift_pairs=WT.shift_pairs) == WT
    assert WT.with_order(Block((3,))).shift_pairs == WT.shift_pairs
    op = (DX + X * S).scale(Fraction(2)) - 1
    for value in (op, op.monic(), -op, op**2, W.convert(op), W.var("x"), W.zero()):
        assert isinstance(value, WeylOp) and value.ring == W
    V = W.with_order(Block((1, 3)))
    assert isinstance(V, WeylRing) and V.pairs == W.pairs and V.order == Block((1, 3))
    with pytest.raises(MixedRingError):
        X + P.var("x")


def test_total_degree_and_str():
    op = X * DX - S
    assert op.total_degree() == 2
    assert str(op) == "x*dx - s"
    assert str(W.one()) == "1"
    assert str(DX**2 * Fraction(1, 4)) == "1/4*dx^2"


def test_pow():
    assert (X * DX) ** 2 == X**2 * DX**2 + X * DX
    assert (X + DX) ** 0 == W.one()
