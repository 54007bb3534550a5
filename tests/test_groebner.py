"""Groebner engine on commutative rings: reduction, idempotence, elimination, dimension."""

import heapq
import random
from fractions import Fraction

import pytest

from genbs.errors import MissingBasisError, MixedRingError, TimeoutBudget
from genbs.groebner import (
    _update_pairs,
    buchberger,
    ideal_contains,
    ideal_dim,
    is_groebner,
    is_unit_ideal,
    normal_form,
    spoly,
)
from genbs.orders import Block, GRevLex, Lex, mono_divides, mono_lcm, mono_mul
from genbs.poly import PolyRing, QQ
from genbs.weyl import WeylRing
from genbs.weyl_groebner import GBBudget, eliminate, left_buchberger

R = PolyRing(QQ, ("x", "y", "z"), GRevLex())
X, Y, Z = R.var("x"), R.var("y"), R.var("z")


def random_poly(rng, ring, max_terms=4, max_exp=3):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(max_exp) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-5, 6))
        if c:
            terms.append((exp, c))
    return ring.from_terms(terms)


def test_pair_free_weyl_ring_gives_the_commutative_basis():
    # one engine serves both rings: a Weyl ring without pairs is R
    W = WeylRing(QQ, R.names, ())
    rng = random.Random(5)
    for _ in range(6):
        gens = [random_poly(rng, R) for _ in range(3)]
        basis, reps = buchberger(gens, track=range(3))
        wbasis, wreps = left_buchberger([W.convert(g) for g in gens], track=range(3))
        assert [str(g) for g in wbasis] == [str(g) for g in basis]
        assert [[str(r) for r in rep] for rep in wreps] == [
            [str(r) for r in rep] for rep in reps
        ]


def test_mixed_rings_rejected():
    S = PolyRing(QQ, ("x", "y", "z"), Lex())
    with pytest.raises(MixedRingError):
        buchberger([X, S.var("y")])
    with pytest.raises(MixedRingError):
        left_buchberger([X, WeylRing(QQ, R.names, ()).var("y")])


def test_normal_form_is_remainder():
    basis = buchberger([X * Y - 1, Y**2 - X])
    f = X**3 * Y + Y
    nf, cof = normal_form(f, basis, with_cofactors=True)
    assert sum((c * b for c, b in zip(cof, basis)), R.zero()) + nf == f
    # no term of the normal form is divisible by a lead monomial
    for exp, _ in nf.terms():
        for b in basis:
            assert any(e < be for e, be in zip(exp, b.lead_exp()) if be) or not all(
                e >= be for e, be in zip(exp, b.lead_exp())
            )


def test_buchberger_reduced_and_deterministic():
    gens = [X**2 + Y, X * Y + Z, Y * Z - X]
    b1 = buchberger(gens)
    b2 = buchberger(list(reversed(gens)))
    assert [str(g) for g in b1] == [str(g) for g in b2]
    assert is_groebner(b1)
    # reduced: monic, no term divisible by another lead
    for g in b1:
        assert g.lead_coeff() == 1
    b3 = buchberger(b1)
    assert [str(g) for g in b3] == [str(g) for g in b1]


def test_spoly_reduces_to_zero_on_basis():
    rng = random.Random(3)
    for _ in range(30):
        gens = [random_poly(rng, R) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(spoly(basis[i], basis[j]), basis).is_zero()


def test_cofactor_tracking():
    gens = [X**2 - Y, X * Y - Z]
    basis, reps = buchberger(gens, track=(0, 1))
    for g, rep in zip(basis, reps):
        assert sum((c * f for c, f in zip(rep, gens)), R.zero()) == g


def test_ideal_contains_and_unit():
    basis = buchberger([X - 1, Y - 2])
    assert ideal_contains(basis, (X - 1) * Y + (Y - 2))
    assert not ideal_contains(basis, X)
    unit = buchberger([X, X + 1])
    assert is_unit_ideal(unit)


def test_eliminate():
    # projection of the twisted cubic: x = t, y = t^2, z = t^3
    S = PolyRing(QQ, ("t", "x", "y", "z"), GRevLex())
    t, x, y, z = (S.var(n) for n in ("t", "x", "y", "z"))
    out = eliminate([x - t, y - t**2, z - t**3], drop_names=("t",))
    strs = {str(g) for g in out}
    assert str(R.convert(X**2 - Y)) in {str(R.convert(p)) for p in out} or any(
        "x^2" in s for s in strs
    )
    basis = buchberger(out)
    assert ideal_contains(basis, S.var("x") ** 2 - S.var("y"))
    assert ideal_contains(basis, S.var("x") * S.var("y") - S.var("z"))
    for g in out:
        assert g.degree_in("t") == 0


def test_ideal_dim():
    assert ideal_dim([], R) == 3
    assert ideal_dim(buchberger([X]), R) == 2
    assert ideal_dim(buchberger([X, Y]), R) == 1
    assert ideal_dim(buchberger([X, Y, Z]), R) == 0
    assert ideal_dim(buchberger([X, X + 1]), R) == -1
    with pytest.raises(MissingBasisError):
        ideal_dim([], None)


def test_budget_exhaustion():
    rng = random.Random(11)
    gens = [random_poly(rng, R, max_terms=5, max_exp=4) for _ in range(4)]
    with pytest.raises(TimeoutBudget) as ei:
        buchberger(gens, budget=GBBudget(max_steps=3))
    assert ei.value.exit_code == 3
    assert ei.value.partial is not None


def test_lex_vs_block_elimination_agree():
    S = PolyRing(QQ, ("u", "x", "y"), GRevLex())
    u, x, y = S.var("u"), S.var("x"), S.var("y")
    gens = [u * x - 1, u * y - 1]
    out = eliminate(gens, drop_names=("u",))
    basis = buchberger(out)
    assert ideal_contains(basis, x - y)


def _update_pairs_double_loop(pairs, leads, product):
    """The pair update with the M test as a double loop over the new
    pairs: (old pairs kept, new pairs pushed)."""
    t = len(leads) - 1
    lt = leads[t]
    new = [(i, t, mono_lcm(leads[i], lt)) for i in range(t)]
    new = [
        (i, j, l)
        for i, j, l in new
        if not any(l2 != l and mono_divides(l2, l) for _, _, l2 in new)
    ]
    classes = {}
    for i, j, l in new:
        classes.setdefault(l, []).append((i, j, l))
    kept = [
        min(cls)
        for l, cls in classes.items()
        if not (product and any(mono_mul(leads[i], lt) == l for i, _, _ in cls))
    ]
    old = [
        p
        for p in pairs
        if not mono_divides(lt, p[4])
        or mono_lcm(leads[p[2]], lt) == p[4]
        or mono_lcm(leads[p[3]], lt) == p[4]
    ]
    return sorted(old), kept


@pytest.mark.parametrize("product", [False, True])
def test_update_pairs_keeps_the_double_loop_pairs(product):
    # leads with many equal and nested lcms: small exponents, few variables
    rng = random.Random(61 + product)
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        leads = [
            tuple(rng.randrange(4) for _ in range(nvars)) for _ in range(rng.randrange(2, 12))
        ]
        old_pairs = []
        for serial in range(rng.randrange(0, 8)):
            i, j = sorted(rng.sample(range(len(leads) - 1), 2)) if len(leads) > 2 else (0, 0)
            old_pairs.append((serial, serial, i, j, mono_lcm(leads[i], leads[j])))
        # a heap not in sorted order, which the update must leave a heap
        pairs = old_pairs[::-1]
        heapq.heapify(pairs)
        pushed = []
        _update_pairs(pairs, leads, product, lambda *pair: pushed.append(pair))
        assert (sorted(pairs), pushed) == _update_pairs_double_loop(old_pairs, leads, product)
        assert all(pairs[(k - 1) // 2] <= pairs[k] for k in range(1, len(pairs)))
