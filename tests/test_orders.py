"""Term order axioms: totality, multiplicativity, well-ordering on divisors."""

import random

from hypothesis import given, strategies as st

from genbs.orders import (
    Block,
    GRevLex,
    Lex,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from genbs.poly import PolyRing, QQ

NVARS = 4
exps = st.tuples(*([st.integers(min_value=0, max_value=6)] * NVARS))

ORDERS = [
    Lex(),
    GRevLex(),
    Block((0, 1)),
    Block((2,)),
]


@given(exps, exps)
def test_totality_antisymmetry(e1, e2):
    for order in ORDERS:
        gt = order.greater(e1, e2)
        lt = order.greater(e2, e1)
        if e1 == e2:
            assert not gt and not lt
        else:
            assert gt != lt


@given(exps, exps, exps)
def test_multiplicative(e1, e2, m):
    for order in ORDERS:
        if order.greater(e1, e2):
            assert order.greater(mono_mul(e1, m), mono_mul(e2, m))


@given(exps, exps)
def test_divisor_not_greater(e1, e2):
    # a proper divisor is strictly smaller in any admissible order
    for order in ORDERS:
        if mono_divides(e1, e2) and e1 != e2:
            assert order.greater(e2, e1)


@given(exps, exps)
def test_lcm_and_div(e1, e2):
    l = mono_lcm(e1, e2)
    assert mono_divides(e1, l) and mono_divides(e2, l)
    q = mono_div(l, e1)
    assert q is not None and mono_mul(q, e1) == l


def test_block_front_dominates():
    order = Block((0,))
    # any positive front power beats any back-only monomial
    assert order.greater((1, 0, 0, 0), (0, 9, 9, 9))
    assert order.greater((0, 3, 0, 0), (0, 0, 5, 0)) == GRevLex().greater(
        (3, 0, 0), (0, 5, 0)
    )


def test_grevlex_ties():
    order = GRevLex()
    # same total degree: the last differing exponent decides, reversed
    assert order.greater((1, 1, 0, 0), (1, 0, 1, 0))
    assert order.greater((2, 0, 0, 0), (1, 1, 0, 0))


def test_randomized_order_axioms_bulk():
    rng = random.Random(7)
    for _ in range(1500):
        e1 = tuple(rng.randrange(5) for _ in range(NVARS))
        e2 = tuple(rng.randrange(5) for _ in range(NVARS))
        m = tuple(rng.randrange(5) for _ in range(NVARS))
        for order in ORDERS:
            if e1 == e2:
                assert not order.greater(e1, e2)
            else:
                assert order.greater(e1, e2) != order.greater(e2, e1)
            if order.greater(e1, e2):
                assert order.greater(mono_mul(e1, m), mono_mul(e2, m))


def _exp_sets(n):
    return st.sets(st.tuples(*([st.integers(min_value=0, max_value=4)] * n)), max_size=12)


@given(st.data())
def test_cached_keys_agree_with_key(data):
    """Leads and sorted terms read through the key cache equal ``max`` and
    ``sorted`` by the order's own ``key``, on cold and on warm caches."""
    front = data.draw(st.sets(st.integers(0, NVARS - 1), min_size=1, max_size=NVARS - 1))
    # the last Block reads exponents of two lengths, as when one order
    # serves rings of different sizes
    cases = [(o, (NVARS,)) for o in (Lex(), GRevLex(), Block(front))]
    cases.append((Block((1,)), (3, 5)))
    for order, lengths in cases:
        for n in lengths:
            ring = PolyRing(QQ, ["v%d" % i for i in range(n)], order)
            for _ in range(2):
                exps = data.draw(_exp_sets(n))
                p = ring.from_terms((e, 1) for e in exps)
                assert p.monomials() == sorted(exps, key=order.key, reverse=True)
                if exps:
                    assert p.lead_exp() == max(exps, key=order.key)
                for e in exps:
                    assert order.cached_key(e) == order.key(e)


def test_key_cache_computes_each_key_once():
    calls = []

    class Counted(GRevLex):
        def key(self, exp):
            calls.append(exp)
            return super().key(exp)

    order = Counted()
    for _ in range(3):
        assert order.cached_key((1, 2)) == GRevLex().key((1, 2))
    assert calls == [(1, 2)]
