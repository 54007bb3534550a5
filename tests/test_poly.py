"""Polynomial ring arithmetic, exact division, substitution, printing.

Also the term kernel shared with operators: the cached leading term and
the fused reduction step ``f - c*x^m*g``, checked against the products
they replace.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from genbs.errors import MixedRingError
from genbs.factor import exact_div, multi_gcd
from genbs.groebner import buchberger, normal_form
from genbs.orders import Block, GRevLex, Lex
from genbs.parametric import ResidueField
from genbs.poly import Poly, PolyRing, QQ
from genbs.primes import PrimeIdealQ, certify_prime, the_zero_prime
from genbs.weyl import WeylRing

R = PolyRing(QQ, ("x", "y"), GRevLex())
X, Y = R.var("x"), R.var("y")

# two Weyl pairs (x, dx), (y, dy) and a central s, under a degree order and
# under the elimination order used for s-elimination; and one Weyl pair
# with one shift pair (s, dt) under the dt elimination order of Ann f^s
WEYL_NAMES = ("x", "y", "dx", "dy", "s")
WEYL_PAIRS = ((0, 2), (1, 3))
WEYL_RINGS = (
    WeylRing(QQ, WEYL_NAMES, WEYL_PAIRS, GRevLex()),
    WeylRing(QQ, WEYL_NAMES, WEYL_PAIRS, Block((0, 2))),
    WeylRing(QQ, ("s", "x", "y", "dx", "dt"), ((1, 3),), Block((4,)), ((0, 4),)),
)

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)


@st.composite
def poly_strategy(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(min_value=0, max_value=4),
                    st.integers(min_value=0, max_value=4),
                ),
                coeffs,
            ),
            max_size=6,
        )
    )
    return R.from_terms([(e, Fraction(c)) for e, c in terms])


weyl_exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(WEYL_NAMES))


@st.composite
def weyl_op_strategy(draw, ring):
    terms = draw(st.lists(st.tuples(weyl_exps, coeffs), max_size=6))
    acc = ring.zero()
    for e, c in terms:
        acc = acc + ring.monomial(e, Fraction(c))
    return acc


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + R.zero() == f
    assert f * R.one() == f
    assert f - f == R.zero()


@given(
    poly_strategy(),
    weyl_op_strategy(WEYL_RINGS[0]),
    weyl_op_strategy(WEYL_RINGS[1]),
    weyl_op_strategy(WEYL_RINGS[2]),
)
def test_lead_term_consistency(f, op_grevlex, op_block, op_shift):
    if f.is_zero():
        assert f.total_degree() == -1
    else:
        le = f.lead_exp()
        assert f.coeff(le) == f.lead_coeff()
        for e, _ in f.terms()[1:]:
            assert R.order.greater(le, e)
    for op in (op_grevlex, op_block, op_shift):
        if op.is_zero():
            continue
        # the cached lead is taken before any sort happens
        le, lc = op.lead_exp(), op.lead_coeff()
        assert op.terms()[0] == (le, lc)
        for e, _ in op.terms()[1:]:
            assert op.ring.order.greater(le, e)


nonzero_coeffs = coeffs.filter(lambda c: c != 0).map(Fraction)


def _same_terms(a, b):
    """Equal term maps, in the same insertion order, coefficient by coefficient."""
    return [(e, str(c)) for e, c in a._terms.items()] == [
        (e, str(c)) for e, c in b._terms.items()
    ]


@given(
    poly_strategy(),
    poly_strategy(),
    nonzero_coeffs,
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_fused_reduction_poly(f, g, c, m):
    fused = f.sub_mul_term(c, m, g)
    reference = f - R.monomial(m, c) * g
    assert fused == reference
    assert _same_terms(fused, reference)


@pytest.mark.parametrize("ring", WEYL_RINGS, ids=["grevlex", "block", "shift_block"])
@given(data=st.data(), c=nonzero_coeffs, m=weyl_exps)
def test_fused_reduction_weyl(ring, data, c, m):
    f = data.draw(weyl_op_strategy(ring))
    g = data.draw(weyl_op_strategy(ring))
    fused = f.sub_mul_term(c, m, g)
    reference = f - ring.monomial(m, c) * g
    assert fused == reference
    assert _same_terms(fused, reference)


def test_fused_reduction_residue_field():
    # In Frac(Q[a,b]/(a*b-1)) an element has several num/den forms and the
    # form reached depends on the order of field operations, so the fused
    # step must run exactly the operations of the product it replaces.
    param = PolyRing(QQ, ("a", "b"), GRevLex())
    a, b = param.var("a"), param.var("b")
    basis = buchberger([a * b - 1])
    F = ResidueField(PrimeIdealQ(param, (a * b - 1,), tuple(basis), certify_prime(basis, param)))
    ring = WeylRing(F, ("x", "dx"), ((0, 1),), GRevLex())
    rng = random.Random(31)

    def elem():
        while True:
            num = rng.randint(-2, 2) + rng.randint(-2, 2) * a + rng.randint(-1, 1) * b
            den = rng.randint(-2, 2) + rng.randint(-2, 2) * a + rng.randint(-1, 1) * a * b
            if not F.nf(den).is_zero() and not F.nf(num).is_zero():
                return F.make(num, den)

    def op():
        acc = ring.zero()
        for _ in range(4):
            acc = acc + ring.monomial((rng.randint(0, 2), rng.randint(0, 2)), elem())
        return acc

    for _ in range(120):
        f, g, c = op(), op(), elem()
        m = (rng.randint(0, 1), rng.randint(1, 2))
        assert _same_terms(f.sub_mul_term(c, m, g), f - ring.monomial(m, c) * g)


def test_str_parenthesizes_compound_coefficients():
    # over a residue field a coefficient can be a sum; it prints in parentheses
    param = PolyRing(QQ, ("a",), GRevLex())
    F = ResidueField(the_zero_prime(param))
    S = PolyRing(F, ("s",), GRevLex())
    c = S.const(F.make(param.var("a") + 1))
    s = S.var("s")
    assert str(c * s) == "(a + 1)*s"
    assert str(-(c * s)) == "(-a - 1)*s"
    assert str(s - S.const(F.make(param.var("a")))) == "s - a"


def test_basic_shapes():
    f = (X + Y) ** 2
    assert f == X**2 + 2 * X * Y + Y**2
    assert f.total_degree() == 2
    assert f.degree_in("x") == 2
    assert str(X**2 - Y) == "x^2 - y"
    assert str(R.zero()) == "0"
    assert str(-X) == "-x"
    assert str(X * Fraction(3, 2)) == "3/2*x"


def test_diff_and_subs():
    f = X**3 * Y + 2 * X
    assert f.diff("x") == 3 * X**2 * Y + 2
    assert f.diff("y") == X**3
    assert f.subs({"x": 2, "y": Fraction(1, 2)}) == R.const(8)
    g = f.subs({"x": 1})
    assert g == Y + 2


def test_coefficients_wrt():
    f = X**2 * Y + 3 * X**2 + Y
    groups = f.coefficients_wrt(["x"])
    assert set(groups) == {(0,), (2,)}
    assert groups[(2,)] == Y + 3
    assert groups[(0,)] == Y


def test_convert_between_rings():
    S = PolyRing(QQ, ("y", "x", "z"), Lex())
    f = X**2 + Y
    g = S.convert(f)
    assert str(g) == str(S.var("x") ** 2 + S.var("y"))
    back = R.convert(g)
    assert back == f
    h = S.var("z") + S.one()
    with pytest.raises(MixedRingError):
        R.convert(h)
    # Q -> Frac(Q[a]/Q) and back: a rational coefficient is a Fraction in both
    F = ResidueField(the_zero_prime(PolyRing(QQ, ("a",), GRevLex())))
    RF = PolyRing(F, ("x", "y"), GRevLex())
    f2 = X**2 * Fraction(1, 2) - 3 * Y
    lifted = RF.convert(f2)
    assert lifted.ring is RF and str(lifted) == "1/2*x^2 - 3*y"
    assert lifted.coeff((2, 0)) == Fraction(1, 2)
    assert R.convert(lifted) == f2
    # a residue coefficient that is not rational has no image over Q
    with pytest.raises(ValueError):
        R.convert(RF.var("x").scale(F.make(F.ring.var("a"))))
    # same names and field under another order: the term map is shared
    L = R.with_order(Lex())
    g2 = L.convert(f)
    assert g2.ring is L and g2._terms is f._terms


def test_mixed_ring_arithmetic_rejected():
    S = PolyRing(QQ, ("x", "y"), Lex())
    with pytest.raises(MixedRingError):
        X + S.var("x")


def test_univar_divmod_gcd():
    S = PolyRing(QQ, ("s",), GRevLex())
    s = S.var("s")
    a = (s + 1) * (s + 2) * (s + 3)
    b = (s + 1) * (s + 4)
    # the univariate remainder multi_gcd's Euclid takes is a normal form
    r = normal_form(a, [b])
    assert r.total_degree() < b.total_degree()
    assert exact_div(a - r, b) * b + r == a
    g = multi_gcd(a, b)
    assert g == s + 1
    assert multi_gcd(b, a) == g
    assert multi_gcd(a.scale(3), b) == g


@given(poly_strategy())
def test_str_hash_eq_consistency(f):
    g = R.from_terms(list(f._terms.items()))
    assert f == g
    assert hash(f) == hash(g)
    assert str(f) == str(g)
