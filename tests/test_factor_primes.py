"""Gcd, squarefree parts, conservative factorization, minimal primes."""

import importlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from genbs.errors import (
    DecompositionUnsupported,
    TimeoutBudget,
    UnitIdealError,
    ZeroPolynomialError,
)
from genbs.factor import (
    exact_div,
    divides,
    factor,
    multi_gcd,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
)
from genbs.orders import GRevLex, mono_div
from genbs.poly import PolyRing, QQ
from genbs.primes import certify_prime, minimal_primes, the_zero_prime
from genbs.weyl_groebner import GBBudget

R = PolyRing(QQ, ("x", "y"), GRevLex())
X, Y = R.var("x"), R.var("y")
A3 = PolyRing(QQ, ("a", "b", "c"), GRevLex())
A, B, C = A3.var("a"), A3.var("b"), A3.var("c")


def test_exact_div():
    f = (X + Y) * (X - Y)
    assert exact_div(f, X + Y) == X - Y
    with pytest.raises(ValueError):
        exact_div(X**2 + 1, X + Y)
    assert divides(X, X**2 * Y)
    assert not divides(X + 1, X**2 + 1)


NONZERO_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def _long_division(f, g):
    """exact_div's quotient loop alone, without its smallest-term test."""
    q, r = {}, f
    while not r.is_zero():
        m = mono_div(r.lead_exp(), g.lead_exp())
        if m is None:
            return None
        c = q[m] = r.lead_coeff() / g.lead_coeff()
        r = r.sub_mul_term(c, m, g)
    return q


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)), max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2), NONZERO_RATIONALS),
)
# a single-term divisor that divides every term of f but one
@example([(1, 0, 1)], [(0, 1, 2)], [(1, 0, 1)], (1, 1, Fraction(-3, 2)))
def test_exact_div_agrees_with_long_division(q_terms, g_terms, r_terms, mono):
    """On q*g, and on q*g plus a few terms, exact_div returns the quotient
    of plain long division, term for term, or raises where it fails; g is
    drawn as a sum of terms and as a single term c*x^i*y^j with c a
    nonzero rational, negative and non-integer ones included."""
    def poly(terms):
        return R.from_terms(((i, j), Fraction(c)) for i, j, c in terms if c)

    q, r = poly(q_terms), poly(r_terms)
    for g in (poly(g_terms), poly([mono])):
        if g.is_zero():
            continue
        for f in (q * g, q * g + r):
            expected = _long_division(f, g)
            if expected is None:
                with pytest.raises(ValueError):
                    exact_div(f, g)
            else:
                assert exact_div(f, g)._terms == expected


def test_exact_div_rejects_on_smallest_terms_without_dividing(monkeypatch):
    """min(q*g) = min(q)*min(g) under a monomial order, so when the smallest
    term of g does not divide that of f no division step runs."""
    steps = []
    # each division step over Q subtracts a multiple of the divisor
    # through sub_ratios_into
    poly_module = importlib.import_module("genbs.poly")
    step = poly_module.sub_ratios_into
    monkeypatch.setattr(
        poly_module, "sub_ratios_into", lambda *args: steps.append(args[3]) or step(*args)
    )
    # the leads x^3 and x divide, the smallest terms 1 and y do not
    with pytest.raises(ValueError):
        exact_div(X**3 + 1, X + Y)
    assert not steps
    assert exact_div((X + Y) * (X**2 + 1), X + Y) == X**2 + 1
    assert steps


def test_multi_gcd_random_products():
    rng = random.Random(5)
    for _ in range(40):
        def rand_poly():
            terms = []
            for _ in range(rng.randrange(1, 4)):
                exp = (rng.randrange(3), rng.randrange(3))
                c = Fraction(rng.randrange(-4, 5))
                if c:
                    terms.append((exp, c))
            return R.from_terms(terms)

        g = rand_poly()
        u = rand_poly()
        v = rand_poly()
        if g.is_zero() or u.is_zero() or v.is_zero():
            continue
        d = multi_gcd(u * g, v * g)
        # gcd contains g (up to the gcd of u and v)
        assert divides(g.monic(), d) or divides(d, (u * g).monic())
        assert divides(d, (u * g).monic()) and divides(d, (v * g).monic())


A3_POLYS = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-3, 3)), min_size=1, max_size=4
).map(lambda terms: A3.from_terms((e, Fraction(c)) for e, c in terms if c))


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(0, 3)] * 3),
    NONZERO_RATIONALS,
    A3_POLYS,
    st.booleans(),
)
def test_multi_gcd_with_a_monomial_operand(exp, c, other, mono_first):
    """With a single term on either side, multi_gcd is a common divisor
    that no variable can enlarge: d divides both operands, and d*v does
    not for any variable v.  The check uses exact division only."""
    if other.is_zero():
        return
    mono = A3.monomial(exp, c)
    f, g = (mono, other) if mono_first else (other, mono)
    d = multi_gcd(f, g)
    assert d.lead_coeff() == 1
    assert divides(d, f) and divides(d, g)
    for v in (A, B, C):
        assert not (divides(d * v, f) and divides(d * v, g))


def test_squarefree_decomposition():
    f = (X + Y) ** 3 * (X - Y) ** 2 * (X + 1)
    dec = squarefree_decomposition(f)
    rebuilt = R.one()
    for w, k in dec:
        rebuilt = rebuilt * w**k
    assert rebuilt == f.monic()
    mults = sorted(k for _, k in dec)
    assert mults == [1, 2, 3]
    assert squarefree_part(f) == ((X + Y) * (X - Y) * (X + 1)).monic()
    with pytest.raises(ZeroPolynomialError):
        squarefree_decomposition(R.zero())


def test_rational_roots():
    S = PolyRing(QQ, ("s",), GRevLex())
    s = S.var("s")
    f = (s + 1) * (s + Fraction(1, 2)) * (s - 3)
    assert rational_roots(f, 0) == [-1, Fraction(-1, 2), 3]
    g = s**2 + 1
    assert rational_roots(g, 0) == []


def test_rational_roots_lists_zero():
    S = PolyRing(QQ, ("s",), GRevLex())
    s = S.var("s")
    f = s**3 * (s + 1) ** 2 * (2 * s - 1)
    assert rational_roots(f, 0) == [-1, 0, Fraction(1, 2)]
    assert rational_roots(s, 0) == [0]


def test_rational_roots_refuses_other_variables():
    # the constant coefficient along s1 is s2 + 1 or 2, not a number
    S2 = PolyRing(QQ, ("s1", "s2"), GRevLex())
    s1, s2 = S2.var("s1"), S2.var("s2")
    for f in (s1 + s2 + 1, s1 * s2 + s1 + 2, s2 + 1):
        with pytest.raises(ValueError):
            rational_roots(f, 0)


def _eval_univar(vals, r):
    acc = Fraction(0)
    for c in reversed(vals):
        acc = acc * r + c
    return acc


def _reference_rational_roots(f):
    """Every ±p/q over divisors of the integer end coefficients, tested in Q."""
    vals = [f.coeff((k,)) for k in range(f.degree_in(0) + 1)]
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    a0, an = abs(ints[0]), abs(ints[-1])
    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    roots = {
        Fraction(sign * p, q)
        for p in divisors(a0)
        for q in divisors(an)
        for sign in (1, -1)
        if _eval_univar(vals, Fraction(sign * p, q)) == 0
    }
    return sorted(roots)


small_roots = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


@settings(deadline=None)
@given(st.lists(small_roots, min_size=1, max_size=4), st.fractions(-3, 3, max_denominator=3).filter(bool))
def test_rational_roots_products_of_linear_factors(roots, unit):
    S = PolyRing(QQ, ("s",), GRevLex())
    s = S.var("s")
    f = S.const(unit) * (s**2 + 1)
    for r in roots:
        f = f * (s - S.const(r))
    expected = sorted(set(roots))
    assert _reference_rational_roots(f) == expected
    assert rational_roots(f, 0) == expected


S1 = PolyRing(QQ, ("s",), GRevLex())
s_ = S1.var("s")
# no rational root: a missed root would leave a cubic certified irreducible
IRREDUCIBLE = [s_**2 + 1, s_**2 - 2, 2 * s_**2 + 3, s_**3 - 2, s_**3 + s_ + 1, 3 * s_**3 - 3 * s_ + 1]
HEIGHT = 10**12
tall_roots = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.lists(st.tuples(tall_roots, st.integers(1, 3)), min_size=1, max_size=4),
    st.sampled_from(IRREDUCIBLE),
    st.sampled_from([1, -1]),
)
def test_rational_roots_by_lifting_at_large_heights(planted, rest, unit):
    """Planted roots up to 10^12 over 10^12, repeated ones through the public
    function, are exactly what the root finder and ``factor`` return."""
    f = rest * unit
    for r, k in planted:
        f = f * (s_ - S1.const(r)) ** k
    expected = sorted({r for r, _ in planted})
    assert rational_roots(f, 0) == expected
    assert sorted(r for rs in factor(f).roots() for r in rs) == [r for r in expected if r]


@pytest.mark.parametrize(
    "linear, rest",
    [
        # 1 and 15016 meet mod 3, 5, 7, 11 and 13, so the first prime is 17
        ([(1, 1), (1, 15016)], s_**3 - 2),
        # the leading coefficient 210 rules out 3, 5 and 7
        ([(2, -1), (3, 1), (5, -2), (7, 3)], s_**2 + 1),
    ],
)
def test_rational_roots_skip_bad_primes(linear, rest):
    f = rest
    for q, p in linear:
        f = f * (q * s_ - p)
    expected = sorted(Fraction(p, q) for q, p in linear)
    assert rational_roots(f, 0) == expected
    fac = factor(f)
    assert sorted(r for rs in fac.roots() for r in rs) == expected
    assert fac.all_certified() and fac.expand(S1) == f


def test_factor_splits_thirty_linear_factors():
    f = S1.one()
    for k in range(1, 31):
        f = f * (s_ + k)
    fac = factor(f)
    assert len(fac.factors) == 30 and fac.all_certified()
    assert sorted(r for rs in fac.roots() for r in rs) == list(range(-30, 0))


def test_factor_shapes():
    S = PolyRing(QQ, ("s",), GRevLex())
    s = S.var("s")
    fac = factor(2 * s**2 + 3 * s + 1)
    assert fac.unit == 2
    assert {(str(p), k) for p, k, _ in fac.factors} == {("s + 1", 1), ("s + 1/2", 1)}
    assert fac.all_certified()
    assert fac.expand(S) == 2 * s**2 + 3 * s + 1

    # irreducible quadratic: certified by the degree bound
    fac2 = factor(s**2 + 1)
    assert len(fac2.factors) == 1 and fac2.factors[0][2]

    # degree five with no roots: left whole, not certified
    fac3 = factor(s**5 + s + 3)
    assert len(fac3.factors) == 1 and not fac3.factors[0][2]

    # monomial content splits off
    fac4 = factor(X**2 * Y + X**2 * Y**2)
    rebuilt = fac4.expand(R).monic()
    assert rebuilt == (X**2 * Y + X**2 * Y**2).monic()


def test_factor_splits_univariate_primitive_part():
    # the content along s1 holds the s2 factor; the primitive part left is
    # univariate in s1 and has its rational roots split off too
    S2 = PolyRing(QQ, ("s1", "s2"), GRevLex())
    s1, s2 = S2.var("s1"), S2.var("s2")
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    f = (s1 + 1) * (s1 + 2 * third) * (s1 + third) * (s2 + quarter) * (s2 + 1)
    fac = factor(f)
    assert sorted(str(p) for p, _, _ in fac.factors) == [
        "s1 + 1", "s1 + 1/3", "s1 + 2/3", "s2 + 1", "s2 + 1/4"
    ]
    assert fac.all_certified() and fac.splits()
    roots = sorted(r for rs in fac.roots() for r in rs)
    assert roots == [-1, -1, -2 * third, -third, -quarter]
    assert fac.expand(S2) == f


def test_factor_takes_content_along_every_variable():
    # s1 + 1 is the content along s2 only, not along s1: it is split off
    # and certified, and the piece in both variables stays whole
    S2 = PolyRing(QQ, ("s1", "s2"), GRevLex())
    s1, s2 = S2.var("s1"), S2.var("s2")
    f = (s1 + 1) * (s1 + s2 + 1) * (s1 + s2 + 2)
    fac = factor(f)
    assert (s1 + 1, 1, True) in fac.factors
    assert [str(p) for p, _, _ in fac.factors] == [
        "s1 + 1", "s1^2 + 2*s1*s2 + s2^2 + 3*s1 + 3*s2 + 2"
    ]
    assert fac.roots() == [[-1], []]
    assert fac.expand(S2) == f


def test_certified_irreducible():
    assert factor(X + Y).is_irreducible()
    assert factor(X * Y + 1).is_irreducible()
    # discriminant-style: degree one in one variable, coprime coefficients
    disc = A * A - 4 * B * C
    assert factor(disc).is_irreducible()
    assert not factor(X * Y).is_irreducible()
    assert not factor(R.one()).is_irreducible()


def test_minimal_primes_splits():
    ps = minimal_primes([A * B], A3)
    assert [str(p) for p in ps] == ["<a>", "<b>"]
    for p in ps:
        assert p.certificate

    ps2 = minimal_primes([A * B, A * C], A3)
    assert [str(p) for p in ps2] == ["<a>", "<b, c>"]

    # square: the reduced generator splits into a single factor
    ps3 = minimal_primes([A**2], A3)
    assert [str(p) for p in ps3] == ["<a>"]


def test_minimal_primes_zero_and_unit():
    assert minimal_primes([], A3) == [the_zero_prime(A3)] or [
        str(p) for p in minimal_primes([], A3)
    ] == ["<0>"]
    with pytest.raises(UnitIdealError):
        minimal_primes([A3.one()], A3)


def test_minimal_primes_irreducible_quadric():
    # degree one in c with coprime coefficients: certified irreducible
    ps = minimal_primes([A * A - 2 * B * C - B], A3)
    assert len(ps) == 1
    assert ps[0].certificate == "principal, generator certified irreducible"


def test_minimal_primes_factors_each_element_once(factor_calls):
    # the split test and the primality certificate share one factorization
    ps = minimal_primes([A * A - 2], A3)
    assert [p.certificate for p in ps] == ["principal, generator certified irreducible"]
    assert [str(f) for f in factor_calls] == ["a^2 - 2"]


def test_minimal_primes_containment_pruning():
    # V(ab, a) = V(a): the component <a, b> candidate must be pruned
    ps = minimal_primes([A * B, A], A3)
    assert [str(p) for p in ps] == ["<a>"]


def test_minimal_primes_unsupported_is_honest():
    # a quintic two-variable hypersurface the conservative factorizer
    # cannot certify: the decomposition must refuse, not guess
    S = PolyRing(QQ, ("a", "b"), GRevLex())
    a, b = S.var("a"), S.var("b")
    with pytest.raises(DecompositionUnsupported):
        minimal_primes([a**5 + a * b**4 + b + 1 + a**2 * b**2], S)


def test_minimal_primes_budget_counts_the_branch_basis():
    # one tick for the branch, then the one S-pair of its Groebner basis
    # <a - 1, b + 1>: a budget of one step cannot cover both
    S = PolyRing(QQ, ("a", "b"), GRevLex())
    a, b = S.var("a"), S.var("b")
    gens = [a**2 + b, a**2 + a + b - 1]
    with pytest.raises(TimeoutBudget):
        minimal_primes(gens, S, budget=GBBudget(max_steps=1))
    budget = GBBudget(max_steps=2)
    ps = minimal_primes(gens, S, budget=budget)
    assert [str(p) for p in ps] == ["<a - 1, b + 1>"]
    assert budget.used == 2


def test_certify_prime_cases():
    assert certify_prime([], A3)
    assert certify_prime([A, B - C], A3)
    assert certify_prime([A * A - 2 * B * C], A3)
    assert certify_prime([A * A - 2, B], A3) is None
