"""The reduction kernel over Q against the Fraction loop it replaced.

Over Q, ``normal_form``, ``spoly`` and ``exact_div`` compute on
normalized (numerator, denominator) int pairs and return ``Fraction``
coefficients.  Each is compared, term map for term map, with the loop
that computed on ``Fraction`` coefficients one step at a time, copied
below as the reference: in a commutative ring, and in a Weyl ring with a
Weyl pair and a shift pair under the dt-elimination order and under
grevlex.  Coefficients reach 40-digit numerators and 30-digit
denominators, and leading coefficients of either sign.

The Groebner loop over Q (``buchberger``, ``left_buchberger`` and
``eliminate``, with tracked cofactors) is compared with the same loop
run on ``Fraction`` coefficients through ``OperatorTerms``, the
arithmetic of Python's operators that residue fields use.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import genbs.groebner
from genbs.errors import TimeoutBudget
from genbs.factor import exact_div
from genbs.groebner import buchberger, normal_form, spoly
from genbs.orders import Block, GRevLex, Lex, mono_div, mono_lcm, mono_mul
from genbs.poly import OperatorTerms, PolyRing, QQ, _add_product_terms
from genbs.weyl import WeylRing, _leibniz_terms
from genbs.weyl_groebner import GBBudget, eliminate, left_buchberger

COMMUTATIVE = PolyRing(QQ, ("x", "y", "z"), GRevLex())
# s, x, dx, dt with [dx, x] = 1 and dt s = (s - 1) dt
WEYL_NAMES = ("s", "x", "dx", "dt")
RINGS = (
    COMMUTATIVE,
    PolyRing(QQ, ("x", "y", "z"), Lex()),
    WeylRing(QQ, WEYL_NAMES, ((1, 2),), Block((3,)), ((0, 3),)),
    WeylRing(QQ, WEYL_NAMES, ((1, 2),), GRevLex(), ((0, 3),)),
)
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)


# -- the reference: the Fraction loop, one Poly per step ----------------------


def _sub_mul_term(f, c, m, g):
    """f - c*x^m*g, each product coefficient summed before it is subtracted."""
    ring = f.ring
    prod = {}
    for e, v in g._terms.items():
        if ring.pairs or ring.shift_pairs:
            _add_product_terms(prod, c * v, _leibniz_terms(ring, m, e))
        else:
            prod[mono_mul(e, m)] = c * v
    out = dict(f._terms)
    for exp, t in prod.items():
        acc = out.get(exp)
        if acc is None:
            out[exp] = -t
            continue
        acc = acc - t
        if not acc:
            del out[exp]
        else:
            out[exp] = acc
    return type(f)(ring, out)


def _reference_reduce_step(f, basis):
    lt = f.lead_exp()
    lc = f.lead_coeff()
    for i, b in enumerate(basis):
        m = mono_div(lt, b.lead_exp())
        if m is not None:
            c = lc / b.lead_coeff()
            return _sub_mul_term(f, c, m, b), i, m, c
    return None


def _reference_normal_form(f, basis):
    ring = f.ring
    q = [ring.zero() for _ in basis]
    tail = {}
    work = f
    while not work.is_zero():
        step = _reference_reduce_step(work, basis)
        if step is None:
            lt = work.lead_exp()
            rest = dict(work._terms)
            tail[lt] = rest.pop(lt)
            work = type(f)(ring, rest)
        else:
            work, i, m, c = step
            q[i] = q[i] + ring.monomial(m, c)
    return type(f)(ring, tail), q


def _reference_spoly(f, g):
    ring = f.ring
    l = mono_lcm(f.lead_exp(), g.lead_exp())
    mf = ring.monomial(mono_div(l, f.lead_exp()), 1 / f.lead_coeff())
    return _sub_mul_term(mf * f, 1 / g.lead_coeff(), mono_div(l, g.lead_exp()), g)


def _reference_exact_div(f, g):
    """The quotient, or None where the Fraction loop raised ValueError."""
    key = f.ring.order.cached_key
    if f._terms and mono_div(min(f._terms, key=key), min(g._terms, key=key)) is None:
        return None
    q = {}
    r = dict(f._terms)
    lg, lcg = g.lead_exp(), g.lead_coeff()
    while r:
        lt = max(r, key=key)
        m = mono_div(lt, lg)
        if m is None:
            return None
        c = q[m] = r[lt] / lcg
        for e, v in g._terms.items():
            exp = mono_mul(e, m)
            t = c * v
            acc = r.get(exp)
            if acc is None:
                r[exp] = -t
                continue
            acc = acc - t
            if acc:
                r[exp] = acc
            else:
                del r[exp]
    return q


# -- strategies ----------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
large = st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)
)
coefficients = st.one_of(small, large).filter(bool)


@st.composite
def polys(draw, ring, max_terms=4, max_exp=2, nonzero=True):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    terms = draw(
        st.lists(st.tuples(exps, coefficients), min_size=int(nonzero), max_size=max_terms)
    )
    p = ring.from_terms(terms)
    if nonzero and p.is_zero():
        p = ring.one()
    if nonzero and draw(st.booleans()):
        # a negative leading coefficient
        p = -p if p.lead_coeff() > 0 else p
    return p


def _same(got, want):
    """Equal term maps, every coefficient a Fraction."""
    assert got._terms == want._terms
    assert all(type(c) is Fraction for c in got._terms.values())


# -- tests -------------------------------------------------------------------


@EXAMPLES
@given(st.data())
def test_normal_form_over_q_matches_the_fraction_loop(data):
    ring = data.draw(st.sampled_from(RINGS))
    f = data.draw(polys(ring, max_terms=5, nonzero=False))
    basis = data.draw(st.lists(polys(ring, max_terms=3), min_size=1, max_size=3))
    want, want_q = _reference_normal_form(f, basis)
    _same(normal_form(f, basis), want)
    got, got_q = normal_form(f, basis, with_cofactors=True)
    _same(got, want)
    assert len(got_q) == len(want_q)
    for a, b in zip(got_q, want_q):
        _same(a, b)


@EXAMPLES
@given(st.data())
def test_spoly_over_q_matches_the_fraction_loop(data):
    ring = data.draw(st.sampled_from(RINGS))
    f = data.draw(polys(ring))
    g = data.draw(polys(ring))
    _same(spoly(f, g), _reference_spoly(f, g))


@EXAMPLES
@given(st.data())
def test_exact_div_over_q_matches_the_fraction_loop(data):
    ring = data.draw(st.sampled_from(RINGS[:2]))
    q = data.draw(polys(ring, max_terms=3))
    g = data.draw(polys(ring, max_terms=3))
    r = data.draw(polys(ring, max_terms=2, max_exp=3, nonzero=False))
    for f in (q * g, q * g + r):
        want = _reference_exact_div(f, g)
        try:
            got = exact_div(f, g)
        except ValueError:
            assert want is None
        else:
            assert want is not None
            _same(got, ring.from_terms(want.items()))


def _on_fractions(run):
    """run() with the Groebner loop on Fraction coefficients: every ring's
    term arithmetic is OperatorTerms, as over a residue field."""
    original = genbs.groebner.term_arithmetic
    genbs.groebner.term_arithmetic = OperatorTerms
    try:
        return run()
    finally:
        genbs.groebner.term_arithmetic = original


def _both(run):
    """run() on int pairs and on Fractions; None when both spend the budget."""
    try:
        want = _on_fractions(run)
    except TimeoutBudget:
        want = None
    try:
        got = run()
    except TimeoutBudget:
        got = None
    assert (got is None) == (want is None)
    return None if got is None else (got, want)


def _same_bases(got, want, track):
    basis, reps = got if track else (got, None)
    want_basis, want_reps = want if track else (want, None)
    assert len(basis) == len(want_basis)
    for a, b in zip(basis, want_basis):
        _same(a, b)
    if track:
        assert len(reps) == len(want_reps)
        for rep, want_rep in zip(reps, want_reps):
            assert len(rep) == len(track)
            for a, b in zip(rep, want_rep):
                _same(a, b)


@st.composite
def generator_lists(draw, ring):
    """Two or three generators, a zero or a constant one sometimes among them."""
    gens = draw(st.lists(polys(ring, max_terms=3), min_size=2, max_size=3))
    extra = draw(st.sampled_from((None, "zero", "constant")))
    if extra is not None:
        g = ring.zero() if extra == "zero" else ring.const(draw(coefficients))
        gens.insert(draw(st.integers(0, len(gens))), g)
    return gens


@EXAMPLES
@given(st.data())
def test_groebner_loop_over_q_matches_the_fraction_loop(data):
    ring = data.draw(st.sampled_from(RINGS))
    gens = data.draw(generator_lists(ring))
    n = len(gens)
    # every position, or a strict subset of them
    track = data.draw(
        st.one_of(
            st.just(tuple(range(n))),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)
            .map(sorted)
            .map(tuple),
        )
    )

    def budget():
        return GBBudget(max_steps=20)

    pair = _both(lambda: buchberger(gens, budget=budget()))
    if pair is None:
        return
    _same_bases(*pair, ())
    pair = _both(lambda: left_buchberger(gens, track=track, budget=budget()))
    _same_bases(*pair, track)
    basis, reps = pair[0]
    if set(track) >= {i for i, g in enumerate(gens) if not g.is_zero()}:
        # each element is the left combination its cofactors say
        for g, rep in zip(basis, reps):
            assert sum((r * gens[t] for r, t in zip(rep, track)), ring.zero()) == g
    drop = ("x",) if ring.nvars == 3 else ("dt",)
    pair = _both(lambda: eliminate(gens, drop, track=track, budget=budget()))
    if pair is not None:
        _same_bases(*pair, track)
