"""The f^s module oracle: action, identities, ansatz search, congruences."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import genbs.fsmodule as fsmodule
from genbs.annbs import ann_fs, bs_ideal
from genbs.errors import EmptyAnsatz
from genbs.fsmodule import (
    AnsatzBounds,
    FsElement,
    _f_lifted,
    act,
    ansatz_bs,
    b_kernel,
    check_identity,
    congruence_remainder,
    remainder_in_Q,
)
from genbs.groebner import buchberger
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.parametric import generic_bs
from genbs.parser import parse_poly
from genbs.poly import PolyRing, QQ
from genbs.primes import PrimeIdealQ, certify_prime, the_zero_prime
from genbs.weyl import WeylOp


def test_act_single_derivative(inst_x2):
    # dx (x^2)^s = 2 x s (x^2)^(s-1)
    W = inst_x2.weyl_ring()
    sym = FsElement.symbol(inst_x2)
    out = act(W.gen("dx"), sym)
    fs = inst_x2.fs_ring()
    x, s = fs.var("x"), fs.var("s")
    assert out.numerator == 2 * x * s
    assert out.k == (1,)


def test_act_multiplication(inst_x2):
    W = inst_x2.weyl_ring()
    sym = FsElement.symbol(inst_x2)
    out = act(W.gen("x") ** 2, sym)
    # multiplying by f reduces the pole order back to zero
    fs = inst_x2.fs_ring()
    assert out.k == (0,)
    assert out.numerator == fs.var("x") ** 2


def test_act_respects_products_random(inst_x2, inst_xy):
    rng = random.Random(41)
    for inst in (inst_x2, inst_xy):
        W = inst.weyl_ring()
        sym = FsElement.symbol(inst)
        for _ in range(60):
            acc1 = {}
            acc2 = {}
            for acc in (acc1, acc2):
                for _ in range(rng.randrange(1, 3)):
                    exp = tuple(rng.randrange(2) for _ in range(W.nvars))
                    c = Fraction(rng.randrange(-2, 3))
                    if c:
                        acc[exp] = acc.get(exp, 0) + c
            A = WeylOp(W, {e: c for e, c in acc1.items() if c})
            B = WeylOp(W, {e: c for e, c in acc2.items() if c})
            assert act(A * B, sym) == act(A, act(B, sym))


def test_fs_element_arithmetic(inst_x2):
    sym = FsElement.symbol(inst_x2)
    shifted = FsElement.shifted(inst_x2)
    fs = inst_x2.fs_ring()
    # f * f^s = f^(s+1) as module elements
    assert sym.scale_poly(fs.var("x") ** 2) == shifted
    assert (sym - sym).is_zero()
    two = sym + sym
    assert two == sym.scale(2)


def test_fs_element_equal_over_common_denominator_and_unhashable(Rxy):
    # f = (x*y, x): y / (x*y) and 1 / x are one element, so a hash of the
    # stored numerator could not agree with equality; elements are unhashable
    x, y = Rxy.var("x"), Rxy.var("y")
    inst = make_instance(("x", "y"), [x * y, x], v=(1, 1))
    fs = inst.fs_ring()
    e1 = FsElement(inst, fs.var("y"), (1, 0))
    e2 = FsElement(inst, fs.one(), (0, 1))
    assert e1 == e2
    with pytest.raises(TypeError):
        hash(e1)


def test_check_identity_classical(inst_x, inst_x2):
    Wx = inst_x.weyl_ring()
    s = inst_x.s_ring().var("s")
    assert check_identity(s + 1, Wx.gen("dx"), inst_x)
    assert not check_identity(s + 2, Wx.gen("dx"), inst_x)

    W2 = inst_x2.weyl_ring()
    b = (s + 1) * (s + Fraction(1, 2))
    P = W2.gen("dx") ** 2 * Fraction(1, 4)
    assert check_identity(inst_x2.s_ring().convert(b), P, inst_x2)


def test_ansatz_bs_examples(inst_x, inst_x2):
    pairs = ansatz_bs(inst_x, AnsatzBounds(x_degree=0, d_order=1, s_degree=1))
    assert len(pairs) == 1
    b, P = pairs[0]
    assert str(b) == "s + 1"
    assert str(P) == "dx"

    pairs2 = ansatz_bs(inst_x2, AnsatzBounds(x_degree=1, d_order=2, s_degree=2))
    bs = [str(b) for b, _ in pairs2]
    assert "s^2 + 3/2*s + 1/2" in bs
    for b, P in pairs2:
        assert check_identity(b, P, inst_x2)


def test_ansatz_empty(inst_x2):
    # order-zero operators cannot produce a b for x^2
    with pytest.raises(EmptyAnsatz):
        ansatz_bs(inst_x2, AnsatzBounds(x_degree=0, d_order=0, s_degree=1))


def test_ansatz_minimum_is_first(inst_x2):
    pairs = ansatz_bs(inst_x2, AnsatzBounds(x_degree=2, d_order=2, s_degree=2))
    degs = [b.total_degree() for b, _ in pairs]
    assert degs == sorted(degs)


def test_congruence_remainder_zero_prime(inst_x2a):
    # exact identity over Q[a]: remainder must vanish identically
    W = inst_x2a.weyl_ring()
    fs = inst_x2a.fs_ring()
    s = fs.var("s")
    a = inst_x2a.param_ring().var("a")
    x, dx = W.gen("x"), W.gen("dx")
    U = (W.gen("s") + 1) - x * dx * Fraction(1, 2)
    r = congruence_remainder(a, s + 1, U, inst_x2a)
    assert r.is_zero()
    assert remainder_in_Q(r, the_zero_prime(inst_x2a.param_ring()), inst_x2a)


def test_congruence_remainder_nonzero_prime(inst_x2a):
    # over Q = <a - 1> the identity (s+1) f^s = U f^(s+1) holds mod Q only
    from genbs.groebner import buchberger
    from genbs.primes import PrimeIdealQ, certify_prime

    param = inst_x2a.param_ring()
    a = param.var("a")
    basis = buchberger([a - 1])
    Q = PrimeIdealQ(param, (a - 1,), tuple(basis), certify_prime(basis, param))
    W = inst_x2a.weyl_ring()
    fs = inst_x2a.fs_ring()
    s = fs.var("s")
    U = (W.gen("s") + 1) - W.gen("x") * W.gen("dx") * Fraction(1, 2)
    r = congruence_remainder(param.one(), s + 1, U, inst_x2a)
    assert not r.is_zero()
    assert remainder_in_Q(r, Q, inst_x2a)
    assert not remainder_in_Q(r, the_zero_prime(param), inst_x2a)


# -- the ladder against the term-by-term action -------------------------------


def _diff_once_reference(e, x_name):
    """One d/dx, every product formed from f afresh."""
    inst = e.instance
    ring = inst.fs_ring()
    fs = _f_lifted(inst)
    p = inst.registry.p
    s_vars = [ring.var(name) for name in inst.registry.s]
    term = e.numerator.diff(x_name)
    for fj in fs:
        term = term * fj
    for j in range(p):
        cof = ring.one()
        for l in range(p):
            if l != j:
                cof = cof * fs[l]
        factor = s_vars[j] - ring.const(e.k[j])
        term = term + factor * fs[j].diff(x_name) * e.numerator * cof
    return FsElement(inst, term, tuple(kj + 1 for kj in e.k))


def _act_term_by_term(A, e):
    """Reference action: differentiate from e for every term of A and
    reduce after every addition."""
    inst = e.instance
    ring = inst.fs_ring()
    wr = A.ring
    der_to_x = {}
    for pos, der in wr.pairs:
        der_to_x[der] = wr.names[pos]
    mult_index = {}
    for i, name in enumerate(wr.names):
        if i in der_to_x:
            continue
        mult_index[i] = ring.index(name)
    result = FsElement(inst, ring.zero(), e.k, reduce=False)
    for exp, c in A._terms.items():
        cur = e
        for der_i, x_name in der_to_x.items():
            for _ in range(exp[der_i]):
                cur = _diff_once_reference(cur, x_name)
        mono_exp = [0] * ring.nvars
        for i, j in mult_index.items():
            mono_exp[j] = exp[i]
        mono = ring.monomial(tuple(mono_exp), c)
        cur = FsElement(inst, cur.numerator * mono, cur.k)
        result = result + cur
    return result


def _family(x_names, fs, a_names=(), v=None):
    R = PolyRing(QQ, tuple(a_names) + tuple(x_names), GRevLex())
    gens = {name: R.var(name) for name in R.names}
    return make_instance(x_names, [f(**gens) for f in fs], v=v, a_names=a_names)


LADDER_FAMILIES = {
    "p1_cusp": _family(("x", "y"), [lambda x, y: y**2 - x**3]),
    "p2_line_conic": _family(("x", "y"), [lambda x, y: x, lambda x, y: x**2 + y**2]),
    "nodal_a": _family(
        ("x", "y"), [lambda a, x, y: y**2 - x**3 - a * x**2], a_names=("a",)
    ),
}


@st.composite
def operators(draw, inst, d_order, max_terms):
    """Random operators of A_n[s]: x and s degree <= 2, parameter degree
    <= 1, each derivative to at most d_order."""
    ring = inst.weyl_ring()
    ders = {der for _, der in ring.pairs}
    caps = [
        d_order if i in ders else 1 if name in inst.registry.a else 2
        for i, name in enumerate(ring.names)
    ]
    exps = st.tuples(*[st.integers(0, cap) for cap in caps])
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    return ring.from_terms(draw(st.lists(st.tuples(exps, coeffs), max_size=max_terms)))


def _same_element(new, ref):
    assert new.numerator == ref.numerator
    assert new.k == ref.k


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(LADDER_FAMILIES)), data=st.data())
def test_act_matches_term_by_term_reference(name, data):
    inst = LADDER_FAMILIES[name]
    A = data.draw(operators(inst, 2, 4), label="A")
    for e in (FsElement.symbol(inst), FsElement.shifted(inst)):
        _same_element(act(A, e), _act_term_by_term(A, e))
    # an input with poles: dx alone gives every k_j = 1 on f^s
    B = data.draw(operators(inst, 1, 2), label="B") + inst.weyl_ring().gen("dx")
    sym = FsElement.symbol(inst)
    inner = _act_term_by_term(B, sym)
    _same_element(act(B, sym), inner)
    _same_element(act(A, act(B, sym)), _act_term_by_term(A, inner))


@pytest.mark.parametrize("name", sorted(LADDER_FAMILIES))
def test_act_zero_operator_keeps_the_input_denominator(name):
    inst = LADDER_FAMILIES[name]
    W = inst.weyl_ring()
    e = act(W.gen("dx") ** 2, FsElement.symbol(inst))
    assert any(e.k)
    out = act(W.zero(), e)
    assert out.is_zero()
    assert out.k == e.k
    _same_element(out, _act_term_by_term(W.zero(), e))


@pytest.fixture
def diff_calls(monkeypatch):
    calls = []
    inner = fsmodule._diff_once

    def counted(e, x_name, consts):
        calls.append(x_name)
        return inner(e, x_name, consts)

    monkeypatch.setattr(fsmodule, "_diff_once", counted)
    return calls


def test_act_differentiates_once_per_multi_index(inst_x2, inst_xy, diff_calls):
    W = inst_x2.weyl_ring()
    x, dx, s = W.gen("x"), W.gen("dx"), W.gen("s")
    A = dx**3 + x * dx**3 + s * dx**2
    sym = FsElement.symbol(inst_x2)
    _same_element(act(A, sym), _act_term_by_term(A, sym))
    assert diff_calls == ["x"] * 3  # rungs dx, dx^2, dx^3; term by term: 8

    del diff_calls[:]
    W = inst_xy.weyl_ring()
    x, dx, dy = W.gen("x"), W.gen("dx"), W.gen("dy")
    A = dx**2 * dy + x * dx * dy
    sym = FsElement.symbol(inst_xy)
    _same_element(act(A, sym), _act_term_by_term(A, sym))
    # rungs (1,0), (2,0), (2,1) and (1,1): one call each
    assert sorted(diff_calls) == ["x", "x", "y", "y"]


def test_ansatz_differentiates_once_per_multi_index(inst_xy, diff_calls):
    pairs = ansatz_bs(inst_xy, AnsatzBounds(x_degree=0, d_order=2, s_degree=2))
    assert (str(pairs[0][0]), str(pairs[0][1])) == ("s^2 + 2*s + 1", "dx*dy")
    # the five nonzero beta with |beta| <= 2
    assert len(diff_calls) == 5


# -- division-free replay against the term-by-term reference ------------------


def _identity_reference(b, P, inst):
    """Whether act(P, f^(s+v)) = b f^s, read off the term-by-term action's
    canonical form N / prod f_j^k_j: it holds iff N = b prod f_j^k_j."""
    lhs = _act_term_by_term(P, FsElement.shifted(inst))
    rhs = inst.fs_ring().convert(b)
    for fj, kj in zip(_f_lifted(inst), lhs.k):
        rhs = rhs * fj**kj
    return lhs.numerator == rhs


IDENTITY_FAMILIES = {
    "x2_v0": _family(("x",), [lambda x: x**2], v=(0,)),
    "x2_v1": _family(("x",), [lambda x: x**2], v=(1,)),
    "x2_v2": _family(("x",), [lambda x: x**2], v=(2,)),
    "cusp_v1": _family(("x", "y"), [lambda x, y: y**2 - x**3]),
    "x_y_v21": _family(("x", "y"), [lambda x, y: x, lambda x, y: y], v=(2, 1)),
    "line_conic_v10": _family(
        ("x", "y"), [lambda x, y: x, lambda x, y: x**2 + y**2], v=(1, 0)
    ),
    # the f_j share the factor x
    "xy_x_v11": _family(("x", "y"), [lambda x, y: x * y, lambda x, y: x], v=(1, 1)),
    # rational coefficients: over Q the ladder clears each f_j's denominator
    "cusp_scaled_v1": _family(
        ("x", "y"), [lambda x, y: Fraction(3, 2) * y**2 - Fraction(2, 3) * x**3]
    ),
    "line_conic_scaled_v11": _family(
        ("x", "y"),
        [lambda x, y: x * Fraction(1, 2), lambda x, y: Fraction(2, 3) * x**2 + y**2],
        v=(1, 1),
    ),
}

# degree boxes for a second, ansatz-found pair; None where bs_ideal's suffices
IDENTITY_ANSATZ = {
    "x2_v1": AnsatzBounds(x_degree=1, d_order=2, s_degree=2),
    "x2_v2": AnsatzBounds(x_degree=0, d_order=4, s_degree=4),
    "x_y_v21": AnsatzBounds(x_degree=0, d_order=3, s_degree=3),
    "xy_x_v11": AnsatzBounds(x_degree=0, d_order=3, s_degree=3),
}


@functools.lru_cache(maxsize=None)
def _true_pairs(name):
    """Certified (b, P) for the family: bs_ideal's, then the ansatz's."""
    inst = IDENTITY_FAMILIES[name]
    B = bs_ideal(inst)
    pairs = list(zip(B.generators, B.certificates))
    if name in IDENTITY_ANSATZ:
        pairs += ansatz_bs(inst, IDENTITY_ANSATZ[name])[:2]
    return tuple(pairs)


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(IDENTITY_FAMILIES)), data=st.data())
def test_check_identity_matches_term_by_term_reference(name, data):
    inst = IDENTITY_FAMILIES[name]
    b, P = data.draw(st.sampled_from(_true_pairs(name)), label="pair")
    assert check_identity(b, P, inst) and _identity_reference(b, P, inst)
    assert not check_identity(b * 2, P, inst)
    assert not _identity_reference(b * 2, P, inst)
    R = data.draw(operators(inst, max(inst.v) + 1, 3), label="R")
    assert check_identity(b, P + R, inst) == _identity_reference(b, P + R, inst)
    # total order below every v_j: act's undivided result keeps K < 0
    n = inst.registry.n
    if min(inst.v) > 0:
        low = data.draw(operators(inst, (min(inst.v) - 1) // n, 3), label="low")
        assert check_identity(b, low, inst) == _identity_reference(b, low, inst)


@settings(deadline=None, max_examples=30)
@given(
    name=st.sampled_from(["cusp_scaled_v1", "line_conic_scaled_v11"]), data=st.data()
)
def test_act_with_rational_coefficients_matches_reference(name, data):
    # f_j, the multipliers and the input numerator all carry denominators
    inst = IDENTITY_FAMILIES[name]
    A = data.draw(operators(inst, 2, 4), label="A")
    B = data.draw(operators(inst, 1, 2), label="B") + inst.weyl_ring().gen("dx")
    for e in (FsElement.symbol(inst), FsElement.shifted(inst)):
        _same_element(act(A, e), _act_term_by_term(A, e))
    inner = act(B, FsElement.symbol(inst)).scale(Fraction(-5, 7))
    _same_element(act(A, inner), _act_term_by_term(A, inner))


@pytest.fixture
def exact_div_calls(monkeypatch):
    calls = []
    inner = fsmodule.exact_div

    def counted(f, g):
        calls.append(g)
        return inner(f, g)

    monkeypatch.setattr(fsmodule, "exact_div", counted)
    return calls


@pytest.mark.parametrize("name", sorted(IDENTITY_FAMILIES))
def test_identity_and_annihilator_checks_never_divide(name, exact_div_calls):
    inst = IDENTITY_FAMILIES[name]
    pairs = _true_pairs(name)
    del exact_div_calls[:]
    for b, P in pairs:
        assert check_identity(b, P, inst)
        assert not check_identity(b * 2, P, inst)
    ann_fs(inst)
    assert exact_div_calls == []
    # only reading the canonical form divides, and only on the first read
    e = act(pairs[0][1], FsElement.symbol(inst))
    assert not e.is_zero() and exact_div_calls == []
    canonical = (e.numerator, e.k)
    divisions = len(exact_div_calls)
    assert (e.numerator, e.k) == canonical
    str(e)
    assert len(exact_div_calls) == divisions


def _prime(param, text):
    basis = buchberger([parse_poly(text, param)])
    return PrimeIdealQ(param, tuple(basis), tuple(basis), certify_prime(basis, param))


def _remainder_reference(h, b, U, inst):
    """h b f^s - U f^(s+v): the term-by-term action, then the subtraction
    over its canonical denominator."""
    rhs = _act_term_by_term(U, FsElement.shifted(inst))
    ring = inst.fs_ring()
    lhs = ring.convert(h) * ring.convert(b)
    for fj, kj in zip(_f_lifted(inst), rhs.k):
        lhs = lhs * fj**kj
    return FsElement(inst, lhs - rhs.numerator, rhs.k)


REMAINDER_FAMILIES = {
    "nodal_a": LADDER_FAMILIES["nodal_a"],
    "p2_lines_a": _family(
        ("x", "y"), [lambda a, x, y: x, lambda a, x, y: x + a * y], a_names=("a",)
    ),
    "p2_line_quadric_a": _family(
        ("x", "y"),
        [lambda a, x, y: x, lambda a, x, y: x**2 + a * y**2],
        a_names=("a",),
    ),
}


@pytest.mark.parametrize(
    "name, prime",
    [
        ("nodal_a", None),
        ("nodal_a", "a"),
        ("nodal_a", "a - 1"),
        ("p2_lines_a", None),
        ("p2_lines_a", "a"),
        ("p2_line_quadric_a", "a - 1"),
    ],
)
def test_congruence_remainder_matches_reference(name, prime, exact_div_calls):
    inst = REMAINDER_FAMILIES[name]
    param = inst.param_ring()
    Q = the_zero_prime(param) if prime is None else _prime(param, prime)
    g = generic_bs(inst, Q)
    del exact_div_calls[:]
    r = congruence_remainder(g.h, g.b, g.U, inst)
    assert exact_div_calls == []
    ref = _remainder_reference(g.h, g.b, g.U, inst)
    assert r.numerator == ref.numerator
    assert r.k == ref.k
    assert str(r) == str(ref) == str(g.remainder)
    assert r.is_zero() == (prime is None)
    assert remainder_in_Q(r, Q, inst)


def _nullspace(rows, ncols):
    """Reference kernel basis: Gauss-Jordan in natural column order, one
    vector per free column."""
    mat = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for c in range(ncols):
        pr = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = Fraction(1) / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        pivots[c] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, pr in pivots.items():
            v[c] = -mat[pr][fc]
        basis.append(v)
    return basis


def _echelon_by_priority(vectors, priority):
    """Reference second pass: row-reduce full vectors, pivoting along the
    given column priority."""
    work = [list(v) for v in vectors]
    out = []
    for col in priority:
        pivot_vec = None
        for v in work:
            if v[col] != 0:
                pivot_vec = v
                break
        if pivot_vec is None:
            continue
        work.remove(pivot_vec)
        inv = Fraction(1) / pivot_vec[col]
        pivot_vec = [x * inv for x in pivot_vec]
        work = [
            [x - v[col] * y for x, y in zip(v, pivot_vec)] if v[col] != 0 else v
            for v in work
        ]
        out = [
            [x - v[col] * y for x, y in zip(v, pivot_vec)] if v[col] != 0 else v
            for v in out
        ]
        out.append(pivot_vec)
    return out


S2 = PolyRing(QQ, ("s1", "s2"), GRevLex())


@settings(deadline=None, max_examples=200)
@given(
    nrows=st.integers(0, 6),
    nother=st.integers(0, 5),
    b_exps=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4, unique=True
    ),
    data=st.data(),
)
def test_b_kernel_matches_two_pass_reference(nrows, nother, b_exps, data):
    ncols = nother + len(b_exps)
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    )
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="rows")
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
    kernel = b_kernel(columns, b_exps, S2)

    key = S2.order.key
    by_lead = sorted(range(len(b_exps)), key=lambda i: key(b_exps[i]), reverse=True)
    priority = [nother + i for i in by_lead] + list(range(nother))
    reference = _echelon_by_priority(_nullspace(rows, ncols), priority)
    got = [
        [values.get(j, Fraction(0)) for j in range(nother)]
        + [b.coeff(e) for e in b_exps]
        for b, values in kernel
    ]
    assert got == reference
    for b, _ in kernel:
        assert b.is_zero() or b.lead_coeff() == 1
