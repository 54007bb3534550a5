"""Annihilator and Bernstein-Sato pipeline: the classical corpus, certified."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import genbs.annbs
from genbs.annbs import (
    BSIdeal,
    _theta_substitute,
    ann_fs,
    bs_ideal,
    bs_poly,
    malgrange_ideal,
    rationality_report,
)
from genbs.errors import EmptyAnsatz, VerificationFailed
from genbs.factor import divides
from genbs.fsmodule import AnsatzBounds, FsElement, act, ansatz_bs, check_identity
from genbs.groebner import buchberger, ideal_contains
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.poly import PolyRing, QQ


def test_malgrange_generators(inst_x):
    ideal = malgrange_ideal(inst_x)
    strs = {str(g) for g in ideal.generators}
    # t - u f, dx + u f_x dt, u y - 1
    assert len(strs) == 3
    assert any("_u1*_y1" in s for s in strs)


def test_ann_fs_x(inst_x):
    ideal = ann_fs(inst_x)
    assert [str(g) for g in ideal.generators] == ["x*dx - s"]


def test_ann_fs_xy(inst_xy):
    ideal = ann_fs(inst_xy)
    sym = FsElement.symbol(inst_xy)
    for g in ideal.generators:
        assert act(g, sym).is_zero()
    # x dx - s and y dy - s both annihilate (xy)^s
    strs = {str(g) for g in ideal.generators}
    assert "x*dx - s" in strs
    assert "y*dy - s" in strs


def test_ann_fs_parametric(inst_x2a):
    ideal = ann_fs(inst_x2a)
    sym = FsElement.symbol(inst_x2a)
    for g in ideal.generators:
        assert act(g, sym).is_zero()


def test_bs_poly_classical_corpus():
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    R2 = PolyRing(QQ, ("x", "y"), GRevLex())
    x2, y2 = R2.var("x"), R2.var("y")

    cases = [
        (("x",), [x], "(s + 1)"),
        (("x",), [x**2], "(s + 1) * (s + 1/2)"),
        (("x",), [x**3], "(s + 1) * (s + 2/3) * (s + 1/3)"),
        (("x", "y"), [x2 * y2], "(s + 1)^2"),
        (("x", "y"), [x2**2 + y2**2], "(s + 1)^2"),
    ]
    for names, fs, expected in cases:
        inst = make_instance(names, fs, v=(1,))
        res = bs_poly(inst)
        assert str(res.factorization) == expected
        assert check_identity(res.b, res.certificate, inst)


def test_bs_poly_certificates():
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    inst = make_instance(("x",), [x**2], v=(1,))
    res = bs_poly(inst)
    assert str(res.certificate) == "1/4*dx^2"
    assert str(res.b) == "s^2 + 3/2*s + 1/2"


RXY = PolyRing(QQ, ("x", "y"), GRevLex())
# the monomials of degree 1-3 in x, y
XY_MONOMIALS = [
    RXY.var("x") ** i * RXY.var("y") ** (d - i) for d in (1, 2, 3) for i in range(d + 1)
]


# fixed draws: some random f, such as -2*x*y^2 + 3*y^3 - x^2, run for minutes
# in the s-elimination GB (ROADMAP item 2)
@settings(deadline=None, max_examples=20, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from(range(len(XY_MONOMIALS))),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        min_size=1,
        max_size=3,
    )
)
def test_bs_poly_agrees_with_the_ansatz_on_random_curves(terms):
    """b of a random f in Q[x, y] has the factor s + 1 and its roots in
    (-2, 0) (M. Saito's bound), and divides every b the ansatz oracle
    finds in the box (2, 2, 2)."""
    f = RXY.zero()
    for k, c in terms.items():
        f = f + XY_MONOMIALS[k] * c
    inst = make_instance(("x", "y"), [f])
    res = bs_poly(inst)
    s = res.b.ring.var("s")
    assert divides(s + 1, res.b)
    # b has rational roots (Kashiwara), each split off as a linear factor
    roots = res.factorization.roots()
    assert all(len(rs) == 1 and -2 < rs[0] < 0 for rs in roots)
    try:
        pairs = ansatz_bs(inst, AnsatzBounds(x_degree=2, d_order=2, s_degree=2))
    except EmptyAnsatz:
        return
    for b, _ in pairs:
        assert divides(res.b, b)


def test_theta_substitute_rejects_unmatched_powers(inst_x):
    ring = inst_x.malgrange_ring()
    t, dt, x = ring.gen("_t1"), ring.gen("_dt1"), ring.gen("x")
    pairs = [(ring.index("_t1"), ring.index("_dt1"))]
    target = inst_x.weyl_ring()
    assert str(_theta_substitute(t * dt * x, pairs, target, inst_x)) == "-x*s - x"
    with pytest.raises(VerificationFailed):
        _theta_substitute(t * dt + t * x, pairs, target, inst_x)


def test_bs_ideal_pair(inst_pair):
    B = bs_ideal(inst_pair)
    S = B.generators[0].ring
    s1, s2 = S.var("s1"), S.var("s2")
    target = (s1 + 1) * (s2 + 1)
    gb = buchberger(list(B.generators))
    assert ideal_contains(gb, target)
    fsr = inst_pair.fs_ring()
    for g, P in zip(B.generators, B.certificates):
        assert check_identity(fsr.convert(g), P, inst_pair)


def test_bs_ideal_certificate_is_cofactor(inst_x2):
    B = bs_ideal(inst_x2)
    fsr = inst_x2.fs_ring()
    for g, P in zip(B.generators, B.certificates):
        assert check_identity(fsr.convert(g), P, inst_x2)


def test_bs_poly_rejects_two_member_ideal(monkeypatch, inst_x):
    # B(x) is principal and a reduced elimination basis holds at most one
    # member of Q[s], so two members (s+1)(s+2), (s+1)(s+3), certified by
    # (s+2) dx and (s+3) dx, can only come from a fault and are refused
    B = bs_ideal(inst_x)
    (g,), (P,) = B.generators, B.certificates
    s, s_op = g.ring.var("s"), P.ring.var("s")
    members = dataclasses.replace(
        B,
        generators=[g * (s + 2), g * (s + 3)],
        certificates=[(s_op + 2) * P, (s_op + 3) * P],
    )
    monkeypatch.setattr(genbs.annbs, "bs_ideal", lambda inst, budget=None: members)
    with pytest.raises(VerificationFailed):
        bs_poly(inst_x)


def test_bs_poly_shift_vector():
    # v = (2): b(s) f^s in A[s] f^(s+2)
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    inst = make_instance(("x",), [x], v=(2,))
    res = bs_poly(inst)
    assert str(res.b) == "s^2 + 3*s + 2"  # (s+1)(s+2)
    assert check_identity(res.b, res.certificate, inst)


def test_rationality_report():
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    inst = make_instance(("x",), [x**2], v=(1,))
    res = bs_poly(inst)
    rep = rationality_report(res.ideal)
    assert rep["rational_element_found"]
    gen = rep["generators"][0]
    assert gen["rational"]
    roots = [r for f in gen["factors"] for r in f.get("roots", [])]
    assert all(Fraction(r) < 0 for r in roots)
    assert gen.get("all_roots_negative_rational")


INST_XY = make_instance(("x", "y"), [PolyRing(QQ, ("x",), GRevLex()).var("x")] * 2)
S2 = INST_XY.s_ring()
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# (kind, variable, constants): a linear s_k - r (r = 0 included), an
# irreducible quadratic (s_k - r)^2 + c with c > 0, or s1 + r*s2 + c with
# r != 0, a factor in both variables
planted_factor = st.one_of(
    st.tuples(st.just("linear"), st.sampled_from(["s1", "s2"]), st.tuples(small)),
    st.tuples(
        st.just("quadratic"), st.sampled_from(["s1", "s2"]), st.tuples(small, small.filter(lambda c: c > 0))
    ),
    st.tuples(st.just("mixed"), st.just("s1"), st.tuples(small.filter(bool), small)),
)


def _planted_poly(kind, name, consts):
    v = S2.var(name)
    if kind == "linear":
        return v - S2.const(consts[0])
    if kind == "quadratic":
        return (v - S2.const(consts[0])) ** 2 + S2.const(consts[1])
    return v + S2.const(consts[0]) * S2.var("s2") + S2.const(consts[1])


@settings(deadline=None, max_examples=60)
@given(st.lists(planted_factor, min_size=1, max_size=5), small.filter(bool))
def test_rationality_report_roots_match_planted_factors(planted, unit):
    g = S2.const(unit)
    for kind, name, consts in planted:
        g = g * _planted_poly(kind, name, consts)
    B = BSIdeal(instance=INST_XY, generators=[g], certificates=[None])
    (entry,) = rationality_report(B)["generators"]
    listed = Counter()
    for rec in entry["factors"]:
        for r in rec["roots"]:
            listed[rec["variable"], Fraction(r)] += rec["multiplicity"]
    expected = Counter(
        (name, consts[0]) for kind, name, consts in planted if kind == "linear" and consts[0]
    )
    negative = all(kind == "linear" and consts[0] < 0 for kind, _, consts in planted)
    assert entry["all_roots_negative_rational"] == negative
    # a factor in both variables stays whole, but the content along each
    # variable splits every one-variable factor off it
    assert listed == expected


def test_ann_fs_kills_symbol_for_corpus():
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    R2 = PolyRing(QQ, ("x", "y"), GRevLex())
    x2, y2 = R2.var("x"), R2.var("y")
    Ra = PolyRing(QQ, ("a", "x"), GRevLex())
    aa, xa = Ra.var("a"), Ra.var("x")

    corpus = [
        make_instance(("x",), [x], v=(1,)),
        make_instance(("x",), [x**2], v=(1,)),
        make_instance(("x", "y"), [x2 * y2], v=(1,)),
        make_instance(("x", "y"), [x2, y2], v=(1, 1)),
        make_instance(("x",), [xa * xa + aa], v=(1,), a_names=("a",)),
    ]
    for inst in corpus:
        ideal = ann_fs(inst)
        sym = FsElement.symbol(inst)
        assert ideal.generators
        for g in ideal.generators:
            assert act(g, sym).is_zero()
