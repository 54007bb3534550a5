"""Annihilator and Bernstein-Sato pipeline: the classical corpus, certified."""

import dataclasses
from fractions import Fraction

import pytest

import genbs.annbs
from genbs.annbs import ann_fs, bs_ideal, bs_poly, malgrange_ideal, rationality_report
from genbs.errors import VerificationFailed
from genbs.fsmodule import FsElement, act, check_identity
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


def test_bs_poly_replays_combined_certificate(monkeypatch, inst_x):
    # two members (s+1)(s+2), (s+1)(s+3) of B(x), certified by (s+2) dx and
    # (s+3) dx: their gcd s + 1 and its combined certificate -(s+2) dx +
    # (s+3) dx = dx are built by bs_poly, so bs_poly replays them
    B = bs_ideal(inst_x)
    (g,), (P,) = B.generators, B.certificates
    s, s_op = g.ring.var("s"), P.ring.var("s")
    members = dataclasses.replace(
        B,
        generators=[g * (s + 2), g * (s + 3)],
        certificates=[(s_op + 2) * P, (s_op + 3) * P],
    )
    monkeypatch.setattr(genbs.annbs, "bs_ideal", lambda inst, budget=None: members)
    replayed = []

    def spy(b, P, inst):
        replayed.append((b, P))
        return check_identity(b, P, inst)

    monkeypatch.setattr(genbs.annbs, "check_identity", spy)
    res = bs_poly(inst_x)
    assert (str(res.b), str(res.certificate)) == ("s + 1", "dx")
    assert replayed == [(res.b, res.certificate)]
    monkeypatch.setattr(genbs.annbs, "check_identity", lambda b, P, inst: False)
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
