"""Annihilator and Bernstein-Sato pipeline: the classical corpus, certified."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import genbs.annbs
from genbs.annbs import (
    BSIdeal,
    ann_fs,
    ann_fs_ctx,
    bs_ideal,
    bs_ideal_ctx,
    bs_poly,
    rationality_report,
    rationalize,
)
from genbs.cli import JobSpec, run_command
from genbs.errors import EmptyAnsatz
from genbs.factor import divides
from genbs.fsmodule import AnsatzBounds, FsElement, act, ansatz_bs, check_identity
from genbs.groebner import buchberger, ideal_contains, normal_form
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.parametric import residue_context
from genbs.parser import parse_poly
from genbs.poly import PolyRing, QQ
from genbs.primes import PrimeIdealQ, certify_prime, the_zero_prime
from genbs.weyl_groebner import eliminate, left_buchberger


def test_ann_fs_generators(inst_pair, monkeypatch):
    """One dt-elimination of s_j + f_j dt_j and d_i + sum_j (df_j/dx_i) dt_j
    in A_n[s]<dt>, whose members free of dt land in A_n[s]."""
    seen = []

    def recorded(generators, drop_names, **kw):
        seen.append((generators, drop_names))
        return eliminate(generators, drop_names, **kw)

    monkeypatch.setattr(genbs.annbs, "eliminate", recorded)
    ideal = genbs.annbs.ann_fs_ctx(inst_pair)
    ((gens, dropped),) = seen
    assert dropped == inst_pair.dt_names() == ("_dt1", "_dt2")
    assert [str(g) for g in gens] == [
        "x*_dt1 + s1", "y*_dt2 + s2", "dx + _dt1", "dy + _dt2"
    ]
    ring = gens[0].ring
    assert ring == inst_pair.annihilator_ring()
    assert ring.names == ("s1", "s2", "x", "y", "dx", "dy", "_dt1", "_dt2")
    assert ring.pairs == ((2, 4), (3, 5)) and ring.shift_pairs == ((0, 6), (1, 7))
    assert ideal.ring == inst_pair.weyl_ring()
    assert [str(g) for g in ideal.generators] == ["x*dx - s1", "y*dy - s2"]


# The generators ``annfs`` printed while Ann f^s came from the Malgrange
# ring (t, u, dt, y eliminated, then rewritten in s); the dt-elimination
# gives the same reduced generators.
ANNFS_GENERATORS = {
    ("x,y,z", ("x", "y^2+z^2"), (1, 1)): [
        "y^2*dz + z^2*dz - 2*z*s2",
        "x*dx - s1",
        "y*dy + z*dz - 2*s2",
        "z*dy - y*dz",
    ],
    ("x,y,z", ("x^2+y^3+z^3",), None): [
        "y^3*dy + y^2*z*dz + x^2*dy - 3*y^2*s",
        "y^3*dz + z^3*dz + x^2*dz - 3*z^2*s",
        "y^2*dx - 2/3*x*dy",
        "z^2*dx - 2/3*x*dz",
        "z^2*dy - y^2*dz",
        "x*dx + 2/3*y*dy + 2/3*z*dz - 2*s",
    ],
    ("x,y", ("x*y*(x+y)",), None): [
        "y^2*dx*dy - y^2*dy^2 - 2*y*dx*s + 4*y*dy*s - 3*s^2 - s",
        "x*y*dy + y^2*dy - x*s - 2*y*s",
        "x*dx + y*dy - 3*s",
    ],
    ("x,y", ("x*y", "x"), (1, 1)): [
        "x*dx - s1 - s2",
        "y*dy - s1",
    ],
    ("x,y", ("x*y",), None): [
        "x*dx - s",
        "y*dy - s",
    ],
    ("x,y", ("x", "x^2+y^2"), (1, 1)): [
        "y^2*dx*dy - x*y*dy^2 + x*dy*s1 - 2*y*dx*s2 + 2*x*dy*s2 + x*dy",
        "x^2*dy + y^2*dy - 2*y*s2",
        "x*dx + y*dy - s1 - 2*s2",
    ],
    ("x,y", ("x", "y"), (1, 1)): [
        "x*dx - s1",
        "y*dy - s2",
    ],
    ("x,y", ("x^2+y^2",), None): [
        "x^2*dy + y^2*dy - 2*y*s",
        "x*dx + y*dy - 2*s",
        "y*dx - x*dy",
    ],
    ("x,y", ("x^3", "y^4"), (1, 1)): [
        "x*dx - 3*s1",
        "y*dy - 4*s2",
    ],
    ("x,y", ("y", "y-x^2"), (1, 1)): [
        "y^2*dy^2 - 1/4*y*dx^2 - 2*y*dy*s1 - y*dy*s2 + 1/2*y*dy + s1^2 + s1*s2 + 1/2*s1",
        "x*y*dy + 1/2*y*dx - x*s1",
        "x*dx + 2*y*dy - 2*s1 - 2*s2",
    ],
    ("x,y", ("y^2-x^3",), None): [
        "y^2*dy^3 + 8/27*y*dx^3 - 4*y*dy^2*s + y*dy^2 + 4*dy*s^2 - 1/9*dy",
        "x*y*dy^2 - 4/9*y*dx^2 - 2*x*dy*s - 1/3*x*dy",
        "x^2*dy + 2/3*y*dx",
        "x*dx + 3/2*y*dy - 3*s",
    ],
    ("x,y", ("y^2-x^5",), None): [
        "y^4*dy^5 - 8*y^3*dy^4*s + 6*y^3*dy^4 + 24*y^2*dy^3*s^2 + 32/3125*y*dx^5 - 24*y^2*dy^3*s - 32*y*dy^2*s^3 + 33/5*y^2*dy^3 + 24*y*dy^2*s^2 + 16*dy*s^4 - 32/5*y*dy^2*s + 3/5*y*dy^2 - 8/5*dy*s^2 + 9/625*dy",
        "x*y^3*dy^4 - 6*x*y^2*dy^3*s + 12/5*x*y^2*dy^3 + 12*x*y*dy^2*s^2 - 16/625*y*dx^4 - 18/5*x*y*dy^2*s - 8*x*dy*s^3 + 9/25*x*y*dy^2 - 12/5*x*dy*s^2 + 2/25*x*dy*s + 3/125*x*dy",
        "x^2*y^2*dy^3 - 4*x^2*y*dy^2*s + 1/5*x^2*y*dy^2 + 4*x^2*dy*s^2 + 8/125*y*dx^3 + 8/5*x^2*dy*s + 3/25*x^2*dy",
        "x^3*y*dy^2 - 2*x^3*dy*s - 3/5*x^3*dy - 4/25*y*dx^2",
        "x^4*dy + 2/5*y*dx",
        "x*dx + 5/2*y*dy - 5*s",
    ],
    ("x,y", ("y^3-x^4",), None): [
        "y^3*dy^4 - 81/256*y^2*dx^4 - 9*y^2*dy^3*s + 3/2*y^2*dy^3 + 27*y*dy^2*s^2 - 27*dy*s^3 - 5/16*y*dy^2 - 27/2*dy*s^2 - 9/16*dy*s + 5/32*dy",
        "x*y^2*dy^3 + 27/64*y^2*dx^3 - 6*x*y*dy^2*s - 3/4*x*y*dy^2 + 9*x*dy*s^2 + 21/4*x*dy*s + 5/8*x*dy",
        "x^2*y*dy^2 - 9/16*y^2*dx^2 - 3*x^2*dy*s - 5/4*x^2*dy",
        "x^3*dy + 3/4*y^2*dx",
        "x*dx + 4/3*y*dy - 4*s",
    ],
    ("x,y", ("y^4-x^5",), None): [
        "y^4*dy^5 + 1024/3125*y^3*dx^5 - 16*y^3*dy^4*s + 2*y^3*dy^4 + 96*y^2*dy^3*s^2 - 256*y*dy^2*s^3 - 3/5*y^2*dy^3 - 96*y*dy^2*s^2 + 256*dy*s^4 - 16/5*y*dy^2*s + 256*dy*s^3 + 3/5*y*dy^2 + 352/5*dy*s^2 + 16/5*dy*s - 231/625*dy",
        "x*y^3*dy^4 - 256/625*y^3*dx^4 - 12*x*y^2*dy^3*s - 6/5*x*y^2*dy^3 + 48*x*y*dy^2*s^2 + 108/5*x*y*dy^2*s - 64*x*dy*s^3 + 51/25*x*y*dy^2 - 336/5*x*dy*s^2 - 524/25*x*dy*s - 231/125*x*dy",
        "x^2*y^2*dy^3 + 64/125*y^3*dx^3 - 8*x^2*y*dy^2*s - 13/5*x^2*y*dy^2 + 16*x^2*dy*s^2 + 72/5*x^2*dy*s + 77/25*x^2*dy",
        "x^3*y*dy^2 - 16/25*y^3*dx^2 - 4*x^3*dy*s - 11/5*x^3*dy",
        "x^4*dy + 4/5*y^3*dx",
        "x*dx + 5/4*y*dy - 5*s",
    ],
    ("x", ("x^2",), None): [
        "x*dx - 2*s",
    ],
}


@pytest.mark.parametrize("vars_, fs, v", sorted(ANNFS_GENERATORS, key=str))
def test_annfs_generators_are_pinned(vars_, fs, v):
    spec = JobSpec(command="annfs", vars=tuple(vars_.split(",")), f=fs, v=v)
    report, code = run_command(spec)
    assert code == 0
    assert report["outputs"]["generators"] == ANNFS_GENERATORS[vars_, fs, v]


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
        # cusp-type: the (x, dx) elimination does not end on it
        (("x", "y"), [-2 * x2 * y2**2 + 3 * y2**3 - x2**2], "(s + 7/6) * (s + 1) * (s + 5/6)"),
    ]
    for names, fs, expected in cases:
        inst = make_instance(names, fs, v=(1,))
        res = bs_poly(inst)
        assert str(res.factorization) == expected
        assert check_identity(res.b, res.certificate, inst)


def test_bs_poly_weight_formula_for_y4_x5():
    """y^4 - x^5 is quasi-homogeneous with weights (1/5, 1/4) and Milnor
    basis x^i y^j, i <= 3, j <= 2, so b = (s + 1) * prod(s + (i+1)/5 + (j+1)/4)."""
    R2 = PolyRing(QQ, ("x", "y"), GRevLex())
    x, y = R2.var("x"), R2.var("y")
    inst = make_instance(("x", "y"), [y**4 - x**5], v=(1,))
    res = bs_poly(inst)
    s = res.b.ring.var("s")
    expected = s + 1
    for i in range(4):
        for j in range(3):
            expected = expected * (s + Fraction(i + 1, 5) + Fraction(j + 1, 4))
    assert res.b == expected
    fac = res.factorization
    assert fac.all_certified() and len(fac.factors) == 13
    assert all(p.total_degree() == 1 and k == 1 for p, k, _ in fac.factors)
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


# random draws: b is the minimal polynomial of s, so even cusp-type f such
# as -2*x*y^2 + 3*y^3 - x^2 end in well under a second
@settings(deadline=None, max_examples=20)
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


def test_bs_poly_shift_vector():
    # v = (2): b(s) f^s in A[s] f^(s+2)
    R1 = PolyRing(QQ, ("x",), GRevLex())
    x = R1.var("x")
    inst = make_instance(("x",), [x], v=(2,))
    res = bs_poly(inst)
    assert str(res.b) == "s^2 + 3*s + 2"  # (s+1)(s+2)
    assert check_identity(res.b, res.certificate, inst)


def test_bs_ideal_with_a_central_parameter_keeps_elimination():
    """With a central parameter a, B^v(x^2 + a*y^2) lies in Q[a][s], which is
    not a field: s has no minimal polynomial there, so the (x, dx)
    elimination gives the member a*(s+1)^2."""
    R = PolyRing(QQ, ("a", "x", "y"), GRevLex())
    a, x, y = (R.var(nm) for nm in ("a", "x", "y"))
    inst = make_instance(("x", "y"), [x**2 + a * y**2], a_names=("a",))
    B = bs_ideal(inst)
    assert [str(g) for g in B.generators] == ["a*s^2 + 2*a*s + a"]


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


# -- canonical certificates ----------------------------------------------------


def _canonical_cases():
    Rx = PolyRing(QQ, ("x",), GRevLex())
    Rxy = PolyRing(QQ, ("x", "y"), GRevLex())
    x, (x2, y2) = Rx.var("x"), (Rxy.var("x"), Rxy.var("y"))
    cases = {
        "x^2": make_instance(("x",), [x**2], v=(1,)),
        "x,v=2": make_instance(("x",), [x], v=(2,)),
        "cusp": make_instance(("x", "y"), [y2**2 - x2**3]),
        "x,y": make_instance(("x", "y"), [x2, y2], v=(1, 1)),
        "y,y-x^2": make_instance(("x", "y"), [y2, y2 - x2**2], v=(1, 1)),
        "x,y,v=(2,1)": make_instance(("x", "y"), [x2, y2], v=(2, 1)),
    }
    return [pytest.param(inst, id=name) for name, inst in cases.items()]


def _residue_cases():
    """Families read over Frac(Q[a]/Q), the ring generic_bs works in."""
    Rxya = PolyRing(QQ, ("x", "y", "a"), GRevLex())
    x, y, a = (Rxya.var(nm) for nm in ("x", "y", "a"))
    nodal = make_instance(("x", "y"), [y**2 - x**3 - a * x**2], a_names=("a",))
    cone = make_instance(("x", "y"), [x**2 + a * y**2], a_names=("a",))
    param = cone.param_ring()
    basis = buchberger([param.var("a") - 1])
    Q = PrimeIdealQ(param, tuple(basis), tuple(basis), certify_prime(basis, param))
    cases = {
        "y^2-x^3-a*x^2 at 0": residue_context(nodal, the_zero_prime(nodal.param_ring())),
        "x^2+a*y^2 at <a-1>": residue_context(cone, Q),
    }
    return [pytest.param(inst, id=name) for name, inst in cases.items()]


def _raw_cofactors(inst):
    """The elimination members of Ann f^s + A_n[s] f^v and the cofactors
    of f^v in them, before any reduction."""
    ann = ann_fs(inst)
    gens = list(ann.generators) + [ann.ring.convert(inst.f_power_v())]
    r = inst.registry
    members, reps = eliminate(gens, r.x + r.d_names(), track=(len(gens) - 1,))
    return members, [rep[0] for rep in reps]


def _shifted_ann_basis(inst):
    """Reduced left basis of Ann f^(s+v), each s_j of Ann f^s replaced by
    s_j + v_j through ring products, in the order of inst.weyl_ring()."""
    ring = inst.weyl_ring()
    s_names = inst.registry.s
    shifted = []
    for g in ann_fs(inst).generators:
        acc = ring.zero()
        for exp, c in g._terms.items():
            base = list(exp)
            term = ring.one()
            for name, vj in zip(s_names, inst.v):
                i = ring.index(name)
                term = term * (ring.gen(name) + vj) ** base[i]
                base[i] = 0
            acc = acc + ring.monomial(tuple(base), c) * term
        shifted.append(acc)
    return shifted, left_buchberger(shifted)


@pytest.mark.parametrize("inst", _canonical_cases() + _residue_cases())
def test_reported_certificates_are_normal_forms(inst):
    """Every P that bs_ideal_ctx builds, over Q and over a residue field,
    is its own normal form modulo Ann f^(s+v), replays, and is the normal
    form of the raw elimination cofactor; over Q, bs_ideal (and for
    p = 1 bs_poly) reports that P."""
    shifted, gb = _shifted_ann_basis(inst)
    target = FsElement.shifted(inst)
    for g in shifted:
        assert act(g, target).is_zero()
    B = bs_ideal_ctx(inst)
    members, raw = _raw_cofactors(inst)
    assert B.generators
    assert [str(g) for g in B.generators] == [str(inst.s_ring().convert(g)) for g in members]
    fsr = inst.fs_ring()
    for b, P, P_raw in zip(B.generators, B.certificates, raw):
        assert normal_form(P, gb) == P
        assert normal_form(P_raw, gb) == P
        assert check_identity(fsr.convert(b), P, inst)
    if inst.field is not QQ:
        return
    assert bs_ideal(inst).certificates == B.certificates
    if inst.registry.p == 1:
        res = bs_poly(inst)
        assert res.certificate == B.certificates[0]
        assert check_identity(res.b, res.certificate, inst)


@pytest.mark.parametrize("inst", _canonical_cases())
def test_certificate_normal_form_ignores_annihilator_multiples(inst):
    """P and P + A*g reduce to the same operator for g in Ann f^(s+v)."""
    shifted, gb = _shifted_ann_basis(inst)
    ring = inst.weyl_ring()
    r = inst.registry
    x0, d0, s0 = (ring.gen(names[0]) for names in (r.x, r.d_names(), r.s))
    multipliers = [ring.one(), x0, d0, s0 + 2, x0 * d0 - Fraction(1, 3) * s0 * s0]
    B = bs_ideal(inst)
    for P in B.certificates:
        for A in multipliers:
            for g in shifted:
                assert normal_form(P + A * g, gb) == P


# the six pairs of the ideals benchmark workload, in original coordinates
IDEAL_PAIRS = (
    (("x", "y"), ("x*y", "x")),
    (("x", "y"), ("x^3", "y^4")),
    (("x", "y"), ("x^4", "y^5")),
    (("x", "y", "z"), ("x", "y^2+z^2")),
    (("x", "y"), ("y", "y-x^2")),
    (("x", "y"), ("x", "x^2+y^2")),
)


@pytest.mark.parametrize(
    "names, texts", IDEAL_PAIRS, ids=[",".join(t) for _, t in IDEAL_PAIRS]
)
def test_least_degree_search_on_I_agrees_with_B(names, texts):
    """A polynomial in s lies in B = I meet Q[s1, s2] exactly when its
    normal form modulo a basis of I = Ann f^s + A_n[s] f^v is zero, so
    ``rationalize`` on the tracked Noro basis of I (the route of every
    job over a residue field) finds the same b as on a basis of all of B,
    which ``bs_ideal`` reaches by the x, dx elimination."""
    ring = PolyRing(QQ, names, GRevLex())
    inst = make_instance(names, [parse_poly(t, ring) for t in texts])
    ann = ann_fs_ctx(inst)
    gens = list(ann.generators) + [ann.ring.convert(inst.f_power_v())]
    basis, reps = left_buchberger(gens, track=(len(gens) - 1,))
    b_I, _ = rationalize(basis, reps, inst)
    members = bs_ideal(inst).generators
    basis_B, reps_B = buchberger(members, track=range(len(members)))
    b_B, _ = rationalize(basis_B, reps_B, inst)
    assert b_I.total_degree() > 0
    assert b_I == b_B
