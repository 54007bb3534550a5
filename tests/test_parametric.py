"""Residue fields, rationalization strategies, denominator clearing, generic packages."""

import random
from fractions import Fraction

import pytest

from genbs.annbs import BSIdeal
from genbs.errors import (
    DivisionByZeroModQ,
    FamilyVanishesModQ,
    NonRationalCertificate,
    PointOutsideStratum,
)
from genbs.fsmodule import check_congruence
from genbs.groebner import buchberger
from genbs.instance import ProblemInstance, make_instance
from genbs.orders import GRevLex
from genbs.parametric import (
    RationalizeResult,
    ResidueField,
    generic_bs,
    op_scale_clear,
    rationalize,
    residue_context,
    specialize_check,
)
from genbs.parser import parse_poly
from genbs.poly import PolyRing, QQ
from genbs.primes import PrimeIdealQ, certify_prime, the_zero_prime
from genbs.variables import VarRegistry
from genbs.weyl import WeylOp, WeylRing

PARAM = PolyRing(QQ, ("a",), GRevLex())
A = PARAM.var("a")


def _prime(gens):
    if not gens:
        return the_zero_prime(PARAM)
    basis = buchberger(list(gens))
    cert = certify_prime(basis, PARAM)
    assert cert is not None
    return PrimeIdealQ(PARAM, tuple(gens), tuple(basis), cert)


Q_SQRT2 = _prime([A * A - 2])
F2 = ResidueField(Q_SQRT2)


def random_elem(rng, field):
    def rand_poly():
        terms = []
        for _ in range(rng.randrange(1, 3)):
            c = Fraction(rng.randrange(-4, 5))
            if c:
                terms.append(((rng.randrange(2),), c))
        return PARAM.from_terms(terms)

    num = rand_poly()
    den = rand_poly()
    while field.nf(den).is_zero():
        den = rand_poly()
    return field.make(num, den)


def test_residue_field_axioms_random():
    rng = random.Random(67)
    F = F2
    for _ in range(200):
        e1, e2, e3 = (random_elem(rng, F) for _ in range(3))
        assert F.eq(F.add(e1, e2), F.add(e2, e1))
        assert F.eq(F.mul(e1, e2), F.mul(e2, e1))
        assert F.eq(F.add(F.add(e1, e2), e3), F.add(e1, F.add(e2, e3)))
        assert F.eq(F.mul(F.mul(e1, e2), e3), F.mul(e1, F.mul(e2, e3)))
        assert F.eq(
            F.mul(e1, F.add(e2, e3)), F.add(F.mul(e1, e2), F.mul(e1, e3))
        )
        assert F.eq(F.add(e1, F.neg(e1)), F.zero())
        if not F.is_zero(e1):
            assert F.eq(F.mul(e1, F.inv(e1)), F.one())
            assert F.eq(F.div(e2, e1), F.mul(e2, F.inv(e1)))


def test_residue_rationality_detection():
    F = F2
    assert not F.is_rational_elem(F.make(A))
    assert F.is_rational_elem(F.make(A * A))  # = 2 mod Q
    assert F.as_rational(F.make(A * A)) == 2
    e = F.div(F.make(A + 2), F.make(A + 1))
    assert not F.is_rational_elem(e)
    # 2a / a^3 = 1 since a^2 = 2
    assert F.as_rational(F.div(F.make(2 * A), F.make(A**3))) == 1
    # equality through cross multiplication: 1/a = a/2
    assert F.eq(F.inv(F.make(A)), F.div(F.make(A), F.make(PARAM.const(2))))


def test_residue_invert_zero_raises():
    F = ResidueField(_prime([A]))
    with pytest.raises(DivisionByZeroModQ):
        F.inv(F.make(A))
    with pytest.raises(DivisionByZeroModQ):
        F.make(PARAM.one(), A)


def test_residue_context_vanishing_family():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [a * x], v=(1,), a_names=("a",))
    with pytest.raises(FamilyVanishesModQ):
        residue_context(inst, _prime([A]))


def _named_pairs(ring):
    return {(ring.names[i], ring.names[j]) for i, j in ring.pairs}


@pytest.mark.parametrize("x_names, fs", [(("x",), ["x^2 + a"]), (("x", "y"), ["x + a", "y"])])
def test_residue_context_is_an_instance_over_F(x_names, fs):
    R = PolyRing(QQ, ("a",) + x_names, GRevLex())
    inst = make_instance(x_names, [parse_poly(t, R) for t in fs], a_names=("a",))
    res = residue_context(inst, Q_SQRT2)
    assert isinstance(res, ProblemInstance)
    assert res.field == ResidueField(Q_SQRT2)
    assert res.registry.a == ()
    assert (res.registry.x, res.registry.s, res.v) == (inst.registry.x, inst.registry.s, inst.v)
    # the same rings as the plain instance's, minus the parameters, over F
    for build in ("weyl_ring", "s_ring", "malgrange_ring"):
        plain, ring = getattr(inst, build)(), getattr(res, build)()
        assert ring.field == res.field
        assert ring.names == tuple(nm for nm in plain.names if nm != "a")
        assert _named_pairs(ring) == _named_pairs(plain)


def test_residue_instance_rejects_member_outside_x_ring():
    F = ResidueField(Q_SQRT2)
    registry = VarRegistry.create(("x",), 1)
    over_Q = PolyRing(QQ, ("x",), GRevLex()).var("x")
    extra_name = PolyRing(F, ("x", "y"), GRevLex()).var("x")
    for f in (over_Q, extra_name):
        with pytest.raises(ValueError):
            ProblemInstance(registry, (f,), (1,), field=F)
    # the same member in F[x] is accepted
    ProblemInstance(registry, (PolyRing(F, ("x",), GRevLex()).var("x"),), (1,), field=F)


def _fake_inst(p, Q=None):
    F = ResidueField(Q if Q is not None else the_zero_prime(PARAM))
    base = PolyRing(F, ("x",), GRevLex())
    f = tuple(base.var("x") for _ in range(p))
    return ProblemInstance(VarRegistry.create(("x",), p), f, (1,) * p, field=F)


def _fake_bs(inst, generators, certs=None):
    wring = inst.weyl_ring()
    if certs is None:
        certs = tuple(wring.one() for _ in generators)
    return BSIdeal(
        instance=inst,
        generators=tuple(generators),
        certificates=certs,
        ann_basis=(),
        elimination_basis=(),
    )


def test_rationalize_strategy_rational_generator():
    inst = _fake_inst(1)
    ring = inst.s_ring()
    s = ring.var("s")
    B = _fake_bs(inst, [s + 1])
    res = rationalize(B)
    assert res.strategy == "rational-generator"
    assert str(res.b) == "s + 1"


def test_rationalize_strategy_univariate_gcd():
    # neither generator rational, their gcd over the residue field is s + 1
    inst = _fake_inst(1)
    ring = inst.s_ring()
    F = inst.field
    s = ring.var("s")
    aa = ring.const(F.make(A))
    g1 = (s + 1) * (s + aa)
    g2 = (s + 1) * (s + aa + 1)
    B = _fake_bs(inst, [g1, g2])
    res = rationalize(B)
    assert res.strategy == "univariate-products"
    assert str(res.b) == "s + 1"
    # the certificate is the cofactor combination of the generators' operators
    x, dx = (inst.weyl_ring().gen(n) for n in ("x", "dx"))
    res = rationalize(_fake_bs(inst, [g1, g2], certs=(x, dx)))
    assert str(res.U_residue) == "-x + dx"


@pytest.mark.parametrize(
    "Q, U",
    [
        (
            None,
            "((-1)/(a^2 + a + 1))*x*s + ((a)/(a^2 + a + 1))*x + ((1)/(a^2 + a + 1))*dx",
        ),
        (Q_SQRT2, "((-1)/(a + 3))*x*s + ((a)/(a + 3))*x + ((1)/(a + 3))*dx"),
    ],
)
def test_rationalize_univariate_gcd_certificate(Q, U):
    # the commutative GB with cofactors over Frac(Q[a]/Q) gives U; the
    # expected strings were recorded before the two Groebner engines merged
    inst = _fake_inst(1, Q)
    ring = inst.s_ring()
    F = inst.field
    s = ring.var("s")
    aa = ring.const(F.make(A))
    g1 = (s + 1) * (s + aa)
    g2 = (s + 1) * (s * s + aa + 1)
    x, dx = (inst.weyl_ring().gen(n) for n in ("x", "dx"))
    res = rationalize(_fake_bs(inst, [g1, g2], certs=(x, dx)))
    assert res.strategy == "univariate-products"
    assert str(res.b) == "s + 1"
    assert str(res.U_residue) == U


def test_buchberger_cofactors_residue_field():
    # commutative GB with cofactors over Frac(Q[a]/(a^2 - 2)); the expected
    # strings were recorded before the two Groebner engines merged
    R = PolyRing(F2, ("s", "t"), GRevLex())
    s, t = R.var("s"), R.var("t")
    aa, a1 = R.const(F2.make(A)), R.const(F2.make(A + 1))
    gens = [s**3 - aa * t**2, a1 * s * t - t**2]
    basis, reps = buchberger(gens, cofactors=True)
    assert [str(g) for g in basis] == [
        "t^4 + (-7*a - 10)*t^3",
        "s^3 - a*t^2",
        "s*t + ((-1)/(a + 1))*t^2",
    ]
    assert [[str(r) for r in rep] for rep in reps] == [
        [
            "(5*a + 7)*t",
            "((-5*a - 7)/(a + 1))*s^2 + ((-5/2*a - 7/2)/(a + 3/2))*s*t - t^2",
        ],
        ["1", "0"],
        ["0", "((1)/(a + 1))"],
    ]
    for g, rep in zip(basis, reps):
        combo = R.zero()
        for r, gen in zip(rep, gens):
            combo = combo + r * gen
        assert combo == g


def test_rationalize_strategy_linear_combination():
    # (s1+1)(s2+1+a) and (s1+1)(s2+1-a): the mean is rational, nothing else is
    inst = _fake_inst(2)
    ring = inst.s_ring()
    F = inst.field
    s1, s2 = ring.var("s1"), ring.var("s2")
    aa = ring.const(F.make(A))
    g1 = (s1 + 1) * (s2 + 1 + aa)
    g2 = (s1 + 1) * (s2 + 1 - aa)
    B = _fake_bs(inst, [g1, g2])
    res = rationalize(B, degree_budget=4)
    assert res.strategy == "linear-combination"
    S = PolyRing(QQ, ("s1", "s2"), GRevLex())
    assert res.b == (S.var("s1") + 1) * (S.var("s2") + 1)
    # the certificate lifts the rational kernel vector into the residue
    # field; the expected string was recorded before ring conversion was
    # unified in PolyRing.convert
    x, dx = (inst.weyl_ring().gen(n) for n in ("x", "dx"))
    res = rationalize(_fake_bs(inst, [g1, g2], certs=(x, dx)), degree_budget=4)
    assert str(res.U_residue) == (
        "-1/4*x*s1*s2 + 1/4*dx*s1*s2 + (1/4*a - 1/4)*x*s1 + (1/4*a + 1/4)*dx*s1"
        " - 1/4*x*s2 + 1/4*dx*s2 + (1/4*a + 1/4)*x + (1/4*a + 3/4)*dx"
    )


def test_rationalize_strategy_univariate_products():
    # each s_j has a rational univariate part s_j + 1; b is their product
    # and U lifts the rational prefix into the residue field.  The expected
    # string was recorded before ring conversion was unified in
    # PolyRing.convert
    inst = _fake_inst(2)
    ring = inst.s_ring()
    F = inst.field
    s1, s2 = ring.var("s1"), ring.var("s2")
    aa = ring.const(F.make(A))
    gens = [
        (s1 + 1) * (s1 + aa),
        (s1 + 1) * (s1 + aa + 1),
        (s2 + 1) * (s2 + aa),
        (s2 + 1) * (s2 + aa + 1),
    ]
    x, dx = (inst.weyl_ring().gen(n) for n in ("x", "dx"))
    res = rationalize(_fake_bs(inst, gens, certs=(x, dx, x * dx, dx * dx)))
    assert res.strategy == "univariate-products"
    S = PolyRing(QQ, ("s1", "s2"), GRevLex())
    assert res.b == (S.var("s1") + 1) * (S.var("s2") + 1)
    assert str(res.U_residue) == "-x*dx*s1 + dx^2*s1 - x*dx + dx^2"


def test_rationalize_honest_failure():
    inst = _fake_inst(1)
    ring = inst.s_ring()
    F = inst.field
    s = ring.var("s")
    aa = ring.const(F.make(A))
    B = _fake_bs(inst, [s + aa])
    with pytest.raises(NonRationalCertificate):
        rationalize(B, degree_budget=3)


def test_op_scale_clear_plain():
    # (s+1) - (x/2) dx over Q: h = 2
    W = WeylRing(QQ, ("x", "dx", "s"), ((0, 1),))
    x, dx, s = (W.gen(n) for n in W.names)
    U = (s + 1) - x * dx * Fraction(1, 2)
    param = PolyRing(QQ, (), GRevLex())
    h, U2 = op_scale_clear(U, param, W)
    assert str(h) == "2"
    assert U2 == 2 * s + 2 - x * dx


def test_op_scale_clear_residue():
    # coefficients with denominators a and a - 1: h = a^2 - a
    F = ResidueField(the_zero_prime(PARAM))
    W = WeylRing(F, ("x", "dx"), ((0, 1),))
    target = WeylRing(QQ, ("a", "x", "dx"), ((1, 2),))
    x, dx = W.gen("x"), W.gen("dx")
    U = x.scale(F.make(PARAM.one(), A)) + dx.scale(F.make(PARAM.one(), A - 1))
    h, U2 = op_scale_clear(U, PARAM, target)
    assert str(h) == "a^2 - a"
    ta, tx, tdx = (target.gen(n) for n in target.names)
    assert U2 == (ta - 1) * tx + ta * tdx


def test_generic_bs_x2_plus_a():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    g = generic_bs(inst)
    assert str(g.b) == "s + 1"
    assert str(g.h) == "a"
    assert check_congruence(g)
    for a0 in (1, -1, 2, Fraction(1, 2)):
        assert specialize_check(g, {"a": a0})


def test_generic_bs_ax():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [a * x], v=(1,), a_names=("a",))
    g = generic_bs(inst)
    assert str(g.b) == "s + 1"
    assert str(g.h) == "a"
    assert str(g.U) == "dx"


def test_generic_bs_nonzero_prime():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    Q = _prime([A - 1])
    g = generic_bs(inst, Q)
    assert str(g.b) == "s + 1"
    assert check_congruence(g)
    assert specialize_check(g, {"a": 1})
    with pytest.raises(PointOutsideStratum):
        specialize_check(g, {"a": 2})


def test_generic_bs_vanishing_raises():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [a * x], v=(1,), a_names=("a",))
    with pytest.raises(FamilyVanishesModQ):
        generic_bs(inst, _prime([A]))


def test_specialize_check_h_vanishes():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [a * x], v=(1,), a_names=("a",))
    g = generic_bs(inst)  # h = a
    with pytest.raises(PointOutsideStratum):
        specialize_check(g, {"a": 0})


def test_generic_bs_p2():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x, x + a], v=(1, 1), a_names=("a",))
    g = generic_bs(inst)
    S = PolyRing(QQ, ("s1", "s2"), GRevLex())
    assert g.b == (S.var("s1") + 1) * (S.var("s2") + 1)
    assert check_congruence(g)
    assert specialize_check(g, {"a": 3})
