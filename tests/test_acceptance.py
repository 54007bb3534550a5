"""Acceptance criteria, one test per criterion, exact-symbolic throughout.

Each test prints one PASS line on success (FAIL with the reason arrives
through the ordinary assertion report).  Randomized suites are seeded;
every numeric claim is exact, never approximate.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from genbs.annbs import ann_fs, bs_ideal, bs_poly, rationality_report
from genbs.cli import JobSpec, run_command, serialize_report
from genbs.errors import TimeoutBudget
from genbs.factor import factor, rational_roots
from genbs.fsmodule import (
    AnsatzBounds,
    FsElement,
    act,
    ansatz_bs,
    check_congruence,
    check_identity,
)
from genbs.groebner import buchberger, ideal_contains, is_groebner, normal_form, spoly
from genbs.instance import make_instance
from genbs.orders import Block, GRevLex, Lex, mono_mul
from genbs.parametric import ResidueField, generic_bs, specialize_check
from genbs.poly import Poly, PolyRing, QQ
from genbs.primes import the_zero_prime
from genbs.stratify import LocallyClosedSet, _Piece, refine_partition, stratify
from genbs.weyl import WeylOp, WeylRing
from genbs.weyl_groebner import GBBudget, left_buchberger


@contextmanager
def criterion(num, title, limit_seconds):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print("CRITERION %d: FAIL - %s" % (num, title))
        raise
    elapsed = time.time() - t0
    assert elapsed < limit_seconds, "criterion %d exceeded %ss" % (num, limit_seconds)
    print("CRITERION %d: PASS - %s (%.1fs)" % (num, title, elapsed))


RX = PolyRing(QQ, ("x",), GRevLex())
RXY = PolyRing(QQ, ("x", "y"), GRevLex())
RAX = PolyRing(QQ, ("a", "x"), GRevLex())


def _inst(names, fs, v=None, a=()):
    return make_instance(names, fs, v=v, a_names=a)


def test_criterion_1_classical_bernstein_polynomials():
    x = RX.var("x")
    x2, y2 = RXY.var("x"), RXY.var("y")
    cases = [
        (("x",), [x], "(s + 1)", AnsatzBounds(0, 1, 1)),
        (("x",), [x**2], "(s + 1) * (s + 1/2)", AnsatzBounds(1, 2, 2)),
        (("x",), [x**3], "(s + 1) * (s + 2/3) * (s + 1/3)", AnsatzBounds(2, 3, 3)),
        (("x", "y"), [x2 * y2], "(s + 1)^2", AnsatzBounds(0, 2, 2)),
        (("x", "y"), [x2**2 + y2**2], "(s + 1)^2", AnsatzBounds(0, 2, 2)),
    ]
    with criterion(1, "classical Bernstein polynomials, elimination = ansatz", 300):
        for names, fs, expected, bounds in cases:
            t0 = time.time()
            inst = _inst(names, fs)
            res = bs_poly(inst)
            assert str(res.factorization) == expected, (fs, str(res.factorization))
            assert check_identity(res.b, res.certificate, inst)
            # independent oracle: the ansatz search must recover the same b
            pairs = ansatz_bs(inst, bounds)
            assert any(b == res.b for b, _ in pairs), (fs, [str(b) for b, _ in pairs])
            for b, P in pairs:
                assert check_identity(b, P, inst)
            assert time.time() - t0 < 60


def test_criterion_2_pair_ideal():
    with criterion(2, "p = 2 ideal for (x, y) contains (s1+1)(s2+1), cert dx dy", 60):
        x, y = RXY.var("x"), RXY.var("y")
        inst = _inst(("x", "y"), [x, y], v=(1, 1))
        B = bs_ideal(inst)
        S = B.generators[0].ring
        s1, s2 = S.var("s1"), S.var("s2")
        target = (s1 + 1) * (s2 + 1)
        gb = buchberger(list(B.generators))
        assert ideal_contains(gb, target)
        # the product itself arrives as a generator with certificate dx dy
        idx = [str(g) for g in B.generators].index(str(target))
        P = B.certificates[idx]
        assert str(P) == "dx*dy"
        assert check_identity(inst.fs_ring().convert(target), P, inst)


def test_criterion_3_generic_package():
    with criterion(3, "generic_bs(x^2+a): b = s+1, h ~ a, congruence + 4 points", 60):
        a, x = RAX.var("a"), RAX.var("x")
        inst = _inst(("x",), [x * x + a], v=(1,), a=("a",))
        g = generic_bs(inst)
        assert str(g.b) == "s + 1"
        # h is a unit multiple of a
        assert g.h.monic() == inst.param_ring().var("a")
        assert check_congruence(g)
        for a0 in (1, -1, 2, Fraction(1, 2)):
            assert specialize_check(g, {"a": a0})


def test_criterion_4_stratification():
    with criterion(4, "stratify(x^2+a): 2 strata, 100-point grid, oracles", 300):
        a, x = RAX.var("a"), RAX.var("x")
        inst = _inst(("x",), [x * x + a], v=(1,), a=("a",))
        st = stratify(inst)
        assert len(st.strata) == 2
        assert str(st.strata[0].b) == "s + 1"
        assert str(st.strata[1].b) == "s^2 + 3/2*s + 1/2"
        # region shapes: {a != 0} and {a = 0}
        assert st.strata[0].region.contains({"a": 5})
        assert not st.strata[0].region.contains({"a": 0})
        assert st.strata[1].region.contains({"a": 0})

        rng = random.Random(113)
        points = [Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)) for _ in range(100)]
        for a0 in points:
            hits = [s for s in st.strata if s.region.contains({"a": a0})]
            assert len(hits) == 1, a0
            stratum = hits[0]
            # pointwise oracle: the witness specializes exactly at the point
            witness = None
            for piece in st.pieces:
                if piece.witness is None:
                    continue
                if piece.part.contains({"a": a0}):
                    witness = piece.witness
                    break
            assert witness is not None, a0
            assert witness.b == stratum.b
            assert specialize_check(witness, {"a": a0})
        # second oracle: direct ansatz at one point per stratum
        for a0, bounds in ((Fraction(1), AnsatzBounds(1, 1, 1)), (Fraction(0), AnsatzBounds(1, 2, 2))):
            inst0 = inst.specialize({"a": a0})
            pairs = ansatz_bs(inst0, bounds)
            stratum = next(s for s in st.strata if s.region.contains({"a": a0}))
            assert any(b == stratum.b for b, _ in pairs)


def test_criterion_5_rationality_reports():
    with criterion(5, "rationality reports: b in Q[s], roots negative rational", 120):
        x = RX.var("x")
        x2, y2 = RXY.var("x"), RXY.var("y")
        a, xa = RAX.var("a"), RAX.var("x")

        ideals = []
        computed_bs = []
        for names, fs in [
            (("x",), [x]),
            (("x",), [x**2]),
            (("x",), [x**3]),
            (("x", "y"), [x2 * y2]),
            (("x", "y"), [x2**2 + y2**2]),
        ]:
            inst = _inst(names, fs)
            res = bs_poly(inst)
            ideals.append(res.ideal)
            computed_bs.append(res.b)
        inst_pair = _inst(("x", "y"), [x2, y2], v=(1, 1))
        ideals.append(bs_ideal(inst_pair))
        inst_a = _inst(("x",), [xa * xa + a], v=(1,), a=("a",))
        g = generic_bs(inst_a)
        ideals.append(g.ideal)
        computed_bs.append(g.b)
        st = stratify(inst_a)
        for stratum in st.strata:
            computed_bs.append(stratum.b)
            for w in stratum.witnesses:
                ideals.append(w.ideal)

        for B in ideals:
            rep = rationality_report(B)
            assert rep["rational_element_found"]
        for b in computed_bs:
            # exact factorization over Q with all roots negative rationals
            fac = factor(b)
            assert fac.all_certified()
            rebuilt = b.ring.one().scale(fac.unit)
            for p, k, _ in fac.factors:
                rebuilt = rebuilt * p**k
            assert rebuilt == b
            if b.total_degree() >= 1:
                roots = rational_roots(b, b.ring.index(b.ring.names[-1]))
                assert len(roots) >= 1
                assert all(r < 0 for r in roots)
                # the certified factors are all linear here: roots account for b
                assert sum(k for _, k, _ in fac.factors) == b.total_degree()


def test_criterion_6_annihilator_soundness():
    with criterion(6, "ann_fs kills f^s exactly across the corpus", 120):
        x = RX.var("x")
        x2, y2 = RXY.var("x"), RXY.var("y")
        a, xa = RAX.var("a"), RAX.var("x")
        corpus = [
            _inst(("x",), [x]),
            _inst(("x",), [x**2]),
            _inst(("x", "y"), [x2 * y2]),
            _inst(("x", "y"), [x2, y2], v=(1, 1)),
            _inst(("x",), [xa * xa + a], v=(1,), a=("a",)),
        ]
        for inst in corpus:
            ideal = ann_fs(inst)
            assert ideal.generators
            sym = FsElement.symbol(inst)
            for gen in ideal.generators:
                assert act(gen, sym).is_zero()


def _random_poly(rng, ring, max_terms=3, max_exp=3):
    acc = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_exp) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-4, 5))
        if c:
            acc[e] = acc.get(e, 0) + c
    return Poly(ring, {e: c for e, c in acc.items() if c})


def _random_op(rng, ring, max_terms=2, max_exp=2):
    acc = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_exp) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-3, 4))
        if c:
            acc[e] = acc.get(e, 0) + c
    return WeylOp(ring, {e: c for e, c in acc.items() if c})


def test_criterion_7_property_suites():
    with criterion(7, "six randomized property suites, >= 1000 cases each", 300):
        # 7a: term order axioms
        rng = random.Random(211)
        orders = [Lex(), GRevLex(), Block((0,)), Block((1, 2))]
        for _ in range(1200):
            e1 = tuple(rng.randrange(5) for _ in range(3))
            e2 = tuple(rng.randrange(5) for _ in range(3))
            m = tuple(rng.randrange(4) for _ in range(3))
            for order in orders:
                if e1 == e2:
                    assert not order.greater(e1, e2)
                else:
                    assert order.greater(e1, e2) != order.greater(e2, e1)
                if order.greater(e1, e2):
                    assert order.greater(mono_mul(e1, m), mono_mul(e2, m))

        # 7b: commutative Buchberger idempotence + S-pairs reduce to zero
        rng = random.Random(223)
        ran = 0
        while ran < 1000:
            gens = [_random_poly(rng, RXY) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens)
            assert [str(g) for g in buchberger(basis)] == [str(g) for g in basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert normal_form(spoly(basis[i], basis[j]), basis).is_zero()
            ran += 1

        # 7c: left Buchberger idempotence + S-pairs reduce to zero
        W = WeylRing(QQ, ("x", "dx", "s"), ((0, 1),))
        rng = random.Random(227)
        ran = 0
        while ran < 1000:
            gens = [_random_op(rng, W) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            try:
                basis = left_buchberger(gens, budget=GBBudget(max_steps=500))
            except TimeoutBudget:
                continue
            again = left_buchberger(basis)
            assert [str(g) for g in again] == [str(g) for g in basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = spoly(basis[i], basis[j])
                    assert normal_form(s, basis).is_zero()
            ran += 1

        # 7d: Weyl product associativity
        rng = random.Random(229)
        for _ in range(1000):
            f, g, h = (_random_op(rng, W, max_terms=3) for _ in range(3))
            assert (f * g) * h == f * (g * h)

        # 7e: act respects operator products
        x = RX.var("x")
        inst = _inst(("x",), [x**2])
        Wi = inst.weyl_ring()
        sym = FsElement.symbol(inst)
        rng = random.Random(233)
        for _ in range(1000):
            A = _random_op(rng, Wi)
            B = _random_op(rng, Wi)
            assert act(A * B, sym) == act(A, act(B, sym))

        # 7f: residue field axioms
        param = PolyRing(QQ, ("a",), GRevLex())
        av = param.var("a")
        from genbs.primes import PrimeIdealQ, certify_prime

        basis = buchberger([av * av - 2])
        Q = PrimeIdealQ(param, (av * av - 2,), tuple(basis), certify_prime(basis, param))
        F = ResidueField(Q)
        rng = random.Random(239)

        def rand_elem():
            num = _random_poly(rng, param, max_terms=2, max_exp=2)
            den = _random_poly(rng, param, max_terms=2, max_exp=2)
            while F.nf(den).is_zero():
                den = _random_poly(rng, param, max_terms=2, max_exp=2)
            return F.make(num, den)

        for _ in range(1000):
            e1, e2, e3 = rand_elem(), rand_elem(), rand_elem()
            assert e1 + e2 == e2 + e1
            assert (e1 * e2) * e3 == e1 * (e2 * e3)
            assert e1 * (e2 + e3) == e1 * e2 + e1 * e3
            assert e1 + -e1 == 0
            if e1:
                assert e1 * (1 / e1) == 1

        # 7g: refine_partition disjointness and coverage on synthetic pieces
        S = PolyRing(QQ, ("s",), GRevLex())
        bs = [S.var("s") + k for k in range(3)]
        rng = random.Random(241)
        roots = [param.var("a") - k for k in range(-2, 3)]
        for _ in range(1000):
            pieces = []
            for _ in range(rng.randrange(1, 5)):
                closed = tuple(rng.sample(roots, rng.randrange(0, 2)))
                removed = tuple(rng.sample(roots, rng.randrange(0, 2)))
                pieces.append(
                    _Piece(
                        None,
                        LocallyClosedSet(param, closed, removed),
                        rng.choice(bs),
                        None,
                        False,
                    )
                )
            strata = refine_partition(pieces, sample_limit=20)
            for a0 in range(-3, 4):
                point = {"a": Fraction(a0)}
                in_union = any(p.part.contains(point) for p in pieces)
                hits = [s for s in strata if s.region.contains(point)]
                assert len(hits) == (1 if in_union else 0)


def test_criterion_8_honest_failure():
    with criterion(8, "structured failures: vanishing family 4, budget 3", 60):
        # FamilyVanishesModQ surfaces as a structured exit-4 report
        spec = JobSpec(
            command="generic-bs", vars=("x",), params=("a",), f=("a*x",), ideal=("a",)
        )
        report, code = run_command(spec)
        assert code == 4
        assert report["error"]["type"] == "FamilyVanishesModQ"
        assert not report["verified"]

        # budget exhaustion: exit 3 with a partial report, never a wrong answer
        spec2 = JobSpec(
            command="bs", vars=("x", "y"), f=("x^3+y^3+x*y",), budget_steps=10
        )
        report2, code2 = run_command(spec2)
        assert code2 == 3
        assert report2["error"]["type"] == "TimeoutBudget"
        assert report2["partial"].get("steps") == 10
        # the report is still a serializable document
        assert "budget" in serialize_report(report2)
