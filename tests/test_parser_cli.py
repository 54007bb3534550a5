"""Parser grammar plus end-to-end CLI jobs: determinism, exit codes, reports."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

import genbs.fsmodule
from genbs.cli import (
    JobSpec,
    build_argparser,
    generic_family,
    job_from_args,
    main,
    run_command,
    serialize_report,
)
from genbs.errors import ParseError
from genbs.orders import GRevLex
from genbs.parser import parse_op, parse_poly
from genbs.poly import PolyRing, QQ
from genbs.weyl import WeylRing

R = PolyRing(QQ, ("a", "x1", "x2", "s1", "s2"), GRevLex())
W = WeylRing(QQ, ("x", "dx", "s"), ((0, 1),))


def test_parse_examples():
    f = parse_poly("x1^2 + a*x2", R)
    assert f == R.var("x1") ** 2 + R.var("a") * R.var("x2")
    g = parse_poly("(s1+1)*(s2+1)", R)
    s1, s2 = R.var("s1"), R.var("s2")
    assert g == s1 * s2 + s1 + s2 + 1
    assert parse_poly("3/2*x1 - 1/2", R) == R.var("x1") * Fraction(3, 2) - Fraction(
        1, 2
    )
    assert parse_poly("-x1 + 2", R) == -R.var("x1") + 2


def test_parse_errors_located():
    with pytest.raises(ParseError) as ei:
        parse_poly("x^(-1)", R.with_order(GRevLex()) if hasattr(R, "with_order") else R)
    assert "line 1" in str(ei.value)
    with pytest.raises(ParseError):
        parse_poly("x1 + ", R)
    with pytest.raises(ParseError) as ei2:
        parse_poly("x1 + zz", R)
    assert "zz" in str(ei2.value)
    with pytest.raises(ParseError) as ei3:
        parse_poly("x1 +\n y7", R)
    assert "line 2" in str(ei3.value)
    with pytest.raises(ParseError):
        parse_poly("x1 $ 2", R)
    with pytest.raises(ParseError):
        parse_poly("x1/x1", R)


def test_parse_op_order_matters():
    left = parse_op("dx*x", W)
    assert left == W.gen("x") * W.gen("dx") + 1
    right = parse_op("x*dx", W)
    assert right == W.gen("x") * W.gen("dx")


def random_poly(rng, ring):
    terms = []
    for _ in range(rng.randrange(1, 6)):
        exp = tuple(rng.randrange(3) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        if c:
            terms.append((exp, c))
    return ring.from_terms(terms)


def test_print_parse_round_trip_random():
    rng = random.Random(173)
    for _ in range(300):
        f = random_poly(rng, R)
        assert parse_poly(str(f), R) == f


def test_op_print_parse_round_trip_random():
    rng = random.Random(177)
    from genbs.weyl import WeylOp

    for _ in range(200):
        acc = {}
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(3) for _ in range(W.nvars))
            c = Fraction(rng.randrange(-4, 5))
            if c:
                acc[exp] = acc.get(exp, 0) + c
        op = WeylOp(W, {e: c for e, c in acc.items() if c})
        assert parse_op(str(op), W) == op


def test_cli_bs_report_and_determinism():
    spec = JobSpec(command="bs", vars=("x",), f=("x^2",))
    report1, code1 = run_command(spec)
    report2, code2 = run_command(spec)
    assert code1 == code2 == 0
    assert serialize_report(report1) == serialize_report(report2)
    assert report1["verified"]
    assert report1["outputs"]["b"] == "s^2 + 3/2*s + 1/2"
    assert report1["certificates"]["P"]["value"] == "1/4*dx^2"
    assert len(report1["certificates"]["P"]["sha256"]) == 64


def test_cli_family_counts():
    inst = generic_family(1, 1, 1)
    assert inst.registry.m == 2
    inst2 = generic_family(1, 1, 2)
    assert inst2.registry.m == 3
    inst3 = generic_family(2, 2, 1)
    assert inst3.registry.m == 6
    spec = JobSpec(command="family", n=2, p=2, d=1)
    report, code = run_command(spec)
    assert code == 0
    assert report["outputs"]["m"] == 6


def test_cli_generic_bs_vanishing_exit_4():
    spec = JobSpec(
        command="generic-bs", vars=("x",), params=("a",), f=("a*x",), ideal=("a",)
    )
    report, code = run_command(spec)
    assert code == 4
    assert report["error"]["type"] == "FamilyVanishesModQ"
    assert report["error"]["code"] == 4


def test_cli_generic_bs_with_points():
    spec = JobSpec(
        command="generic-bs",
        vars=("x",),
        params=("a",),
        f=("x^2+a",),
        points=("1", "-1", "2", "1/2"),
    )
    report, code = run_command(spec)
    assert code == 0
    assert report["outputs"]["b"] == "s + 1"
    assert report["outputs"]["h"] == "a"
    assert all(c["verified"] for c in report["outputs"]["specialize_checks"])


def test_cli_budget_exit_3():
    spec = JobSpec(
        command="bs", vars=("x", "y"), f=("x^3+y^3+x*y",), budget_steps=10
    )
    report, code = run_command(spec)
    assert code == 3
    assert report["error"]["type"] == "TimeoutBudget"
    assert "partial" in report


def test_cli_budget_counts_the_basis_of_q():
    # <a^2 + b, a^2 + a + b - 1> = <a - 1, b + 1>: its basis reduces one
    # S-pair, the basis of <a - 1, b + 1> none (coprime leads), and the
    # residue field, hence the rest of the job, is the same
    def steps(ideal):
        spec = JobSpec(
            command="generic-bs",
            vars=("x",),
            params=("a", "b"),
            f=("x^2+a",),
            ideal=ideal,
            budget_steps=10**6,
        )
        report, code = run_command(spec)
        assert code == 0, report
        assert report["outputs"]["Q"] == ["a - 1", "b + 1"]
        return report["budget_used"]["steps"]

    assert steps(("a^2+b", "a^2+a+b-1")) == steps(("a-1", "b+1")) + 1


def test_cli_verify_pass_and_fail():
    ok = JobSpec(command="verify", vars=("x",), f=("x",), b="s+1", op="dx")
    report, code = run_command(ok)
    assert code == 0 and report["verified"]
    bad = JobSpec(command="verify", vars=("x",), f=("x",), b="s+2", op="dx")
    report2, code2 = run_command(bad)
    assert code2 == 2 and not report2["verified"]


def _assert_verification_failed(report, code):
    assert code == 2
    assert report["error"]["type"] == "VerificationFailed"
    assert report["error"]["code"] == 2
    assert not report["verified"]


def test_cli_failed_pipeline_check_exit_2(monkeypatch):
    # a certificate that fails its internal replay is a verification
    # failure (exit 2 with an error report), not a traceback; p = 1 goes
    # through bs_poly, p = 2 through bs_ideal alone
    monkeypatch.setattr("genbs.annbs.check_identity", lambda b, P, inst: False)
    for spec in (
        JobSpec(command="bs", vars=("x",), f=("x",)),
        JobSpec(command="bs", vars=("x", "y"), f=("x", "y"), v=(1, 1)),
    ):
        _assert_verification_failed(*run_command(spec))


def test_cli_failed_library_replay_exit_2(monkeypatch):
    # the CLI does not check again what the library computed, so a failed
    # replay inside generic_bs or ann_fs alone must reach exit 2
    monkeypatch.setattr("genbs.parametric.remainder_in_Q", lambda r, Q, inst: False)
    for command in ("generic-bs", "stratify"):
        spec = JobSpec(command=command, vars=("x",), params=("a",), f=("x^2+a",))
        _assert_verification_failed(*run_command(spec))
    # an "annihilator" that leaves f^s as it is
    monkeypatch.setattr("genbs.annbs.act", lambda A, e: e)
    spec = JobSpec(command="annfs", vars=("x", "y"), f=("x*y",))
    _assert_verification_failed(*run_command(spec))


def _count_replays(monkeypatch):
    """Wrap fsmodule.act wherever a genbs module holds it; every replay of
    a certificate, (b, P) or (Q, h, U), acts once on an f^s element."""
    calls = []
    original = genbs.fsmodule.act

    def counting(A, e):
        calls.append(A)
        return original(A, e)

    for name, module in list(sys.modules.items()):
        if name.startswith("genbs") and getattr(module, "act", None) is original:
            monkeypatch.setattr(module, "act", counting)
    return calls


@pytest.mark.parametrize(
    "spec, replays",
    [
        # bs_ideal replays the one member, which bs_poly returns as it is
        (JobSpec(command="bs", vars=("x", "y"), f=("y^2-x^3",)), lambda out: 1),
        (
            JobSpec(command="bs", vars=("x", "y"), f=("x*y", "x"), v=(1, 1)),
            lambda out: len(out["generators"]),
        ),
        (
            JobSpec(command="annfs", vars=("x", "y"), f=("x*y",)),
            lambda out: len(out["generators"]),
        ),
        # generic_bs replays the congruence, then one specialization a point
        (
            JobSpec(
                command="generic-bs",
                vars=("x", "y"),
                params=("a",),
                f=("y^2-x^3-a*x^2",),
                points=("1", "-1"),
            ),
            lambda out: 1 + len(out["specialize_checks"]),
        ),
        (
            JobSpec(command="stratify", vars=("x",), params=("a",), f=("x^2+a",)),
            lambda out: sum(len(st["witnesses"]) for st in out["strata"]),
        ),
    ],
    ids=["bs-p1", "bs-p2", "annfs", "generic-bs", "stratify"],
)
def test_cli_replays_each_certificate_once(monkeypatch, spec, replays):
    calls = _count_replays(monkeypatch)
    report, code = run_command(spec)
    assert code == 0 and report["verified"]
    assert len(calls) == replays(report["outputs"]) > 0


def test_cli_stratify_report():
    spec = JobSpec(command="stratify", vars=("x",), params=("a",), f=("x^2+a",))
    report, code = run_command(spec)
    assert code == 0
    assert report["outputs"]["count"] == 2
    bs = [s.get("b") for s in report["outputs"]["strata"]]
    assert bs == ["s + 1", "s^2 + 3/2*s + 1/2"]


def test_cli_ansatz_report():
    spec = JobSpec(
        command="ansatz", vars=("x",), f=("x^2",), budget_x=1, budget_dorder=2,
        budget_sdegree=2,
    )
    report, code = run_command(spec)
    assert code == 0
    assert any(p["b"] == "s^2 + 3/2*s + 1/2" for p in report["outputs"]["pairs"])


def test_cli_parse_error_exit_4():
    spec = JobSpec(command="bs", vars=("x",), f=("x^(-1)",))
    report, code = run_command(spec)
    assert code == 4
    assert report["error"]["type"] == "ParseError"


def test_argparse_job_file(tmp_path):
    job = {
        "command": "bs",
        "vars": ["x"],
        "f": ["x^2"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    ap = build_argparser()
    args = ap.parse_args(["--job", str(path)])
    spec = job_from_args(args)
    assert spec.command == "bs"
    report, code = run_command(spec)
    assert code == 0


def test_argparse_flags():
    ap = build_argparser()
    args = ap.parse_args(
        ["bs", "--vars", "x,y", "--f", "x*y", "--v", "1", "--budget-steps", "5000"]
    )
    spec = job_from_args(args)
    assert spec.vars == ("x", "y")
    assert spec.v == (1,)
    assert spec.budget_steps == 5000
    report, code = run_command(spec)
    assert code == 0
    assert report["outputs"]["b"] == "s^2 + 2*s + 1"


def test_argparse_flags_and_job_file_agree(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "bs", "vars": ["x"], "f": ["x^2"]}))
    ap = build_argparser()
    from_flags = job_from_args(ap.parse_args(["bs", "--vars", "x", "--f", "x^2"]))
    from_file = job_from_args(ap.parse_args(["--job", str(path)]))
    assert from_flags == from_file == JobSpec(command="bs", vars=("x",), f=("x^2",))
    assert from_flags.budgets_dict() == from_file.budgets_dict()


BAD_INPUTS = [
    ["bs", "--vars", "x", "--f", "x", "--v", "-1"],
    ["bs", "--vars", "x", "--f", "x", "--v", "a"],
    ["bs", "--vars", "_x", "--f", "_x"],
    ["bs", "--vars", "x,x", "--f", "x"],
    ["bs", "--vars", "x,s", "--f", "x"],
    ["bs", "--vars", "x", "--params", "x", "--f", "x"],
    ["ansatz", "--vars", "x", "--f", "x", "--budget-x", "-1"],
    ["bs", "--vars", "x", "--f", "x", "--budget-x", "abc"],
    ["bs", "--no-such-flag"],
    ["generic-bs", "--vars", "x", "--params", "a", "--f", "x+a", "--point", "a=1/0"],
    ["generic-bs", "--vars", "x", "--params", "a", "--f", "x^2+a", "--point", "a=1,a=-2"],
    ["bs", "--vars", "x", "--f", "x", "--budget-steps", "-3"],
    ["stratify", "--vars", "x", "--params", "a", "--f", "x^2+a", "--budget-samples", "-1"],
    # the degree budget is gone with the rationalize cascade: no such flag
    ["generic-bs", "--vars", "x", "--params", "a", "--f", "x^2+a", "--budget-degree", "-1"],
    # a superscript digit is no integer, and nesting has a bound
    ["bs", "--vars", "x", "--f", "x^²"],
    ["bs", "--vars", "x", "--f", "(" * 3000 + "x" + ")" * 3000],
    # integers past Python's int/str digit limit (4300 by default): a
    # literal, and coefficients that a report would print
    ["bs", "--vars", "x", "--f", "x+" + "1" * 5001],
    ["bs", "--vars", "x", "--f", "x+10^5000"],
    ["verify", "--vars", "x", "--f", "x", "--b", "s+1", "--op", "10^5000*dx"],
]


def _argv_id(argv):
    return " ".join(a if len(a) <= 20 else "%s...%s" % (a[:8], a[-8:]) for a in argv)


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=_argv_id)
def test_cli_bad_input_exits_4(argv, capsys):
    assert main(argv) == 4


def test_cli_digit_limit_is_named(capsys):
    # the error report of an integer past the limit says which limit
    assert main(["bs", "--vars", "x", "--f", "x+10^5000"]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "InvalidInput"
    assert "PYTHONINTMAXSTRDIGITS" in error["message"]
    assert main(["bs", "--vars", "x", "--f", "x+" + "1" * 5001]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError"
    assert "PYTHONINTMAXSTRDIGITS" in error["message"]


def test_cli_unwritable_out_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["bs", "--vars", "x", "--f", "x^2", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_bs_factors_b_once(factor_calls):
    # the rationality report reads the factorization bs_poly made
    report, code = run_command(JobSpec(command="bs", vars=("x", "y"), f=("y^2-x^3",)))
    assert code == 0, report
    assert [str(f) for f in factor_calls] == [report["outputs"]["b"]]


def test_cli_bad_job_file_exits_4(tmp_path, capsys):
    bs = {"command": "bs", "vars": ["x"], "f": ["x"]}
    family = {"command": "family", "n": 1, "p": 1, "d": 1}
    bad = [
        dict(bs, v=[-1]),
        dict(bs, v=[1.5]),
        dict(bs, v=1),
        dict(bs, budget_steps=True),
        dict(bs, budget_steps="5"),
        dict(bs, budget_steps=-3),
        dict(bs, budget_degree=None),  # no such field any more
        dict(family, n="2"),
        dict(family, d=1.0),
        dict(bs, f=[1]),
        dict(bs, f="x"),
        dict(bs, command="verify", b=5, op="dx"),
        dict(bs, command="generic-bs", params=["a"], points=[1]),
        ["bs"],
        [],
    ]
    path = tmp_path / "job.json"
    for doc in bad:
        path.write_text(json.dumps(doc))
        assert main(["--job", str(path)]) == 4, doc
    path.write_text(json.dumps(family))
    assert main(["--job", str(path)]) == 0


def test_text_rendering_stable():
    spec = JobSpec(command="bs", vars=("x",), f=("x",))
    report, _ = run_command(spec)
    t1 = serialize_report(report, "text")
    t2 = serialize_report(report, "text")
    assert t1 == t2
    assert "verified: True" in t1


# S-pair counts and certificate digests.  The counts are the S-pairs that
# survive the pair criteria in the three Groebner loops of a bs job: the
# dt-elimination of Ann f^s, the left basis of Ann f^s + A_n[s] f that b
# is read off as the minimal polynomial of s, and the basis of
# sigma_v(Ann f^s) that P is reduced by.  P is reported as its normal form
# modulo that ideal, so its digest depends on f, v, b and the term order,
# not on pair selection or the reduction path; the pins moved when that
# reduction came in (the counts by the pairs of the new basis: 68 -> 72
# and 110 -> 112), and the counts alone when Ann f^s moved from the
# Malgrange elimination to the dt-elimination (72 -> 48, 112 -> 76) and
# when the minimal polynomial of s replaced the (x, dx) elimination
# (48 -> 38, 76 -> 65).
GOLDEN_BS = {
    "y^2-x^3": (38, "2aa1f45f07b4f8e0ddc309560f09f47a3f0692057a1e384e92ca71eb59e8a1dc"),
    "x*y*(x+y)": (65, "d9d9fffeb744f679c49ad8be84da42ba73f65e56212526a9fb59ff859e62310b"),
}


@pytest.mark.parametrize("f", sorted(GOLDEN_BS))
def test_cli_bs_golden_determinism(f):
    steps, digest = GOLDEN_BS[f]
    spec = JobSpec(command="bs", vars=("x", "y"), f=(f,), budget_steps=10**8)
    report, code = run_command(spec)
    assert code == 0
    assert report["budget_used"]["steps"] == steps
    P = report["certificates"]["P"]
    assert P["sha256"] == digest
    assert hashlib.sha256(P["value"].encode("utf-8")).hexdigest() == digest
