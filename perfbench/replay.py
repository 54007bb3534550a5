"""Third-party re-check of every certificate, from report text alone.

Each (b, P) pair goes through ``run_command(JobSpec(command="verify"))``,
the path ``genbs verify`` takes.  Each generic witness (Q, h, U) is parsed
back with ``parse_op``/``parse_poly`` and replayed with
``congruence_remainder`` and ``remainder_in_Q``; the recomputed remainder
must also print as the recorded one.  Every certificate's sha256 must
match its value.
"""

from __future__ import annotations

import hashlib
import json

from genbs import (
    GRevLex,
    JobSpec,
    PolyRing,
    QQ,
    congruence_remainder,
    make_instance,
    parse_op,
    parse_poly,
    run_command,
)
from genbs.fsmodule import remainder_in_Q
from genbs.primes import PrimeIdealQ


class ReplayFailure(Exception):
    """A certificate in a report does not replay."""


def certificates(report: dict):
    """Every certificate dict {value, sha256} in a report."""
    out = list(report.get("certificates", {}).values())
    for st in report.get("outputs", {}).get("strata", ()):
        for w in st["witnesses"]:
            out += [w["U"], w["remainder"]]
    return out


def cert_bytes(report: dict) -> int:
    """UTF-8 length of the operator certificates P, P_i and U."""
    total = 0
    for key, cert in report.get("certificates", {}).items():
        if key != "remainder":
            total += len(cert["value"].encode("utf-8"))
    for st in report.get("outputs", {}).get("strata", ()):
        for w in st["witnesses"]:
            total += len(w["U"]["value"].encode("utf-8"))
    return total


def _verify_pair(inputs, b, op):
    spec = JobSpec(
        command="verify",
        vars=tuple(inputs["x"]),
        params=tuple(inputs["a"]),
        f=tuple(inputs["f"]),
        v=tuple(inputs["v"]),
        b=b,
        op=op,
    )
    report, code = run_command(spec)
    if code != 0 or not report["outputs"]["identity_holds"]:
        raise ReplayFailure("b = %s: certificate does not replay (exit %d)" % (b, code))


def _instance(inputs):
    ring = PolyRing(QQ, tuple(inputs["a"]) + tuple(inputs["x"]), GRevLex())
    fs = [parse_poly(t, ring) for t in inputs["f"]]
    return make_instance(inputs["x"], fs, v=inputs["v"], a_names=inputs["a"])


def _verify_witness(inst, b, w):
    param = inst.param_ring()
    basis = tuple(parse_poly(t, param) for t in w["Q"])
    Q = PrimeIdealQ(ring=param, generators=basis, basis=basis, certificate="report")
    h = parse_poly(w["h"], param)
    U = parse_op(w["U"]["value"], inst.weyl_ring())
    r = congruence_remainder(h, parse_poly(b, inst.s_ring()), U, inst)
    if not remainder_in_Q(r, Q, inst):
        raise ReplayFailure("witness h = %s: remainder escapes Q" % w["h"])
    if str(r) != w["remainder"]["value"]:
        raise ReplayFailure("witness h = %s: remainder differs from the report" % w["h"])


def verify_report(text: str):
    """Re-check one serialized report; raise ReplayFailure on any failure."""
    report = json.loads(text)
    for cert in certificates(report):
        if hashlib.sha256(cert["value"].encode("utf-8")).hexdigest() != cert["sha256"]:
            raise ReplayFailure("certificate hash mismatch")
    if "error" in report:
        return
    inputs, out, certs = report["inputs"], report["outputs"], report["certificates"]
    if report["command"] == "bs":
        if "b" in out:
            _verify_pair(inputs, out["b"], certs["P"]["value"])
        else:
            for i, g in enumerate(out["generators"]):
                _verify_pair(inputs, g, certs["P_%d" % i]["value"])
    elif report["command"] == "generic-bs":
        w = {"Q": out["Q"], "h": out["h"], "U": certs["U"], "remainder": certs["remainder"]}
        _verify_witness(_instance(inputs), out["b"], w)
    elif report["command"] == "stratify":
        inst = _instance(inputs)
        for st in out["strata"]:
            for w in st["witnesses"]:
                _verify_witness(inst, st["b"], w)
