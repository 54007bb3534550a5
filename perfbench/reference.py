"""Checks a job's report against its hand-written reference.

Polynomials in the report are read with a small parser of genbs's printed
form (sums of terms c*v1^e1*v2^e2...), and references are expanded from
their linear factors with the same dict arithmetic, so no genbs code takes
part in the comparison.
"""

from __future__ import annotations

import re
from fractions import Fraction

from corpus import DEGENERATE

_TERM = re.compile(r"([+-]?)([^+-]+)")


class Mismatch(Exception):
    """A job's outcome differs from its reference."""


def parse_sum(text: str) -> dict:
    """{monomial: coefficient}; a monomial is a sorted tuple of (name, exp)."""
    out = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        mono = {}
        for part in body.split("*"):
            if part[0].isdigit():
                coeff *= Fraction(part)
            else:
                name, _, exp = part.partition("^")
                mono[name] = mono.get(name, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = dict(m1)
            for name, e in m2:
                mono[name] = mono.get(name, 0) + e
            key = tuple(sorted(mono.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def expand(factors) -> dict:
    acc = {(): Fraction(1)}
    for text in factors:
        acc = _mul(acc, parse_sum(text))
    return acc


def same_up_to_scalar(p: dict, q: dict) -> bool:
    if not p or set(p) != set(q):
        return False
    key = next(iter(p))
    ratio = p[key] / q[key]
    return all(p[k] == ratio * q[k] for k in p)


def _require(cond, msg):
    if not cond:
        raise Mismatch(msg)


def check(inst, report: dict, code: int) -> bool:
    """Raise Mismatch unless the report is the reference outcome.

    Returns False for an accepted DecompositionUnsupported refusal and
    True for a verified result.
    """
    job = inst.job
    if code == 4 and job.unsupported_ok:
        err = report.get("error", {})
        _require(
            err.get("type") == "DecompositionUnsupported",
            "%s: unexpected refusal %r" % (job.name, err),
        )
        return False
    _require(code == 0, "%s: exit code %d, error %r" % (job.name, code, report.get("error")))
    _require(report["verified"] is True, "%s: report not verified" % job.name)
    out = report["outputs"]
    if job.command == "bs":
        if len(job.f) == 1:
            got = out["b"]
        else:
            _require(all(out["per_generator_verified"]), "%s: generator unverified" % job.name)
            _require(len(out["generators"]) >= 1, "%s: empty ideal" % job.name)
            got = out["generators"][0] if len(out["generators"]) == 1 else None
        if job.reference is not None:
            _require(
                got is not None and same_up_to_scalar(parse_sum(got), expand(job.reference)),
                "%s: b = %s, reference %s" % (job.name, got, "".join("(%s)" % t for t in job.reference)),
            )
    elif job.command == "generic-bs":
        _require(
            parse_sum(out["b"]) == expand(job.reference),
            "%s: generic b = %s" % (job.name, out["b"]),
        )
        checks = out["specialize_checks"]
        _require(
            len(checks) == len(job.points) and all(c["verified"] for c in checks),
            "%s: specialization failed" % job.name,
        )
    elif job.command == "stratify":
        _check_strata(inst, out["strata"])
    return True


def _b_of(stratum):
    return DEGENERATE if stratum["degenerate"] else parse_sum(stratum["b"])


def _norm(outcome):
    return DEGENERATE if outcome == DEGENERATE else expand(outcome)


def _check_strata(inst, strata):
    job = inst.job
    allowed = [_norm(o) for o in job.outcomes]
    seen = []
    for st in strata:
        b = _b_of(st)
        _require(b in allowed, "%s: stratum b %r is no reference value" % (job.name, st.get("b")))
        _require(b not in seen, "%s: two strata share b %r" % (job.name, st.get("b")))
        seen.append(b)
        if st["sample"] is not None:
            point = {nm: Fraction(v) * inst.mu[nm] for nm, v in st["sample"].items()}
            _require(
                b == _norm(job.rule(point)),
                "%s: stratum b %r wrong at sample %r" % (job.name, st.get("b"), st["sample"]),
            )
        else:
            _require(st["emptiness_unknown"], "%s: stratum without sample" % job.name)
        if b != DEGENERATE:
            _require(
                st["witnesses"] and all(w["congruence_verified"] for w in st["witnesses"]),
                "%s: stratum witness unverified" % job.name,
            )
    _require(len(seen) == len(allowed), "%s: %d strata, expected %d" % (job.name, len(seen), len(allowed)))
