"""Command line front end: jobs, dispatch, certified JSON reports.

This module knows jobs and reports only; how names become rings and
points is :mod:`genbs.instance`'s.  A job is a ``JobSpec``, the one
home of every default: flags and ``--job`` files both fill it by one
path, and an absent flag leaves its field alone.

Reports are deterministic: identical jobs produce byte-identical output
(sorted keys, no timestamps, stable orderings from the engines).  Exit
codes: 0 success with all verifications passing, 2 a verification
failed, 3 budget exhausted, 4 invalid input (a command-line usage error
included) or mathematical precondition violation.

Each certificate is replayed once, by the library function that builds
it: ``bs_ideal`` (hence ``bs_poly``, which returns its one generator),
``ann_fs`` and ``generic_bs`` (hence ``stratify``) raise
VerificationFailed, exit 2, when a replay fails, so
``bs``, ``annfs``, ``generic-bs`` and ``stratify`` report that success
instead of checking again.  The CLI's own replays check what it is
given, not what it computed: ``verify`` replays the (b, P) of its
input, ``ansatz`` every pair the oracle returns, and ``generic-bs``
specializes its certificate at each ``--point``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from .annbs import ann_fs, bs_ideal, bs_poly, rationality_report
from .errors import (
    DecompositionUnsupported,
    GenbsError,
    InvalidInput,
    TimeoutBudget,
    UnitIdealError,
)
from .factor import Factorization, factor
from .fsmodule import AnsatzBounds, ansatz_bs, check_identity
from .groebner import buchberger
from .instance import ProblemInstance, family_ring, generic_family
from .parametric import generic_bs, specialize_check
from .parser import parse_op, parse_poly
from .primes import PrimeIdealQ, certify_prime, the_zero_prime
from .stratify import stratify
from .variables import VarRegistry
from .weyl_groebner import GBBudget


SCHEMA = "genbs-report/1"


@dataclass
class JobSpec:
    """One complete job: instance data, command, budgets."""

    command: str
    vars: tuple = ()
    params: tuple = ()
    f: tuple = ()
    v: tuple | None = None
    ideal: tuple = ()
    b: str | None = None
    op: str | None = None
    points: tuple = ()
    n: int | None = None
    p: int | None = None
    d: int | None = None
    budget_steps: int | None = None
    budget_x: int = 2
    budget_dorder: int = 2
    budget_sdegree: int = 2
    budget_samples: int = 20000

    def __post_init__(self):
        """Flags and ``--job`` files meet this one check, so a bad value
        exits 4 before any command runs: texts are strings; counts, shift
        entries and budgets are integers (a bool is not one) and budgets
        are non-negative; a field may be None only where that is its
        default."""
        checks = [
            (name, x, str)
            for name in ("vars", "params", "f", "ideal", "points")
            for x in getattr(self, name)
        ]
        checks += [("v", x, int) for x in self.v or ()]
        for f in self.__dataclass_fields__.values():
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if f.name in ("command", "b", "op"):
                checks.append((f.name, value, str))
            elif f.name in ("n", "p", "d") or f.name.startswith("budget_"):
                checks.append((f.name, value, int))
        for name, value, kind in checks:
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "a string" if kind is str else "an integer"
                raise InvalidInput("%s must be %s, got %r" % (name, what, value))
            if name.startswith("budget_") and value < 0:
                raise InvalidInput("%s must be non-negative, got %d" % (name, value))

    def budgets_dict(self) -> dict:
        return {
            "steps": self.budget_steps,
            "x_degree": self.budget_x,
            "d_order": self.budget_dorder,
            "s_degree": self.budget_sdegree,
            "samples": self.budget_samples,
        }


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cert(text: str) -> dict:
    return {"value": text, "sha256": _hash(text)}


# -- job assembly ---------------------------------------------------------------


def _build_instance(spec: JobSpec) -> ProblemInstance:
    if not spec.f:
        raise GenbsError("no family members given (use --f)")
    if not spec.vars:
        raise GenbsError("no variables given (use --vars)")
    registry = VarRegistry.create(spec.vars, len(spec.f), spec.params)
    ring = family_ring(registry)
    f = tuple(parse_poly(text, ring) for text in spec.f)
    v = spec.v if spec.v is not None else (1,) * len(f)
    return ProblemInstance(registry, f, v)


def _build_budget(spec: JobSpec):
    if spec.budget_steps is None:
        return None
    return GBBudget(max_steps=spec.budget_steps)


def _prime_from_spec(spec: JobSpec, inst: ProblemInstance, budget) -> PrimeIdealQ:
    param = inst.param_ring()
    gens = [parse_poly(text, param) for text in spec.ideal]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return the_zero_prime(param)
    basis = buchberger(gens, budget=budget)
    if basis and basis[0].is_constant():
        raise UnitIdealError("Q is the unit ideal")
    cert = certify_prime(basis, param)
    if cert is None:
        raise DecompositionUnsupported(
            "cannot certify the given Q as prime: <%s>"
            % ", ".join(str(b) for b in basis)
        )
    return PrimeIdealQ(
        ring=param, generators=tuple(gens), basis=tuple(basis), certificate=cert
    )


def _instance_doc(inst: ProblemInstance) -> dict:
    r = inst.registry
    return {
        "x": list(r.x),
        "s": list(r.s),
        "a": list(r.a),
        "f": [str(fj) for fj in inst.f],
        "v": list(inst.v),
    }


def _factor_doc(fac: Factorization) -> dict:
    return {
        "unit": str(fac.unit),
        "factors": [
            {
                "factor": str(p),
                "multiplicity": m,
                "irreducible_certified": bool(c),
            }
            for p, m, c in fac.factors
        ],
        "string": str(fac),
    }


# -- command handlers -----------------------------------------------------------


def _cmd_bs(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    budget = _build_budget(spec)
    r = inst.registry
    if r.p == 1 and r.m == 0:
        res = bs_poly(inst, budget=budget)
        out = {
            "b": str(res.b),
            "b_factored": _factor_doc(res.factorization),
            "generators": [str(g) for g in res.ideal.generators],
            "rationality": rationality_report(res.ideal, res.factorization),
        }
        certs = {"P": _cert(str(res.certificate))}
        return _report(spec, inst, out, certs, True, budget)
    B = bs_ideal(inst, budget=budget)
    out = {
        "generators": [str(g) for g in B.generators],
        "rationality": rationality_report(B),
        "per_generator_verified": [True] * len(B.generators),
    }
    certs = {
        "P_%d" % i: _cert(str(P)) for i, P in enumerate(B.certificates)
    }
    return _report(spec, inst, out, certs, bool(B.generators), budget)


def _cmd_annfs(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    budget = _build_budget(spec)
    ideal = ann_fs(inst, budget=budget)
    out = {
        "generators": [str(g) for g in ideal.generators],
        "per_generator_verified": [True] * len(ideal.generators),
    }
    return _report(spec, inst, out, {}, bool(ideal.generators), budget)


def _cmd_generic_bs(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    budget = _build_budget(spec)
    Q = _prime_from_spec(spec, inst, budget)
    points = _parse_points(spec, inst)
    g = generic_bs(inst, Q, budget=budget)
    spot = [
        {
            "point": {k: str(v) for k, v in sorted(values.items())},
            "verified": specialize_check(g, values),
        }
        for values in points
    ]
    out = {
        "Q": [str(b) for b in Q.basis],
        "Q_certificate": Q.certificate,
        "h": str(g.h),
        "h_radical": str(g.h_radical),
        "b": str(g.b),
        "b_factored": _factor_doc(factor(g.b)),
        "specialize_checks": spot,
    }
    certs = {
        "U": _cert(str(g.U)),
        "remainder": _cert(str(g.remainder)),
    }
    verified = all(point["verified"] for point in spot)
    return _report(spec, inst, out, certs, verified, budget)


def _parse_points(spec: JobSpec, inst: ProblemInstance):
    """Each --point, "1,-1" in parameter order or "a=1,b=-1" by name,
    with no name given twice."""
    out = []
    for text in spec.points:
        parts = _split_csv(text)
        if any("=" in t for t in parts):
            pairs = [t.partition("=") for t in parts]
            parts = {nm.strip(): val.strip() for nm, _, val in pairs}
            if len(parts) != len(pairs):
                raise InvalidInput("point %r names a parameter twice" % text)
        out.append(inst.point(parts))
    return out


def _cmd_stratify(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    budget = _build_budget(spec)
    param = inst.param_ring()
    ambient = [parse_poly(text, param) for text in spec.ideal]
    result = stratify(
        inst,
        ambient=ambient,
        budget=budget,
        sample_limit=spec.budget_samples,
    )
    strata_docs = []
    for st in result.strata:
        doc = {
            "region": st.region.describe(),
            "degenerate": st.degenerate,
            "emptiness_unknown": st.emptiness_unknown,
        }
        if st.b is not None:
            doc["b"] = str(st.b)
            doc["b_factored"] = _factor_doc(factor(st.b))
        if st.sample is not None:
            doc["sample"] = {k: str(v) for k, v in sorted(st.sample.items())}
        doc["witnesses"] = [
            {
                "Q": [str(b) for b in w.Q.basis],
                "h": str(w.h),
                "U": _cert(str(w.U)),
                "remainder": _cert(str(w.remainder)),
                "congruence_verified": True,
            }
            for w in st.witnesses
        ]
        strata_docs.append(doc)
    out = {"strata": strata_docs, "count": len(strata_docs)}
    return _report(spec, inst, out, {}, True, budget)


def _cmd_verify(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    if spec.b is None or spec.op is None:
        raise GenbsError("verify needs --b and --op")
    b = parse_poly(spec.b, inst.s_ring())
    P = parse_op(spec.op, inst.weyl_ring())
    ok = check_identity(inst.fs_ring().convert(b), P, inst)
    out = {"b": str(b), "identity_holds": ok}
    certs = {"P": _cert(str(P))}
    return _report(spec, inst, out, certs, ok, None)


def _cmd_ansatz(spec: JobSpec) -> dict:
    inst = _build_instance(spec)
    bounds = AnsatzBounds(
        x_degree=spec.budget_x,
        d_order=spec.budget_dorder,
        s_degree=spec.budget_sdegree,
    )
    pairs = ansatz_bs(inst, bounds)
    checks = [check_identity(b, P, inst) for b, P in pairs]
    verified = bool(checks) and all(checks)
    out = {
        "bounds": {
            "x_degree": bounds.x_degree,
            "d_order": bounds.d_order,
            "s_degree": bounds.s_degree,
        },
        "pairs": [
            {"b": str(b), "P": _cert(str(P)), "verified": ok}
            for (b, P), ok in zip(pairs, checks)
        ],
    }
    return _report(spec, inst, out, {}, verified, None)


def _cmd_family(spec: JobSpec) -> dict:
    if spec.n is None or spec.p is None or spec.d is None:
        raise GenbsError("family needs --n, --p and --d")
    inst = generic_family(spec.n, spec.p, spec.d)
    out = {
        "m": inst.registry.m,
        "instance": _instance_doc(inst),
    }
    return _report(spec, inst, out, {}, True, None)


def _report(spec, inst, outputs, certificates, verified, budget) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": spec.command,
        "inputs": _instance_doc(inst) if inst is not None else {},
        "budgets": spec.budgets_dict(),
        "budget_used": {"steps": budget.used} if budget is not None else {},
        "outputs": outputs,
        "certificates": certificates,
        "verified": bool(verified),
    }
    return doc


_HANDLERS = {
    "bs": _cmd_bs,
    "annfs": _cmd_annfs,
    "generic-bs": _cmd_generic_bs,
    "stratify": _cmd_stratify,
    "verify": _cmd_verify,
    "ansatz": _cmd_ansatz,
    "family": _cmd_family,
}


def run_command(spec: JobSpec):
    """Dispatch a job; returns (report dict, exit code)."""
    try:
        handler = _HANDLERS.get(spec.command)
        if handler is None:
            raise GenbsError("unknown command %r" % spec.command)
        report = handler(spec)
        return report, (0 if report["verified"] else 2)
    except GenbsError as e:
        report = {
            "schema": SCHEMA,
            "command": spec.command,
            "budgets": spec.budgets_dict(),
            "error": {"type": type(e).__name__, "message": str(e), "code": e.exit_code},
            "verified": False,
        }
        if isinstance(e, TimeoutBudget):
            report["partial"] = e.partial
        return report, e.exit_code


def render_text(doc: dict, indent: int = 0) -> str:
    """Human-readable rendering with the same deterministic ordering."""
    lines = []

    def walk(value, pad):
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    lines.append("%s%s:" % (" " * pad, k))
                    walk(v, pad + 2)
                else:
                    lines.append("%s%s: %s" % (" " * pad, k, v))
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    lines.append("%s-" % (" " * pad))
                    walk(v, pad + 2)
                else:
                    lines.append("%s- %s" % (" " * pad, v))
        else:
            lines.append("%s%s" % (" " * pad, value))

    walk(doc, indent)
    return "\n".join(lines) + "\n"


def serialize_report(doc: dict, fmt: str = "json") -> str:
    if fmt == "text":
        return render_text(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _split_csv(text):
    return tuple(t.strip() for t in text.split(",") if t.strip())


def build_argparser() -> argparse.ArgumentParser:
    """Flags name JobSpec fields; an absent flag leaves the field's default."""
    ap = argparse.ArgumentParser(
        prog="genbs",
        description="Bernstein-Sato ideals with certificates: classical, "
        "parametric-generic, and stratified computations.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("command", choices=sorted(_HANDLERS), nargs="?", default=None)
    ap.add_argument("--job", help="JobSpec JSON file (overrides other flags)")
    ap.add_argument("--f", action="append", help="family member (repeatable)")
    ap.add_argument("--v", help="shift vector, comma separated non-negative integers")
    ap.add_argument("--vars", help="x variable names, comma separated")
    ap.add_argument("--params", help="parameter names, comma separated")
    ap.add_argument("--ideal", action="append", help="generator of Q (repeatable)")
    ap.add_argument("--b", help="candidate b polynomial (verify)")
    ap.add_argument("--op", help="candidate operator certificate (verify)")
    ap.add_argument(
        "--point", action="append", dest="points", help="parameter point (repeatable)"
    )
    ap.add_argument("--n", type=int, help="number of x variables (family)")
    ap.add_argument("--p", type=int, help="number of family members (family)")
    ap.add_argument("--d", type=int, help="total degree bound (family)")
    for name in ("steps", "x", "dorder", "sdegree", "samples"):
        ap.add_argument("--budget-" + name, type=int)
    ap.add_argument("--out", default=None, help="write the report to this path")
    ap.add_argument("--format", choices=["json", "text"], default="json")
    return ap


def job_from_args(args) -> JobSpec:
    """The JobSpec of the given flags, or of the --job file instead: one
    path, where comma separated text and JSON lists both become tuples."""
    fields = dict(vars(args))
    for key in ("out", "format"):
        fields.pop(key, None)
    path = fields.pop("job", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise InvalidInput("a job file holds one JSON object")
    unknown = set(fields) - set(JobSpec.__dataclass_fields__)
    if unknown:
        raise GenbsError("unknown JobSpec fields: %s" % ", ".join(sorted(unknown)))
    if not fields.get("command"):
        raise GenbsError("no command given")
    for key in ("vars", "params", "v"):
        if isinstance(fields.get(key), str):
            fields[key] = _split_csv(fields[key])
    for key in ("vars", "params", "f", "ideal", "points", "v"):
        value = fields.get(key)
        if value is None:
            continue
        if not isinstance(value, (list, tuple)):
            raise InvalidInput("%s must be a list, got %r" % (key, value))
        fields[key] = tuple(value)
    if fields.get("v") is not None:
        fields["v"] = tuple(int(x) if isinstance(x, str) else x for x in fields["v"])
    return JobSpec(**fields)


def main(argv=None) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # argparse: --help exits 0, a usage error 2
        return 4 if e.code else 0
    try:
        spec = job_from_args(args)
        # opened before the job runs, so an unwritable path fails at once
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except (GenbsError, OSError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 4
    try:
        report, code = run_command(spec)
        out.write(serialize_report(report, args.format))
    finally:
        if out is not sys.stdout:
            out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
