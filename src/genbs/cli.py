"""Command line front end: job parsing, dispatch, certified JSON reports.

Reports are deterministic: identical jobs produce byte-identical output
(sorted keys, no timestamps, stable orderings from the engines).  Exit
codes: 0 success with all verifications passing, 2 a verification
failed, 3 budget exhausted, 4 invalid input or mathematical
precondition violation.

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
from fractions import Fraction
from math import comb

from .annbs import ann_fs, bs_ideal, bs_poly, rationality_report
from .errors import DecompositionUnsupported, GenbsError, TimeoutBudget, UnitIdealError
from .factor import factor
from .fsmodule import AnsatzBounds, _multi_indices, ansatz_bs, check_identity
from .groebner import buchberger
from .instance import ProblemInstance, make_instance
from .orders import GRevLex
from .parametric import generic_bs, specialize_check
from .parser import parse_op, parse_poly
from .poly import PolyRing, QQ
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
    budget_degree: int = 8
    budget_x: int = 2
    budget_dorder: int = 2
    budget_sdegree: int = 2
    budget_samples: int = 20000

    def budgets_dict(self) -> dict:
        return {
            "steps": self.budget_steps,
            "degree": self.budget_degree,
            "x_degree": self.budget_x,
            "d_order": self.budget_dorder,
            "s_degree": self.budget_sdegree,
            "samples": self.budget_samples,
        }


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cert(text: str) -> dict:
    return {"value": text, "sha256": _hash(text)}


def generic_family(n: int, p: int, d: int, registry: VarRegistry | None = None):
    """The fully generic degree <= d family with m = p C(n+d, d) parameters.

    Parameter a_j_alpha multiplies x^alpha inside f_j; names serialize the
    multi-index so they round-trip through the parser.
    """
    if n < 1 or p < 1 or d < 0:
        raise GenbsError("generic_family needs n, p >= 1 and d >= 0")
    x_names = tuple("x%d" % (i + 1) for i in range(n))
    alphas = _multi_indices(n, d)
    a_names = []
    for j in range(1, p + 1):
        for alpha in alphas:
            a_names.append("a_%d_%s" % (j, "_".join(str(e) for e in alpha)))
    a_names = tuple(a_names)
    assert len(a_names) == p * comb(n + d, d)
    if registry is None:
        registry = VarRegistry.create(x_names, p, a_names)
    ring = PolyRing(QQ, registry.a + registry.x, GRevLex())
    fs = []
    k = 0
    for j in range(1, p + 1):
        fj = ring.zero()
        for alpha in alphas:
            exp = [0] * ring.nvars
            exp[ring.index(a_names[k])] = 1
            for i, e in enumerate(alpha):
                exp[ring.index(x_names[i])] = e
            fj = fj + ring.monomial(tuple(exp))
            k += 1
        fs.append(fj)
    return ProblemInstance(registry, tuple(fs), (1,) * p)


# -- job assembly ---------------------------------------------------------------


def _build_instance(spec: JobSpec) -> ProblemInstance:
    if not spec.f:
        raise GenbsError("no family members given (use --f)")
    if not spec.vars:
        raise GenbsError("no variables given (use --vars)")
    p = len(spec.f)
    registry = VarRegistry.create(tuple(spec.vars), p, tuple(spec.params))
    ring = PolyRing(QQ, registry.a + registry.x, GRevLex())
    fs = [parse_poly(text, ring) for text in spec.f]
    v = spec.v if spec.v is not None else (1,) * p
    if len(v) != p:
        raise GenbsError("v has length %d but there are %d family members" % (len(v), p))
    return make_instance(spec.vars, fs, v=v, a_names=spec.params)


def _build_budget(spec: JobSpec):
    if spec.budget_steps is None:
        return None
    return GBBudget(max_steps=spec.budget_steps)


def _prime_from_spec(spec: JobSpec, inst: ProblemInstance) -> PrimeIdealQ:
    param = inst.param_ring()
    gens = [parse_poly(text, param) for text in spec.ideal]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return the_zero_prime(param)
    basis = buchberger(gens)
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


def _factor_doc(g) -> dict:
    fac = factor(g)
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
            "b_factored": _factor_doc(res.b),
            "generators": [str(g) for g in res.ideal.generators],
            "rationality": rationality_report(res.ideal),
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
    Q = _prime_from_spec(spec, inst)
    g = generic_bs(inst, Q, budget=budget, degree_budget=spec.budget_degree)
    spot = [
        {
            "point": {k: str(v) for k, v in sorted(values.items())},
            "verified": specialize_check(g, values),
        }
        for values in _parse_points(spec, inst)
    ]
    out = {
        "Q": [str(b) for b in Q.basis],
        "Q_certificate": Q.certificate,
        "h": str(g.h),
        "h_radical": str(g.h_radical),
        "b": str(g.b),
        "b_factored": _factor_doc(g.b),
        "strategy": g.strategy,
        "specialize_checks": spot,
    }
    certs = {
        "U": _cert(str(g.U)),
        "remainder": _cert(str(g.remainder)),
    }
    verified = all(point["verified"] for point in spot)
    return _report(spec, inst, out, certs, verified, budget)


def _parse_points(spec: JobSpec, inst: ProblemInstance):
    # accepts "1,-1" positionally or "a=1,b=-1" by name
    r = inst.registry
    out = []
    for text in spec.points:
        parts = [t.strip() for t in text.split(",") if t.strip()]
        try:
            if any("=" in t for t in parts):
                point = {}
                for t in parts:
                    nm, _, val = t.partition("=")
                    nm = nm.strip()
                    if nm not in r.a:
                        raise GenbsError("unknown parameter %r in point %r" % (nm, text))
                    point[nm] = Fraction(val.strip())
                if len(point) != r.m:
                    raise GenbsError(
                        "point %r names %d parameters, expected %d" % (text, len(point), r.m)
                    )
            else:
                if len(parts) != r.m:
                    raise GenbsError(
                        "point %r has %d coordinates, expected %d" % (text, len(parts), r.m)
                    )
                point = {nm: Fraction(val) for nm, val in zip(r.a, parts)}
        except ValueError as exc:
            raise GenbsError("bad coordinate in point %r: %s" % (text, exc)) from exc
        out.append(point)
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
        degree_budget=spec.budget_degree,
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
            doc["b_factored"] = _factor_doc(st.b)
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
    except TimeoutBudget as e:
        report = {
            "schema": SCHEMA,
            "command": spec.command,
            "budgets": spec.budgets_dict(),
            "error": {"type": "TimeoutBudget", "message": str(e), "code": 3},
            "partial": e.partial or {},
            "verified": False,
        }
        return report, 3
    except GenbsError as e:
        report = {
            "schema": SCHEMA,
            "command": spec.command,
            "budgets": spec.budgets_dict(),
            "error": {
                "type": type(e).__name__,
                "message": str(e),
                "code": e.exit_code,
            },
            "verified": False,
        }
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
    ap = argparse.ArgumentParser(
        prog="genbs",
        description="Bernstein-Sato ideals with certificates: classical, "
        "parametric-generic, and stratified computations.",
    )
    ap.add_argument("command", choices=sorted(_HANDLERS), nargs="?")
    ap.add_argument("--job", help="JobSpec JSON file (overrides other flags)")
    ap.add_argument("--f", action="append", default=[], help="family member (repeatable)")
    ap.add_argument("--v", help="shift vector, comma separated non-negative integers")
    ap.add_argument("--vars", help="x variable names, comma separated")
    ap.add_argument("--params", help="parameter names, comma separated")
    ap.add_argument(
        "--ideal", action="append", default=[], help="generator of Q (repeatable)"
    )
    ap.add_argument("--b", help="candidate b polynomial (verify)")
    ap.add_argument("--op", help="candidate operator certificate (verify)")
    ap.add_argument(
        "--point", action="append", default=[], help="parameter point (repeatable)"
    )
    ap.add_argument("--n", type=int, help="number of x variables (family)")
    ap.add_argument("--p", type=int, help="number of family members (family)")
    ap.add_argument("--d", type=int, help="total degree bound (family)")
    ap.add_argument("--budget-steps", type=int, dest="budget_steps")
    ap.add_argument("--budget-degree", type=int, dest="budget_degree", default=8)
    ap.add_argument("--budget-x", type=int, dest="budget_x", default=2)
    ap.add_argument("--budget-dorder", type=int, dest="budget_dorder", default=2)
    ap.add_argument("--budget-sdegree", type=int, dest="budget_sdegree", default=2)
    ap.add_argument(
        "--budget-samples", type=int, dest="budget_samples", default=20000
    )
    ap.add_argument("--out", help="write the report to this path")
    ap.add_argument("--format", choices=["json", "text"], default="json")
    return ap


def job_from_args(args) -> JobSpec:
    if args.job:
        with open(args.job, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        allowed = set(JobSpec.__dataclass_fields__)
        unknown = set(raw) - allowed
        if unknown:
            raise GenbsError("unknown JobSpec fields: %s" % ", ".join(sorted(unknown)))
        for key in ("vars", "params", "f", "ideal", "points"):
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        if raw.get("v") is not None:
            raw["v"] = tuple(int(x) for x in raw["v"])
        if "command" not in raw:
            raise GenbsError("JobSpec file must contain a command")
        return JobSpec(**raw)
    if not args.command:
        raise GenbsError("no command given")
    return JobSpec(
        command=args.command,
        vars=_split_csv(args.vars) if args.vars else (),
        params=_split_csv(args.params) if args.params else (),
        f=tuple(args.f),
        v=tuple(int(t) for t in _split_csv(args.v)) if args.v else None,
        ideal=tuple(args.ideal),
        b=args.b,
        op=args.op,
        points=tuple(args.point),
        n=args.n,
        p=args.p,
        d=args.d,
        budget_steps=args.budget_steps,
        budget_degree=args.budget_degree,
        budget_x=args.budget_x,
        budget_dorder=args.budget_dorder,
        budget_sdegree=args.budget_sdegree,
        budget_samples=args.budget_samples,
    )


def main(argv=None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    try:
        spec = job_from_args(args)
    except GenbsError as e:
        sys.stderr.write("error: %s\n" % e)
        return e.exit_code
    report, code = run_command(spec)
    text = serialize_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
