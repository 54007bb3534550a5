"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload curves --seed 1 --t0 <monotonic> \
        [--setup-only] [--trace --spans PATH] [--probe]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter; set-up time runs from there until the first JobSpec is ready.
The jobs run one after another through ``run_command``; each report is
serialized, checked against its reference and then re-verified from its
text.  A job whose outcome differs from its reference, or a certificate
that does not replay, ends the pass with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import genbs.cli as cli
from genbs import JobSpec

import corpus
import reference
import replay

# the re-check is short, so it is repeated for a steadier median
VERIFY_S = 1.0
VERIFY_REPEATS = 10


def _verify_seconds(texts) -> float:
    """Median seconds to re-check every report, over repeats filling VERIFY_S."""
    times = []
    while not times or (sum(times) < VERIFY_S and len(times) < VERIFY_REPEATS):
        start = time.perf_counter()
        for text in texts:
            replay.verify_report(text)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    jobs = corpus.workload(args.workload, args.seed)
    specs = [JobSpec(**inst.spec_fields()) for inst in jobs]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    job_s, texts, codes = [], [], []
    clock = time.perf_counter
    try:
        first = clock()
        for spec in specs:
            start = clock()
            # looked up on the module at each call, so a tracer's wrapper runs
            report, code = cli.run_command(spec)
            job_s.append(clock() - start)
            codes.append(code)
            texts.append(cli.serialize_report(report))
        wall_s = clock() - first
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        for inst, text, code in zip(jobs, texts, codes):
            reference.check(inst, json.loads(text), code)
        verify_s = _verify_seconds(texts)
        probe_solved = None
        if args.probe:
            inst = corpus.probe(args.seed)
            report, code = cli.run_command(JobSpec(**inst.spec_fields()))
            probe_solved = reference.check(inst, report, code)
            replay.verify_report(cli.serialize_report(report))
    except (reference.Mismatch, replay.ReplayFailure) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1

    reports = [json.loads(t) for t in texts]
    steps = [r.get("budget_used", {}).get("steps") for r in reports]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_s": {inst.job.name: s for inst, s in zip(jobs, job_s)},
        "verify_s": verify_s,
        "peak_rss_mb": peak_rss_mb,
        "cert_bytes": sum(replay.cert_bytes(r) for r in reports),
        "codes": codes,
        "steps": steps,
        "reports_sha256": hashlib.sha256("".join(texts).encode("utf-8")).hexdigest(),
        "probe_solved": probe_solved,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["weyl_groebner.spairs"] = sum(steps)
        layers["stratify.emptiness_unknown"] = sum(
            st["emptiness_unknown"] for r in reports for st in r["outputs"].get("strata", ())
        )
        result["layers"] = layers
        if tracer.missing:
            sys.stderr.write("trace: not found: %s\n" % ", ".join(tracer.missing))
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
