"""genbs benchmark: certified curves, ideals and families workloads.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root.  One closed loop with a single client: each
pass starts a fresh interpreter (perfbench/worker.py) that runs the
workload's jobs one at a time through ``genbs.cli.run_command``.  Passes
repeat while the next one should end within ``--seconds``, and every
metric is the median over passes.  ``setup_s`` is also measured in a few
interpreters that only set up.  With ``--trace 1`` the run makes one
untraced and one traced pass and reports the per-layer metrics of the
traced one, the difference of their wall times being the tracing
overhead.  Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job whose outcome differs from
its reference, a certificate that fails to replay, or two passes whose
reports differ make the run incorrect, and it exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("curves", "ideals", "families")
SETUP_ONLY_RUNS = 9
DEADLINE_S = 170.0


def _units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RunFailed(Exception):
    """A pass crashed, timed out, or found an incorrect result."""


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            # genbs compiles from source in every interpreter, wherever the
            # host would or would not cache bytecode
            PYTHONDONTWRITEBYTECODE="1",
        )

    def probe_flags(self) -> list:
        """The families probe runs once per run, in its first pass."""
        return ["--probe"] if self.workload == "families" else []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, *flags) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed)]
        cmd += list(flags)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed("pass timed out: %s" % " ".join(flags)) from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or "error" in result:
            raise RunFailed(result.get("error") or "worker exited with %d" % proc.returncode)
        return result


def _check_same(passes):
    for p in passes[1:]:
        if p["reports_sha256"] != passes[0]["reports_sha256"] or p["steps"] != passes[0]["steps"]:
            raise RunFailed("two passes of the same inputs gave different reports")


def end_to_end(runner: Runner, seconds: int) -> tuple:
    setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    passes = []
    first = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(runner.spawn(*([] if passes else runner.probe_flags())))
        took = time.monotonic() - started
        # start another pass only if it should end within the window
        if time.monotonic() - first + took > min(seconds, runner.remaining()):
            break
    _check_same(passes)
    names = list(passes[0]["job_s"])
    per_job = [statistics.median(p["job_s"][n] for p in passes) for n in names]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_geomean_s": math.exp(sum(math.log(s) for s in per_job) / len(per_job)),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cert_bytes": passes[0]["cert_bytes"],
    }
    return passes, {k: (metrics[k], unit) for k, unit in _units("end_to_end").items()}


def per_layer(runner: Runner) -> tuple:
    plain = runner.spawn(*runner.probe_flags())
    spans = OUT / ("spans-%s-%d.json" % (runner.workload, runner.seed))
    traced = runner.spawn("--trace", "--spans", str(spans))
    _check_same([plain, traced])
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["primes.unsupported_jobs"] = int(plain["probe_solved"] is False)
    return [plain, traced], {k: (layers[k], unit) for k, unit in _units("per_layer").items()}


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    try:
        if trace:
            passes, metrics = per_layer(runner)
        else:
            passes, metrics = end_to_end(runner, seconds)
    except RunFailed as exc:
        sys.stderr.write("%s seed %d: %s\n" % (workload, seed, exc))
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (value, unit) in metrics.items():
        sys.stdout.write("%-10s %-34s %14.6g %s\n" % (workload, name, value, unit))
    return {
        "correct": True,
        "attempted": sum(len(p["codes"]) for p in passes),
        "failed": sum(1 for p in passes for c in p["codes"] if c != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "genbs" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no genbs sources under %s\n" % (ROOT / "src"))
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
