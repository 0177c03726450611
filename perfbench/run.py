"""vicsim benchmark: seeded CLI job mixes, checked outputs, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload partial_vic --seed 1 --seconds 20 --trace 0

Run from the repository root (or a copy of its committed files). With
``--trace 0`` it measures set-up time in fresh processes, then runs the
workload's job stream in one fresh process for ``--seconds`` of job time
and prints the end-to-end metrics. With ``--trace 1`` it runs a fixed
prefix of the stream twice, untraced and traced, each in a fresh
process, and prints the per-layer metrics, import times and the tracing
overhead. Either way every job's output is checked against the
benchmark's own reference (check.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it carries provenance and details.

Metric names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy
import scipy

from check import ESD_UNCONFIRMED, check_job
from workloads import TRACE_BLOCKS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SRC = ROOT / "src"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Import and parser build are timed; a warmed-up calibration right after
# gives the machine speed during them.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import vicsim.cli as cli; "
    "cli._build_parser(); t1 = time.perf_counter(); "
    f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import calib; calib.calibrate(); "
    "print(t1 - t0, calib.REFERENCE_S / min(calib.calibrate() for _ in range(3)))"
)
WORKER_SLACK_S = 100.0  # beyond --seconds before a worker counts as hung
TRACE_TIMEOUT_S = 75.0
RUN_LIMIT_S = 170  # a whole run ends within this, hung children included


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _expired(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it: (pct, value)."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if ordered:
            value, beyond = nearest_rank(ordered, pct)
            if beyond >= TAIL_BEYOND:
                return pct, value
    raise BenchError(f"{len(values)} completed jobs: too few for a tail percentile")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd[:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[:4])}\n{proc.stderr[-3000:]}")
    return proc


def provenance() -> dict:
    """Where and on what the numbers were taken."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "vicsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "worker_thread_env": {var: "1" for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def setup_samples() -> list[tuple[float, float]]:
    """(seconds, machine speed) to import vicsim.cli and build its parser,
    one fresh process each. A first, discarded process fills the bytecode cache.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    _run(cmd, 60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, speed = _run(cmd, 60).stdout.split()
        samples.append((float(seconds), float(speed)))
    return samples


def import_times() -> dict[str, float]:
    """Median cumulative import seconds of vicsim.qlinalg and vicsim.cli (-X importtime)."""
    samples: dict[str, list[float]] = {"qlinalg.import_s": [], "cli.import_s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        err = _run([sys.executable, "-X", "importtime", "-c", "import vicsim.cli"], 60).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples["qlinalg.import_s"].append(cumulative.get("vicsim.qlinalg", 0.0))
        samples["cli.import_s"].append(cumulative.get("vicsim.cli", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def run_worker(tmp: Path, workload: str, seed: int, extra: list[str], timeout: float,
               sweep: bool = False) -> dict:
    """Summary of one worker pass, with its job records (and sweep records) read back."""
    out, jobs, sweep_jobs = tmp / "pass.json", tmp / "jobs.jsonl", tmp / "sweep.jsonl"
    if sweep:
        extra = extra + ["--sweep", str(sweep_jobs)]
    _run([sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
          "--seed", str(seed), "--tmp", str(tmp), "--records", str(jobs),
          "--out", str(out)] + extra, timeout)
    result = json.loads(out.read_text())
    result["records"] = read_records(jobs)
    if sweep:
        result["sweep"] = read_records(sweep_jobs)
    return result


def check_all(records: list[dict], notes: Counter | None = None) -> tuple[list[dict], list[str]]:
    """Jobs that completed correctly, and a line for each one that did not."""
    completed, bad = [], []
    for rec in records:
        reason = check_job(rec, notes)
        if reason is None:
            completed.append(rec)
        else:
            bad.append(f"{' '.join(rec['argv'])}: {reason}")
    return completed, bad


def end_to_end(workload: str, seed: int, seconds: int, tmp: Path):
    setup = setup_samples()
    result = run_worker(tmp, workload, seed, ["--seconds", str(seconds)], seconds + WORKER_SLACK_S)
    records = result["records"]
    notes = Counter()
    completed, bad = check_all(records, notes)
    if not completed:
        raise BenchError("no job completed")
    raw = [r["latency_s"] * 1e3 for r in completed]
    scaled = [r["latency_s"] * r["speed"] * 1e3 for r in completed]
    pct, tail = tail_percentile(scaled)
    values = {
        "setup_s": statistics.median(s * speed for s, speed in setup),
        "jobs_per_s": 1e3 * len(scaled) / sum(scaled),
        "latency_ms_p50": statistics.median(scaled),
        "latency_ms_tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {
        "latency_tail": {"percentile": pct, "completed": len(scaled)},
        "failed_share": len(bad) / len(records),
        "esd_unconfirmed": esd_unconfirmed(records, notes),
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setup),
            "jobs_per_s": 1e3 * len(raw) / sum(raw),
            "latency_ms_p50": statistics.median(raw),
            "latency_ms_tail": tail_percentile(raw)[1],
        },
        "setup_samples": setup,
        "speed_median": statistics.median(r["speed"] for r in records),
        "busy_s": result["busy_s"],
    }
    return values, len(records), bad, details


def esd_unconfirmed(records: list[dict], notes: Counter) -> dict:
    """Correct esd jobs whose death time the reference could not confirm."""
    esd = sum(r["argv"][0] == "esd" for r in records)
    count = notes[ESD_UNCONFIRMED]
    return {"count": count, "esd_jobs": esd, "share": count / esd if esd else 0.0}


def scaled_busy(result: dict) -> float:
    """Job time of a pass in reference-speed seconds."""
    return sum(r["latency_s"] * r["speed"] for r in result["records"])


def traced(workload: str, seed: int, tmp: Path):
    n = str(TRACE_BLOCKS[workload])
    plain = run_worker(tmp, workload, seed, ["--blocks", n], TRACE_TIMEOUT_S)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    traced_pass = run_worker(tmp, workload, seed, ["--blocks", n, "--spans", str(spans)],
                             TRACE_TIMEOUT_S, sweep=True)
    notes = Counter()
    bad = check_all(plain["records"])[1] + check_all(traced_pass["records"], notes)[1]
    sweep_bad = check_all(traced_pass["sweep"])[1]
    values = dict(traced_pass["layers"])
    values.update(import_times())
    values["trace.overhead_share"] = scaled_busy(traced_pass) / scaled_busy(plain) - 1.0
    values["cli.steady_sweep.failed_share"] = len(sweep_bad) / len(traced_pass["sweep"])
    details = {
        "jobs_per_pass": len(traced_pass["records"]),
        "esd_unconfirmed": esd_unconfirmed(traced_pass["records"], notes),
        "absent": traced_pass["absent"],
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": traced_pass["busy_s"],
        "steady_sweep_failures": sweep_bad[:5],
    }
    attempted = len(plain["records"]) + len(traced_pass["records"])
    return values, attempted, bad, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_LIMIT_S)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (SRC / "vicsim" / "cli.py").is_file():
            raise BenchError(f"vicsim sources not found under {SRC}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "provenance": provenance()}
        OUT_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        try:
            if args.trace:
                values, attempted, bad, details = traced(args.workload, args.seed, tmp)
            else:
                values, attempted, bad, details = end_to_end(
                    args.workload, args.seed, args.seconds, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    info.update(details, failures=bad[:10], loadavg_end=list(os.getloadavg()))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1))
    for line in bad[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
