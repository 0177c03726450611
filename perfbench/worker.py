"""One workload pass in a fresh process: a closed loop, one client, one thread.

Runs the seeded job stream through ``vicsim.cli.main(argv)`` with the
output going to a temporary file. Only the call itself is timed; reading
back the rows the checker needs and appending the job's record to
``--records`` (one JSON line per job) happen between jobs, outside the
timed region. No per-job record stays in memory, so the process's peak
RSS does not grow with the number of jobs a run completes. A summary of
the pass goes to ``--out``.

    python3 perfbench/worker.py --workload full_vic --seed 1 --seconds 30 \\
        --tmp .perfbench/tmp --records .perfbench/tmp/jobs.jsonl \\
        --out .perfbench/tmp/pass.json [--blocks N] [--spans F] [--sweep F]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import resource
import time
import traceback

import workloads
from calib import REFERENCE_S, calibrate

CSV_COMMANDS = ("curve", "single")


def _extract(path: str, argv: list[str], key: str):
    """The part of a job's output the checker needs, or None if none was written."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    if argv[0] in CSV_COMMANDS:
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        n_rows = max(len(lines) - 1, 0)
        rows = {str(i): lines[1 + i] for i in workloads.sampled_rows(n_rows, key)}
        return {"header": lines[0] if lines else "", "n_rows": n_rows, "rows": rows}
    try:
        return {"json": json.loads(text)}
    except ValueError:
        return {"raw": text[:2000]}


def run_jobs(main, argv_list, out_path: str, key: str, seconds: float | None, emit,
             tracer=None, block: int = 1) -> tuple[int, float]:
    """Run jobs until ``argv_list`` ends or, at a multiple of ``block`` jobs,
    ``seconds`` of job time have passed. Returns (jobs run, job seconds).

    Each job's record goes to ``emit`` right after the job. The machine
    speed is calibrated between jobs: each record's ``speed`` is
    ``REFERENCE_S`` over the mean of the calibrations just before and after
    its job.

    A full garbage collection runs before each block, untimed. Every
    ``main`` call leaves cyclic garbage (its argument parser) that only a
    full collection frees, and those are rare; without it, the process's
    peak RSS would grow with the number of jobs run, and so with the
    program's speed.
    """
    count, busy = 0, 0.0
    before = calibrate()
    for index, argv in enumerate(argv_list):
        if index % block == 0:
            if seconds is not None and busy >= seconds:
                break
            gc.collect()
        if tracer is not None:
            tracer.job_id += 1
        err = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv + ["--output", out_path])
        except Exception:  # a traceback is a failed job, not a failed benchmark
            rc, error = None, traceback.format_exc()
        latency = time.perf_counter() - t0
        busy += latency
        after = calibrate()
        emit({
            "argv": argv, "rc": rc, "error": error, "stderr": err.getvalue()[-2000:],
            "latency_s": latency, "speed": 2.0 * REFERENCE_S / (before + after),
            "output": _extract(out_path, argv, f"{key}/{index}"),
        })
        count += 1
        before = after
    return count, busy


def _writer(fh):
    """``emit`` for ``run_jobs`` that appends each record to ``fh`` as a JSON line."""
    def emit(record: dict) -> None:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
    return emit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="run whole blocks of jobs until this much job time has passed")
    ap.add_argument("--blocks", type=int, help="run exactly this many blocks of the stream")
    ap.add_argument("--tmp", required=True, help="directory for job outputs")
    ap.add_argument("--records", required=True, help="JSON-lines file of the job records")
    ap.add_argument("--out", required=True, help="path of the JSON summary of the pass")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    ap.add_argument("--sweep", help="then run the steady-state domain sweep, records here")
    args = ap.parse_args()
    if (args.seconds is None) == (args.blocks is None):
        ap.error("give exactly one of --seconds and --blocks")

    import vicsim.cli

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()  # rebinds vicsim.cli.main to its traced wrapper

    block = workloads.block_size(args.workload)
    stream = workloads.jobs(args.workload, args.seed)
    if args.blocks is not None:
        stream = itertools.islice(stream, args.blocks * block)
    out_path = os.path.join(args.tmp, "job.out")
    key = f"{args.workload}/{args.seed}"
    with open(args.records, "w", encoding="utf-8") as fh:
        jobs, busy = run_jobs(vicsim.cli.main, stream, out_path, key, args.seconds,
                              _writer(fh), tracer, block)
    result = {
        "jobs": jobs,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.sweep:
        if tracer is not None:
            tracer.begin_sweep()
        with open(args.sweep, "w", encoding="utf-8") as fh:
            run_jobs(vicsim.cli.main, workloads.steady_sweep(args.seed), out_path,
                     f"sweep/{args.seed}", None, _writer(fh), tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
