"""The benchmark's traffic runs in the suite: the first block of each
workload's argv stream (``perfbench/workloads.py``) at seeds 1 and 2, and
the steady sweep at seed 1, each through ``vicsim.cli.main`` in-process,
must exit 0 with nothing on stderr. A change that refuses a flag or a
value the benchmark sends fails here before it can fail the benchmark.
"""

import contextlib
import importlib.util
import io
import itertools
from pathlib import Path

import pytest

from vicsim.cli import main

# imported by path: perfbench is a directory of scripts, not a package
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

ARGVS = [argv for name in workloads.WORKLOADS for seed in (1, 2)
         for argv in itertools.islice(workloads.jobs(name, seed), workloads.block_size(name))]
ARGVS += workloads.steady_sweep(1)


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_benchmark_job_runs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()
