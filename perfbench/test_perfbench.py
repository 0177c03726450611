"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import copy
import itertools
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _prefix(workload, seed, n=64):
    return list(itertools.islice(workloads.jobs(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _prefix(workload, 7) == _prefix(workload, 7)
    assert _prefix(workload, 7) != _prefix(workload, 8)
    assert all(isinstance(a, str) for argv in _prefix(workload, 7) for a in argv)
    assert workloads.steady_sweep(3) == workloads.steady_sweep(3)


def test_partial_vic_covers_p_zero_and_p_near_one():
    ps = {check.parse_argv(argv)[1]["p"] for argv in _prefix("partial_vic", 1, 400)}
    assert 0.0 in ps
    assert {1.0 - 1e-3, 1.0 - 1e-9} <= ps
    assert max(ps) < 1.0


@pytest.mark.parametrize("n", list(range(20, 130)) + [199, 200, 201, 999, 1000, 1001, 10000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float((i * 7919) % n) for i in range(n)]
    pct, value = run.tail_percentile(values)
    assert sum(v > value for v in values) >= run.TAIL_BEYOND
    higher = [p for p in run.TAIL_LADDER if p > pct]
    if higher:  # the next percentile up would leave fewer than ten
        assert run.nearest_rank(sorted(values), min(higher))[1] < run.TAIL_BEYOND


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile([1.0] * 19)


def test_self_times_on_synthetic_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     a1 [2, 3]
    #   3   b  [5, 7]
    #   4   c  [6.5, 8]  (overlaps b: covered once)
    start = [0.0, 1.0, 2.0, 5.0, 6.5]
    end = [10.0, 4.0, 3.0, 7.0, 8.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([10 - 3 - 3, 2, 1, 2, 1.5])


def test_tracer_records_nesting_and_failures():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = tracer.wrap("inner", inner)
    outer_w = tracer.wrap("outer", lambda x: inner_w(x) + inner_w(x))
    assert outer_w(2) == 4
    with pytest.raises(ValueError):
        outer_w(-1)
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 3
    assert summary["outer"]["failed"] == 1 and summary["inner"]["failed"] == 1
    assert list(tracer.parent) == [-1, 0, 0, -1, 3]
    assert tracer.count_under("inner", "outer") == 3


@pytest.fixture
def restore_vicsim():
    import vicsim.cli

    modules = {n: m for n, m in sys.modules.items() if n == "vicsim" or n.startswith("vicsim.")}
    saved = {n: dict(vars(m)) for n, m in modules.items()}
    commands = dict(vicsim.cli._COMMANDS)
    yield
    for n, m in modules.items():
        vars(m).clear()
        vars(m).update(saved[n])
    vicsim.cli._COMMANDS.clear()
    vicsim.cli._COMMANDS.update(commands)


def test_install_patches_every_namespace(restore_vicsim, tmp_path):
    import vicsim.bipartite
    import vicsim.cli
    import vicsim.vsystem

    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == []
    wrapped = vicsim.vsystem.propagate_channel
    assert vicsim.cli.propagate_channel is wrapped and vicsim.bipartite.propagate_channel is wrapped
    out = str(tmp_path / "out.csv")
    assert vicsim.cli.main(["single", "--p", "1", "--steps", "3", "--output", out]) == 0
    metrics = tracer.layer_metrics()
    assert metrics["vsystem.propagate_channel.calls"] == 3
    assert metrics["vsystem.dark_bright_channel.calls"] == 3
    assert metrics["qlinalg.expm.calls"] == 0
    assert metrics["cli.run.calls"] == 1
    assert metrics["cli.main.calls"] == 1 and metrics["cli.main.failed"] == 0


def test_missing_function_is_absent_with_zero_calls(restore_vicsim):
    import vicsim.vsystem

    del vicsim.vsystem.dark_bright_channel
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["vsystem.dark_bright_channel"]
    assert tracer.layer_metrics()["vsystem.dark_bright_channel.calls"] == 0


def _records(tmp_path, argvs):
    import vicsim.cli

    out, records = str(tmp_path / "job.out"), []
    count, _ = worker.run_jobs(vicsim.cli.main, argvs, out, "selftest", None, records.append)
    assert count == len(records) == len(argvs)
    return records


def test_worker_streams_records_to_a_file(tmp_path):
    import vicsim.cli

    path = tmp_path / "jobs.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        count, busy = worker.run_jobs(vicsim.cli.main, [CURVE, STEADY], str(tmp_path / "job.out"),
                                      "selftest", None, worker._writer(fh))
    records = run.read_records(path)
    assert count == 2 and busy > 0.0
    assert [r["argv"] for r in records] == [CURVE, STEADY]
    assert [check.check_job(r) for r in records] == [None, None]


def test_failed_counts_include_the_sweep_but_calls_do_not(restore_vicsim, tmp_path):
    import vicsim.cli

    tracer = spans.Tracer()
    tracer.install()
    out, records = str(tmp_path / "job.out"), []
    worker.run_jobs(vicsim.cli.main, [STEADY], out, "selftest", None, records.append, tracer)
    tracer.begin_sweep()
    no_convergence = ["steady", "--p", "0", "--eta", "2", "--bell", "psi"]
    worker.run_jobs(vicsim.cli.main, [no_convergence], out, "selftest", None, records.append,
                    tracer)
    assert records[1]["rc"] == 2 and "not stationary" in records[1]["stderr"]
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.failed"] == 1
    assert metrics["vsystem.steady_channel.failed"] == 1
    assert metrics["cli.main.calls"] == 1 and metrics["vsystem.steady_channel.calls"] == 1
    assert metrics["vsystem.build_liouvillian.calls"] == 0
    assert metrics["vsystem.liouvillian_builds_per_params"] == 0.0
    assert tracer.job[-1] == 1


CURVE = ["curve", "--gamma", "1.3", "--eta", "1.7", "--p", "0.4", "--bell", "psi",
         "--method", "oracle", "--t-max", "6.0", "--steps", "9"]
STEADY = ["steady", "--gamma", "0.9", "--eta", "1.4", "--p", "1.0", "--bell", "phi"]


def _perturb_csv(record):
    bad = copy.deepcopy(record)
    key = sorted(bad["output"]["rows"], key=int)[-1]
    fields = bad["output"]["rows"][key].split(",")
    fields[1] = f"{float(fields[1]) + 1e-6:.12e}"
    bad["output"]["rows"][key] = ",".join(fields)
    return bad


def test_checker_accepts_real_output_and_rejects_perturbed_row(tmp_path):
    curve, steady = _records(tmp_path, [CURVE, STEADY])
    assert check.check_job(curve) is None
    assert check.check_job(steady) is None
    assert "concurrence" in check.check_job(_perturb_csv(curve))
    bad = copy.deepcopy(steady)
    bad["output"]["json"]["concurrence_infinity"] += 1e-6
    assert check.check_job(bad) is not None


def test_checker_rejects_nonzero_exit_and_traceback(tmp_path):
    (record,) = _records(tmp_path, [STEADY[:6] + ["1.5"] + STEADY[7:]])  # p outside [0, 1]
    assert record["rc"] == 2
    assert check.check_job(record).startswith("exit 2")
    (record,) = _records(tmp_path, [CURVE])
    record["rc"], record["error"] = None, "Traceback (most recent call last):\nKeyError: 'x'"
    assert check.check_job(record).startswith("traceback")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_block_of_each_workload_checks_clean(workload, tmp_path):
    block = len(workloads._block(workload, 5, 0))
    records = _records(tmp_path, _prefix(workload, 5, block))
    assert [check.check_job(r) for r in records] == [None] * block


def test_unresolved_esd_death_time_is_noted_not_failed(tmp_path):
    # psi at p < 1 reports a death time where the concurrence is rounding
    # noise, so the reference cannot confirm the sign change; the published
    # psi forms at p = 1 and small eta die with a resolved sign change.
    unresolved = ["esd", "--gamma", "1.0", "--eta", "1.0", "--p", "0.2", "--bell", "psi",
                  "--method", "oracle"]
    resolved = ["esd", "--gamma", "1.0", "--eta", "0.2", "--p", "1.0", "--bell", "psi",
                "--method", "paper"]
    for argv, count in ((unresolved, 1), (resolved, 0)):
        (record,) = _records(tmp_path, [argv])
        assert record["output"]["json"]["kind"] == "vanishes_at"
        notes = Counter()
        assert check.check_job(record, notes) is None
        assert notes[check.ESD_UNCONFIRMED] == count
