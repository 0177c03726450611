"""Spans around the public layer functions of vicsim, recorded from outside.

vicsim modules bind names with ``from .x import y``, so one function can
be reachable under several module namespaces (``propagate_channel`` in
``vicsim.vsystem``, ``vicsim.bipartite`` and ``vicsim.cli``). ``install``
replaces every binding of the original function object with one wrapper.
``cli.main`` is wrapped as the ``cli.main`` span, failed when it raises or
returns a nonzero exit code; it dispatches through its ``_COMMANDS`` dict,
whose entries are wrapped as the ``cli.run`` span. A target that no longer
exists is listed in ``absent`` and reports 0 calls.

Spans are kept in flat arrays (name, start, end, parent, job, failed) and
written out once, when the run ends. A run may end with the steady-state
domain sweep (``begin_sweep``): its spans count only toward the failure
metrics, so that calls and self times describe the workload alone.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped by ``install``; span name "module.function".
TARGETS = (
    ("qlinalg", "expm"),
    ("qlinalg", "tensor_product"),
    ("vsystem", "propagate_channel"),
    ("vsystem", "build_liouvillian"),
    ("vsystem", "dark_bright_channel"),
    ("vsystem", "apply_channel"),
    ("vsystem", "steady_channel"),
    ("bipartite", "evolve_pair"),
    ("bipartite", "project_to_qubits"),
    ("bipartite", "published_pair_elements"),
    ("entanglement", "concurrence_curve"),
    ("entanglement", "concurrence_x"),
    ("entanglement", "esd_time"),
)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.failed = bytearray()
        self.job_id = -1
        self.absent: list[str] = []
        self.liouvillian_params: set = set()
        self.sweep_from: int | None = None
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None, failed_result=None):
        """Return ``fn`` recording one span named ``name`` per call.

        A span is failed when the call raises or, given ``failed_result``,
        when that predicate holds for its return value.
        """
        nid = self._intern(name)
        start, end, parent, job = self.start, self.end, self.parent, self.job
        name_id, failed, stack, clock = self.name_id, self.failed, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            failed.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if failed_result is not None and failed_result(result):
                    failed[idx] = 1
                return result
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every namespace binding of each target in loaded vicsim modules,
        the ``cli._COMMANDS`` entries and ``vicsim.cli.main`` itself."""
        import vicsim.cli

        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "vicsim" or n.startswith("vicsim."))]
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules.get(f"vicsim.{module}"), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            observe = None
            if name == "vsystem.build_liouvillian":
                def observe(args):
                    if self.sweep_from is None:
                        self.liouvillian_params.add(args[0] if args else None)
            wrapper = self.wrap(name, original, observe)
            for m in loaded:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
        commands = getattr(vicsim.cli, "_COMMANDS", None)
        if isinstance(commands, dict):
            for key, fn in commands.items():
                commands[key] = self.wrap("cli.run", fn)
        else:
            self.absent.append("cli.run")
        vicsim.cli.main = self.wrap("cli.main", vicsim.cli.main, failed_result=lambda rc: rc != 0)

    def begin_sweep(self) -> None:
        """Spans recorded from now on belong to the steady-state sweep."""
        self.sweep_from = len(self.start)

    def summary(self, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, self time and failed calls per span name, over the first
        ``stop`` spans (all when None)."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "self_s": 0.0, "failed": 0} for name in self.names}
        for i, nid in enumerate(self.name_id[:stop]):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["failed"] += self.failed[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Workload spans named ``name`` that have a span named ``ancestor`` above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        count = 0
        for i, n in enumerate(self.name_id[:self.sweep_from]):
            if n != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values keyed by their BENCHMARK.json names.

        Calls and self times cover the workload's spans; failed counts cover
        the steady-state sweep as well.
        """
        workload, whole = self.summary(self.sweep_from), self.summary()
        empty = {"calls": 0, "self_s": 0.0, "failed": 0}
        metrics: dict[str, float] = {}
        for name in [f"{m}.{a}" for m, a in TARGETS] + ["cli.run", "cli.main"]:
            entry = dict(workload.get(name, empty), failed=whole.get(name, empty)["failed"])
            for field, value in entry.items():
                metrics[f"{name}.{field}"] = value
        builds = metrics["vsystem.build_liouvillian.calls"]
        metrics["vsystem.liouvillian_builds_per_params"] = (
            builds / len(self.liouvillian_params) if builds else 0.0)
        searches = metrics["entanglement.esd_time.calls"]
        metrics["entanglement.esd_pair_evals_per_search"] = (
            self.count_under("bipartite.evolve_pair", "entanglement.esd_time") / searches
            if searches else 0.0)
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as one gzipped JSON line, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, nid in enumerate(self.name_id):
                fh.write(json.dumps({
                    "name": self.names[nid], "start": self.start[i] - t0,
                    "end": self.end[i] - t0, "parent": self.parent[i],
                    "job": self.job[i], "failed": bool(self.failed[i]),
                }) + "\n")
