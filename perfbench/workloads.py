"""Seeded CLI job streams for the vicsim benchmark.

Each workload is an endless stream of argv lists for ``vicsim.cli.main``;
the same (workload, seed) always yields the same stream. Jobs come in
blocks with a fixed mix of job types. Inside a block the grid sizes are
stratified (one draw per stratum of the range, in shuffled order), so
every stretch of a few blocks covers the same spread of job costs and a
run's throughput and percentiles depend little on the seed.

The generators only build argv lists: they never import vicsim, and
every flag a job relies on is given explicitly, so the output checker
needs no knowledge of the CLI defaults.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

BELLS = ("psi", "phi")
SINGLE_INITIAL = ("excited", "ground", "superposition")

# Where the seed's time-doubling steady-state search converges for p < 1
# (ROADMAP item 1): eta = 0 for every p, and eta in [0.8, 1.2] for
# p <= 0.35. Steady and esd jobs at p < 1 stay inside it, because the
# benchmark runs only jobs that succeed; the whole domain is probed by
# ``steady_sweep`` instead and reported as a failure share.
CONVERGENT_ETA = (0.8, 1.2)
CONVERGENT_P_MAX = 0.35

Job = Callable[[random.Random, float], list[str]]


def _num(x: float) -> str:
    return repr(float(x))


def _steps(lo: int, hi: int, u: float) -> str:
    return str(lo + int((hi - lo) * u))


def _near_one(rng: random.Random) -> float:
    return 1.0 - 10.0 ** -rng.randint(3, 9)


def _partial_p(rng: random.Random) -> float:
    """p in [0, 1): exact zeros and values within 1e-3..1e-9 of one included."""
    r = rng.random()
    if r < 0.15:
        return 0.0
    if r < 0.3:
        return _near_one(rng)
    return rng.random()


def _common(rng: random.Random, eta: float, p: float) -> list[str]:
    return ["--gamma", _num(rng.uniform(0.5, 2.0)), "--eta", _num(eta), "--p", _num(p)]


def _partial_curve(rng: random.Random, u: float) -> list[str]:
    return (["curve"] + _common(rng, rng.uniform(0.0, 3.0), _partial_p(rng))
            + ["--bell", rng.choice(BELLS), "--method", "oracle",
               "--t-max", _num(rng.uniform(2.0, 20.0)), "--steps", _steps(10, 110, u)])


def _partial_single(rng: random.Random, u: float) -> list[str]:
    return (["single"] + _common(rng, rng.uniform(0.0, 3.0), _partial_p(rng))
            + ["--initial", rng.choice(SINGLE_INITIAL), "--method", "oracle",
               "--t-max", _num(rng.uniform(2.0, 20.0)), "--steps", _steps(10, 150, u)])


def _full_curve(method: str) -> Job:
    def job(rng: random.Random, u: float) -> list[str]:
        return (["curve"] + _common(rng, rng.uniform(0.0, 3.0), 1.0)
                + ["--bell", rng.choice(BELLS), "--method", method,
                   "--t-max", _num(rng.uniform(5.0, 50.0)), "--steps", _steps(300, 1200, u)])
    return job


def _full_single(rng: random.Random, u: float) -> list[str]:
    return (["single"] + _common(rng, rng.uniform(0.0, 3.0), 1.0)
            + ["--initial", rng.choice(SINGLE_INITIAL), "--method", "oracle",
               "--t-max", _num(rng.uniform(5.0, 50.0)), "--steps", _steps(100, 800, u)])


def _full_compare(rng: random.Random, u: float) -> list[str]:
    return (["compare"] + _common(rng, rng.uniform(0.0, 3.0), 1.0)
            + ["--t-max", _num(rng.uniform(2.0, 20.0)), "--steps", _steps(40, 240, u)])


def _convergent_params(rng: random.Random) -> tuple[float, float]:
    """(eta, p) with p < 1 and eta > 0 where the seed's steady search converges."""
    return rng.uniform(*CONVERGENT_ETA), rng.uniform(0.0, CONVERGENT_P_MAX)


def _decoupled_params(rng: random.Random) -> tuple[float, float]:
    """eta = 0 (no umbrella decay) at any p < 1, including p = 0 and p near 1."""
    return 0.0, rng.choice([0.0, rng.random(), _near_one(rng)])


def _esd(params: Callable, bell: str | None = None, method: str = "oracle",
         initial: str | None = None) -> Job:
    def job(rng: random.Random, u: float) -> list[str]:
        eta, p = params(rng)
        return (["esd"] + _common(rng, eta, p)
                + ["--bell", bell or rng.choice(BELLS), "--method", method]
                + (["--initial", initial] if initial else []))
    return job


def _full_params(lo: float, hi: float) -> Callable:
    return lambda rng: (rng.uniform(lo, hi), 1.0)


def _steady(rng: random.Random, u: float) -> list[str]:
    if u < 0.5:
        eta, p = rng.uniform(0.0, 3.0), 1.0
    elif u < 0.6:
        eta, p = _decoupled_params(rng)
    else:
        eta, p = _convergent_params(rng)
    return ["steady"] + _common(rng, eta, p) + ["--bell", rng.choice(BELLS)]


# Block composition of each workload: (job type, jobs per block).
BLOCKS: dict[str, list[tuple[Job, int]]] = {
    "partial_vic": [(_partial_curve, 5), (_partial_single, 3)],
    "full_vic": [
        (_full_curve("oracle"), 2),
        (_full_curve("paper"), 1),
        (_full_single, 3),
        (_full_compare, 2),
    ],
    "longtime_search": [
        (_esd(_convergent_params, "psi"), 2),
        (_esd(_convergent_params, "phi"), 1),
        (_esd(_decoupled_params), 1),
        (_esd(_full_params(0.0, 3.0), initial="product"), 1),
        (_esd(_full_params(0.05, 0.45), "psi", "paper"), 1),  # published forms die: scan
        (_esd(_full_params(0.6, 3.0), method="paper"), 1),
        (_esd(_full_params(0.3, 3.0)), 1),
        (_steady, 10),
    ],
}

WORKLOADS = tuple(BLOCKS)


def block_size(workload: str) -> int:
    return sum(count for _, count in BLOCKS[workload])


# Blocks in each pass of a traced run: a fixed prefix of the stream, so call
# counts and ratios repeat exactly for a seed.
TRACE_BLOCKS = {"partial_vic": 16, "full_vic": 6, "longtime_search": 3}


def _block(workload: str, seed: int, index: int) -> list[list[str]]:
    rng = random.Random(f"{workload}/{seed}/{index}")
    block = []
    for make, count in BLOCKS[workload]:
        strata = list(range(count))
        rng.shuffle(strata)
        block += [make(rng, (s + rng.random()) / count) for s in strata]
    rng.shuffle(block)
    return block


def jobs(workload: str, seed: int) -> Iterator[list[str]]:
    """Endless argv stream of ``workload`` for ``seed``."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    index = 0
    while True:
        yield from _block(workload, seed, index)
        index += 1


def steady_sweep(seed: int, count: int = 60) -> list[list[str]]:
    """``steady`` jobs over the whole domain eta in [0, 3], p in [0, 1].

    Probes the seed's non-converging steady-state search (ROADMAP item 1)
    without making it part of a timed workload.
    """
    rng = random.Random(f"steady_sweep/{seed}")
    out = []
    for i in range(count):
        p = 1.0 if i % 6 == 0 else (i + rng.random()) / count
        out.append(["steady"] + _common(rng, rng.uniform(0.0, 3.0), p)
                   + ["--bell", BELLS[i % 2]])
    return out


def sampled_rows(n_rows: int, key: str, interior: int = 2) -> list[int]:
    """Row indices of a CSV output that the checker compares: first, last
    and ``interior`` seeded rows in between."""
    if n_rows <= 0:
        return []
    rng = random.Random(f"rows/{key}")
    rows = {0, n_rows - 1}
    rows.update(rng.randrange(n_rows) for _ in range(interior))
    return sorted(rows)
