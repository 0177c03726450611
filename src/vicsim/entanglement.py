"""Concurrence of the projected qubit pair and its time dependence.

The concurrence is read in closed form for X-shaped states

    C = 2 max{0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)}.

Both Bell initial states evolve inside the X family here, so this
readout applies along every curve. The general spin-flip construction
(Wootters), the authority it is checked against, is the second route
and lives in vicsim.oracles.

Readers take a Bell kind or its string; the sudden-death search
``esd_time`` takes one start, a Bell kind or an explicit pair state.
Method 'paper' hands a Bell start to the published closed forms, whose
domain and readers are vicsim.published's.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bipartite import BellKind, bell_state, evolve_pair, project_to_qubits, steady_bell_x_elements
from .published import check_published, paper_readout, paper_signed
from .vsystem import VParams

# Entries allowed to be nonzero in an X-shaped 4x4 state.
_X_MASK = np.zeros((4, 4), dtype=bool)
_X_MASK[np.arange(4), np.arange(4)] = True
_X_MASK[np.arange(4), np.arange(4)[::-1]] = True

X_FORM_TOL = 1e-10

# The routes of a curve or a sudden-death search: the evolved pair, or the
# published closed forms (``published.check_published``).
METHODS = ("oracle", "paper")


class NotXForm(ValueError):
    """Input has weight outside the diagonal/antidiagonal X pattern."""


def x_branch_values(rho: np.ndarray) -> tuple[float, float]:
    """The two signed branch arguments of the X-state concurrence."""
    diag = np.clip(rho.diagonal().real, 0.0, None)
    inner = abs(rho[0, 3]) - math.sqrt(diag[1] * diag[2])
    outer = abs(rho[1, 2]) - math.sqrt(diag[0] * diag[3])
    return float(inner), float(outer)


def _check_x_form(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotXForm(f"expected a 4x4 matrix, got shape {rho.shape}")
    worst = float(np.max(np.abs(rho[~_X_MASK])))
    if worst > X_FORM_TOL:
        raise NotXForm(f"non-X entry of magnitude {worst:.3e}")
    return rho


def concurrence_x(rho: np.ndarray) -> float:
    """Closed-form concurrence for X-shaped states (both branches)."""
    rho = _check_x_form(rho)
    inner, outer = x_branch_values(rho)
    return 2.0 * max(0.0, inner, outer)


# The columns of a ConcurrenceCurve, in CSV order.
CURVE_COLUMNS = ("gamma_t", "concurrence", "rho14_abs", "rho23_abs", "rho22", "rho33",
                 "pre_norm_trace")


@dataclass(frozen=True)
class ConcurrenceCurve:
    """A concurrence curve as float arrays over its grid, one per CSV column:
    the concurrence, |rho14|, |rho23|, rho22 and rho33 of the normalized
    qubit block, and the trace it was normalized by."""

    gamma_t: np.ndarray
    concurrence: np.ndarray
    rho14_abs: np.ndarray
    rho23_abs: np.ndarray
    rho22: np.ndarray
    rho33: np.ndarray
    pre_norm_trace: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        """The arrays in CURVE_COLUMNS order."""
        return tuple(getattr(self, name) for name in CURVE_COLUMNS)


def _validate_grid(gamma_ts: np.ndarray) -> np.ndarray:
    grid = np.asarray(gamma_ts, dtype=float)
    if grid.size == 0:
        raise ValueError("time grid is empty")
    if grid[0] < 0:
        raise ValueError("time grid must start at gamma*t >= 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _signed_point(params: VParams, rho0: np.ndarray,
                  gamma_t: float) -> tuple[float, float, float, float, float, float]:
    """Signed concurrence 2 max(X branches) of the evolved, projected state
    (checked to be X-shaped) at gamma_t (params in units of gamma; math.inf
    reads the limit), then |rho14|, |rho23|, rho22 and rho33 of that state
    and its pre-normalization trace, all floats."""
    projected = project_to_qubits(evolve_pair(params, params, rho0, gamma_t))
    rho = _check_x_form(projected.rho)
    inner, outer = x_branch_values(rho)
    return (2.0 * max(inner, outer), float(abs(rho[0, 3])), float(abs(rho[1, 2])),
            float(rho[1, 1].real), float(rho[2, 2].real), projected.pre_norm_trace)


def _evolved_readout(params: VParams, rho0: np.ndarray,
                     gamma_ts: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Signed concurrence of the pair evolved from ``rho0`` at each of
    ``gamma_ts``, with the elements behind it, all arrays: the contract of
    ``published.paper_readout``, read one ``_signed_point`` per sample."""
    samples = np.array([_signed_point(params, rho0, gamma_t) for gamma_t in gamma_ts.tolist()])
    return samples[:, 0], dict(zip(CURVE_COLUMNS[2:], samples[:, 1:].T))


def _check_method(params: VParams, method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "paper":
        check_published(params)


def concurrence_curve(params: VParams, kind: BellKind | str, gamma_ts: np.ndarray,
                      method: str = "oracle") -> ConcurrenceCurve:
    """Concurrence of an evolving Bell state over a grid of gamma*t values.

    method 'oracle' evolves the pair and measures, one sample at a time.
    method 'paper' evaluates the published closed-form elements, in their
    domain only, over the whole grid at once, normalized by the trace read
    from the 2x2 no-jump propagator (``published.paper_readout``). Both
    compute with ``params.in_units_of_gamma()``, at gamma*t itself.
    """
    kind = BellKind(kind)
    grid = _validate_grid(gamma_ts)
    _check_method(params, method)
    params = params.in_units_of_gamma()
    if method == "paper":
        signed, elements = paper_readout(params, kind, grid)
    else:
        signed, elements = _evolved_readout(params, bell_state(kind), grid)
    # clamps -0.0 and NaN to 0.0, as max(0.0, signed) does
    concurrence = np.where(signed > 0.0, signed, 0.0)
    return ConcurrenceCurve(grid, concurrence, **elements)


def steady_concurrence(params: VParams, kind: BellKind | str) -> float:
    """Concurrence of the long-time projected Bell pair, read from U(infinity)
    by the Bell reader (``steady_bell_x_elements``), with no pair state."""
    x = steady_bell_x_elements(params, kind)
    return max(0.0, float(x.signed_concurrence[0]))


# The sudden-death search: a limit above 10 * ESD_THRESHOLD is asymptotically
# positive; else ESD_SAMPLES points of gamma_t in [0, ESD_HORIZON] are scanned.
ESD_THRESHOLD = 1e-12
ESD_HORIZON = 50.0
ESD_SAMPLES = 1001


@dataclass(frozen=True)
class EsdResult:
    """Outcome of the sudden-death search.

    kind is one of 'vanishes_at' (finite-time death, gamma_t_death set),
    'asymptotic_positive' (concurrence_limit set) or 'asymptotic_zero'.
    """

    kind: str
    gamma_t_death: float | None = None
    concurrence_limit: float | None = None


def esd_time(params: VParams, start: BellKind | str | np.ndarray, *,
             method: str = "oracle") -> EsdResult:
    """Locate entanglement sudden death, if any, on gamma_t in [0, ESD_HORIZON].

    ``start`` is a Bell kind (a BellKind or its string) or an explicit 9x9
    pair state. A long-time concurrence above 10 * ESD_THRESHOLD classifies
    as asymptotically positive. A Bell start under the oracle method takes
    that limit from U(infinity) through the Bell reader
    (``steady_concurrence``), with no pair state, and is answered from it
    alone: it never dies in finite time (see the derivation below), so it
    is otherwise asymptotically zero. An explicit start takes its limit
    from the scan's own readout of the evolved pair at gamma_t = infinity.

    Otherwise the signed X-branch argument is scanned (``_scan_for_death``).
    A Bell start under method 'paper' evolves nothing: its limit is the
    paper curve at the horizon, and its scan reads the published elements
    alone (``published.paper_signed``). An explicit start, which the
    published forms do not cover, takes method 'oracle' only. Every time
    is gamma*t, read with ``params.in_units_of_gamma()``.
    """
    _check_method(params, method)
    params = params.in_units_of_gamma()
    bell_start = isinstance(start, str)  # a BellKind is a str
    if bell_start:
        kind = BellKind(start)
    elif method == "paper":
        raise ValueError("published forms cover only the Bell starts: "
                         "an explicit start supports the oracle method only")
    if method == "paper":
        limit = max(0.0, float(paper_readout(params, kind, np.array([ESD_HORIZON]))[0][0]))
    elif bell_start:
        limit = steady_concurrence(params, kind)
    else:
        limit = max(0.0, _signed_point(params, start, math.inf)[0])
    if limit > 10.0 * ESD_THRESHOLD:
        return EsdResult("asymptotic_positive", concurrence_limit=limit)
    if bell_start and method == "oracle":
        # By the elements bipartite.bell_x_elements reads from U, the live
        # branch before normalisation is s P / 2 (psi) or s / 2 (phi),
        # s = |U11|^2: neither is a difference, and U11 is analytic in t
        # with U11(0) = 1, so its zeros are isolated instants: no finite-time
        # death exists at any (eta, p, omega), and a scan would only find
        # rounding noise.
        return EsdResult("asymptotic_zero")
    if method == "paper":
        return _scan_for_death(partial(paper_signed, params, kind))
    return _scan_for_death(lambda t: _evolved_readout(params, start, np.atleast_1d(t))[0])


def _scan_for_death(signed_at: Callable) -> EsdResult:
    """Scan ``signed_at(gamma_t)`` on ESD_SAMPLES points of [0, ESD_HORIZON].

    ``signed_at`` takes a gamma_t or an array of them, elementwise: the
    scan reads the whole grid in one call, the bisection one point a call.

    True finite-time death means the signed X-branch argument crosses
    zero, the (clamped) concurrence stays below ESD_THRESHOLD through the
    horizon, and some later sample is resolved below -ESD_THRESHOLD; a
    crossing that bounces back above the threshold is treated as
    numerical zero-touching and the search continues after the revival.
    A curve that never resolves a death decays asymptotically to zero.
    A start that is dead at gamma_t = 0 with no later sample above the
    threshold, as every separable start is (local channels keep it
    separable), vanishes at 0 whether or not its branch resolves below
    -ESD_THRESHOLD: it may be exactly 0 or underflow inside the threshold.
    The death time is bisected to 1e-10 between the last live sample and
    the first dead one.
    """
    grid = np.linspace(0.0, ESD_HORIZON, ESD_SAMPLES)
    signed = signed_at(grid)
    dead = signed <= 0.0
    if not dead.any():
        return EsdResult("asymptotic_zero")
    # Skip past any revival above threshold: death must persist to the horizon.
    alive = np.nonzero(np.maximum(signed, 0.0) > ESD_THRESHOLD)[0]
    start = 0 if alive.size == 0 else int(alive[-1]) + 1
    candidates = np.nonzero(dead[start:])[0]
    if candidates.size == 0:
        return EsdResult("asymptotic_zero")
    first = start + int(candidates[0])
    if first == 0:
        return EsdResult("vanishes_at", gamma_t_death=0.0)
    # As a revival must rise above threshold, a death must fall below it.
    if not (signed[first:] < -ESD_THRESHOLD).any():
        return EsdResult("asymptotic_zero")
    lo, hi = grid[first - 1], grid[first]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if signed_at(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-10:
            break
    return EsdResult("vanishes_at", gamma_t_death=float(hi))
