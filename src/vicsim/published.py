"""The paper's printed closed forms, kept verbatim as an audit mode: their
domain (``check_published``), the paper curve and sudden-death readers
(``paper_readout``, ``paper_signed``) and the compare report (``audit``)."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bipartite import BellKind, _is_psi, bell_x_elements
from .vsystem import (
    VParams, _check_time, excited_state, no_jump_propagators, single_atom_states, steady_state,
    superposition_state,
)


class UnsupportedParams(ValueError):
    """Parameters outside the validity domain of the published closed forms."""


def check_published(params: VParams) -> None:
    """Raise UnsupportedParams outside the domain of the published closed
    forms: p = 1 and omega1 = omega2 (a common frequency is a choice of frame)."""
    if params.p != 1.0:
        raise UnsupportedParams("published closed forms require p = 1")
    if params.omega1 != params.omega2:
        raise UnsupportedParams("published closed forms require omega1 = omega2")


class PublishedSingleAtom(NamedTuple):
    """The single-atom closed-form elements: scalars at a time, arrays at many."""

    rho11: float | np.ndarray
    rho33: float | np.ndarray
    rho13: complex | np.ndarray


def _bright_decay(params: VParams, t: float | np.ndarray) -> float | np.ndarray:
    """x = exp(-bright_rate t) of the published forms, at a time or an array
    of times, each non-negative: t = math.inf gives 0."""
    _check_time(t if isinstance(t, float) else np.min(t, initial=0.0))  # NaN if any is NaN
    with np.errstate(over="ignore"):  # rate * t overflows to inf, whose exp(-inf) = 0 is right
        return np.exp(-params.bright_rate * t)


def published_single_atom(params: VParams, rho0: np.ndarray,
                          t: float | np.ndarray) -> PublishedSingleAtom:
    """Evaluate the published single-atom closed forms verbatim at t, a time
    or an array of times.

    Transcription-faithful: the expressions are reproduced exactly as
    printed for the maximal-interference, degenerate case, with no
    correction applied. They close on the master equation only at
    eta = 1; deviations elsewhere are surfaced by ``audit``, never hidden.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    eta2 = params.eta**2
    x = _bright_decay(params, t)
    x2 = x * x
    # the symmetric and antisymmetric excited weights: al + be is the excited population
    al = 0.5 * (rho0[0, 0] + rho0[1, 1] + rho0[0, 1] + rho0[1, 0]).real
    be = 0.5 * (rho0[0, 0] + rho0[1, 1] - rho0[0, 1] - rho0[1, 0]).real
    rho11 = (
        0.5 * x * (rho0[0, 0] - rho0[1, 1]).real
        + 0.5 * (2.0 / (1.0 + eta2) * x2 - (1.0 - eta2) / (1.0 + eta2) * x) * al
        + 0.5 * (2.0 * (eta2 / (1.0 + eta2)) - (1.0 - eta2) / (1.0 + eta2) * x) * be
    )
    rho33 = 1.0 - x2 * al - be
    rho13 = ((eta2 + x) * rho0[0, 2] - params.eta * (1.0 - x) * rho0[1, 2]) / (1.0 + eta2)
    return PublishedSingleAtom(rho11, rho33, rho13)


def published_pair_elements(params: VParams, kind: BellKind | str,
                            t: float | np.ndarray) -> dict[str, float | np.ndarray]:
    """Published closed-form matrix elements of the projected pair state at
    t, a time or an array of times (numpy scalars or arrays).

    Values are unnormalized (the printed forms are divided by the
    projected trace only at readout). For the doubly-excited Bell state
    the published elements are rho11, rho22 = rho33 and rho14; for the
    single-excitation Bell state only rho23 is given. rho44 is never
    printed: the readout takes the trace from ``bell_x_elements``.
    Transcription-faithful: known internal inconsistencies of the printed
    forms (the rho11 normalization at t = 0, the rho22 long-time limit
    away from eta = 1) are reproduced as printed and surfaced by
    ``audit``. Every term is divided by 1 + eta^2 before anything
    is squared, so the forms stay finite at any valid eta. Powers of x
    are products, so a time gives the same bits alone as in an array.
    """
    eta2 = params.eta**2
    e = 1.0 + eta2
    x = _bright_decay(params, t)
    x2 = x * x
    x3, x4 = x2 * x, x2 * x2
    # psi's rho14 and phi's rho23 are printed as the same form
    root = (eta2 + x) / e
    coherence = 0.5 * root * root
    if _is_psi(kind):
        # the printed polynomials over 8 (1 + eta^2), term by term, so that no
        # partial sum exceeds rho11 itself; the x^2 coefficient
        # (1 + 4 eta^2 + eta^4)/(1 + eta^2) is e + 2 eta^2/e
        a = eta2 / e
        rho11 = (0.125 * eta2 * a + 0.125 * x4 / e + 0.25 * x3 + 0.125 * (e + 2.0 * a) * x2
                 + 0.25 * eta2 * x)
        rho22 = 0.125 * ((eta2 - x4 + (1.0 - eta2) * x2) / e + x - x3)
        return {"rho11": rho11, "rho22": rho22, "rho33": rho22, "rho14": coherence}
    return {"rho23": coherence}


def psi_ratio(params: VParams) -> float:
    """The printed long-time |rho14| / sqrt(rho22 rho33) of the psi start."""
    return 4.0 * (params.eta**2 / (1.0 + params.eta**2))


def paper_readout(params: VParams, kind: BellKind,
                  gamma_ts: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Signed concurrence of the published elements at each of ``gamma_ts``,
    with the elements behind it, all arrays (params in units of gamma).

    The published forms are normalized by the projected trace, and phi's
    rho22 and rho33 (never printed) are read, by ``bell_x_elements`` from
    the stack of 2x2 no-jump propagators, with no pair evolution. No trace
    is near zero: psi's is at least its rho44 >= 1/2, and phi's,
    1 - |U21|^2, is at least 3/4 at p = 1, where |U21| <= eta / (1 + eta^2).
    """
    pair = bell_x_elements(no_jump_propagators(params, gamma_ts), kind)
    trace = pair.trace
    pub = published_pair_elements(params, kind, gamma_ts)
    signed, elements = _branch(pub, kind, trace)
    if kind is BellKind.PHI:
        elements.update(rho22=pair.rho22 / trace, rho33=pair.rho33 / trace)
    elements["pre_norm_trace"] = trace
    return signed, elements


def paper_signed(params: VParams, kind: BellKind,
                 gamma_t: float | np.ndarray) -> float | np.ndarray:
    """The sign of the paper curve at gamma_t, a time or an array of times:
    the trace is positive, so the unnormalised branch has that sign."""
    return _branch(published_pair_elements(params, kind, gamma_t), kind, 1.0)[0]


def _branch(pub: dict, kind: BellKind, trace: float) -> tuple[float, dict]:
    """Signed concurrence of the published elements divided by ``trace``, and
    the divided elements it was read from, scalars or arrays as ``pub`` holds."""
    if kind is BellKind.PSI:
        rho14, rho22, rho33 = (pub[key] / trace for key in ("rho14", "rho22", "rho33"))
        elements = {"rho14_abs": rho14, "rho23_abs": np.zeros_like(rho14), "rho22": rho22,
                    "rho33": rho33}
        return 2.0 * (rho14 - np.sqrt(np.maximum(rho22, 0.0) * np.maximum(rho33, 0.0))), elements
    # The doubly-excited population is identically zero for this initial
    # state, so the outer branch reduces to |rho23|.
    rho23 = pub["rho23"] / trace
    return 2.0 * rho23, {"rho14_abs": np.zeros_like(rho23), "rho23_abs": rho23}


# Times per chunk of the compare grid: keeps its stacked temporaries near
# 0.6 MB at any --steps, where the whole grid at once grows without bound.
COMPARE_CHUNK = 256

# The audited elements of each report section, in report order.
_COMPARE_SECTIONS = {
    "excited": ("rho11", "rho33", "rho13"),
    "superposition": ("rho11", "rho33", "rho13"),
    "psi": ("rho14", "rho22", "rho33", "rho11_half_printed"),
    "phi": ("rho23",),
}


def _compare_deviations(params: VParams, times: np.ndarray) -> np.ndarray:
    """max |published - oracle| of each audited element over ``times``, in
    _COMPARE_SECTIONS order.

    One stack of no-jump propagators U over ``times``: both single-atom
    starts are read from it by ``single_atom_states`` and both Bell pairs
    by ``bell_x_elements``.
    """
    u = no_jump_propagators(params, times)
    deviations = []
    for rho0 in (excited_state(), superposition_state()):
        pub = published_single_atom(params, rho0, times)
        rho = single_atom_states(u, rho0)
        deviations += [pub.rho11 - rho[:, 0, 0].real, pub.rho33 - rho[:, 2, 2].real,
                       pub.rho13 - rho[:, 0, 2]]
    psi = bell_x_elements(u, BellKind.PSI)
    pub = published_pair_elements(params, BellKind.PSI, times)
    deviations += [pub["rho14"] - psi.rho14_abs, pub["rho22"] - psi.rho22,
                   pub["rho33"] - psi.rho33, pub["rho11"] / 2.0 - psi.rho11]
    phi = bell_x_elements(u, BellKind.PHI)
    pub = published_pair_elements(params, BellKind.PHI, times)
    deviations.append(pub["rho23"] - phi.rho23_abs)
    return np.abs(deviations).max(axis=1)


def audit(params: VParams, times: np.ndarray) -> dict:
    """The sections of the compare report: the published closed forms
    against the oracle evolution over ``times``, COMPARE_CHUNK at a time.

    The doubly-excited published element is known to be twice the
    correct value at t = 0, so its deviation is measured against half
    the printed form and the printed t = 0 value is flagged alongside.
    """
    worst = np.max([_compare_deviations(params, times[i:i + COMPARE_CHUNK])
                    for i in range(0, times.size, COMPARE_CHUNK)], axis=0)
    values = iter(worst.tolist())
    sections = {name: {key: next(values) for key in keys} for name, keys in _COMPARE_SECTIONS.items()}
    oracle_inf = float(steady_state(params, excited_state())[0, 0].real)
    published_inf = published_single_atom(params, excited_state(), math.inf).rho11
    printed_t0 = published_pair_elements(params, BellKind.PSI, 0.0)["rho11"]
    return {
        "single_atom": {
            "excited": sections["excited"],
            "superposition": sections["superposition"],
            "rho11_infinity": {"published": published_inf, "oracle": oracle_inf,
                               "deviation": abs(published_inf - oracle_inf)},
        },
        "pair_psi": {**sections["psi"], "rho11_printed_at_t0": printed_t0,
                     "rho11_required_at_t0": 0.5},
        "pair_phi": sections["phi"],
    }
