"""Benchmark-owned reference for every job's output.

The reference is built here from the Lindblad terms: a row-major 9x9
single-atom Liouvillian, ``scipy.linalg.expm``, and the Kronecker pair
map. It never calls vicsim's propagators, so it stays valid while they
are rewritten. Long-time values use the analytic limits: for p < 1 every
excitation ends on the ground level, at p = 1 the dark state
(eta|1> - |2>)/sqrt(1 + eta^2) and its coherence with the ground level
survive. The published closed forms needed to check ``--method paper``
and ``compare`` are transcribed here as well.

``check_job`` returns None for a correct job and a one-line reason
otherwise; a nonzero exit or a traceback is a failure too. A check may
also note something about a correct job (``ESD_UNCONFIRMED``), which
``check_job`` counts when given a counter.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import scipy.linalg

ATOL = 1e-9
RTOL = 1e-9
ESD_HORIZON = 50.0
ESD_THRESHOLD = 1e-12
ESD_SIDE = 1e-5  # distance from a reported death time at which the sign is read
CURVE_HEADER = "gamma_t,concurrence,rho14_abs,rho23_abs,rho22,rho33,pre_norm_trace"
SINGLE_HEADER = "gamma_t,rho11,rho22,rho33,rho13_re,rho13_im"
QUBIT_BLOCK = [0, 2, 6, 8]  # |1A1B>, |1A3B>, |3A1B>, |3A3B> in the 9-level pair space
E1, E2, G = 0, 1, 2  # levels |1>, |2>, |3> of one atom

FLOAT_FLAGS = ("gamma", "eta", "p", "t_max")
# Note on a correct esd job whose reported death time the reference cannot
# confirm: the sign on one side of it is within ESD_THRESHOLD of zero.
ESD_UNCONFIRMED = "esd_unconfirmed"


class Mismatch(Exception):
    """Output differs from the reference."""


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """Command and flag values of a generated job (every flag is explicit)."""
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:].replace("-", "_")
        opts[key] = float(value) if key in FLOAT_FLAGS else int(value) if key == "steps" else value
    return argv[0], opts


# ------------------------------------------------------------------ dynamics

def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def liouvillian(gamma: float, eta: float, p: float) -> np.ndarray:
    """Row-major generator of rate*(2 J rho K^+ - {K^+ J, rho}) summed over the decay terms."""
    a31, a32, eye = _unit(G, E1), _unit(G, E2), np.eye(3)
    g12 = p * eta * gamma
    terms = ((gamma, a31, a31), (eta**2 * gamma, a32, a32), (g12, a31, a32), (g12, a32, a31))
    out = np.zeros((9, 9), dtype=complex)
    for rate, jump, partner in terms:
        kj = partner.conj().T @ jump
        out += rate * (2 * np.kron(jump, partner.conj()) - np.kron(kj, eye) - np.kron(eye, kj.T))
    return out


def channels(opts: dict, gamma_ts) -> np.ndarray:
    """Single-atom propagators at each gamma*t, shape (n, 9, 9)."""
    ts = np.atleast_1d(np.asarray(gamma_ts, dtype=float)) / opts["gamma"]
    return scipy.linalg.expm(liouvillian(opts["gamma"], opts["eta"], opts["p"])[None] * ts[:, None, None])


def pair_map(chan: np.ndarray, rho_pair: np.ndarray) -> np.ndarray:
    """(Lambda ox Lambda) on a 9x9 pair matrix, for a batch of channels."""
    c = chan.reshape(-1, 3, 3, 3, 3)
    t = rho_pair.reshape(3, 3, 3, 3)
    return np.einsum("zijmn,zklpq,mpnq->zikjl", c, c, t).reshape(-1, 9, 9)


def pair_state(bell: str | None) -> np.ndarray:
    """Bell state (psi: |11>+|33>, phi: |13>+|31>) or, for None, the product |1A1B>."""
    v = np.zeros(9, dtype=complex)
    idx = {"psi": (0, 8), "phi": (2, 6), None: (0,)}[bell]
    v[list(idx)] = 1.0 / math.sqrt(len(idx))
    return np.outer(v, v.conj())


def project(rho_pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized qubit blocks and their traces, batched."""
    block = rho_pair[..., QUBIT_BLOCK, :][..., QUBIT_BLOCK]
    trace = np.einsum("...ii->...", block).real
    return block / trace[..., None, None], trace


def signed_x(rho: np.ndarray) -> np.ndarray:
    """2 max(|rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)), batched."""
    d = np.clip(np.einsum("...ii->...i", rho).real, 0.0, None)
    inner = np.abs(rho[..., 0, 3]) - np.sqrt(d[..., 1] * d[..., 2])
    outer = np.abs(rho[..., 1, 2]) - np.sqrt(d[..., 0] * d[..., 3])
    return 2.0 * np.maximum(inner, outer)


def steady_map(eta: float, p: float) -> np.ndarray:
    """Infinite-time single-atom channel as a 9x9 matrix (degenerate levels)."""
    def limit(rho):
        out = np.zeros((3, 3), dtype=complex)
        if p == 1.0:
            d = np.array([eta, -1.0, 0.0]) / math.sqrt(1.0 + eta**2)
            dark = d @ rho @ d
            out += dark * np.outer(d, d)
            out[:, G] += (d @ rho[:, G]) * d  # <D|rho|g> |D><g|
            out[G, :] += (rho[G, :] @ d) * d  # <g|rho|D> |g><D|
            out[G, G] += np.trace(rho) - dark
        elif eta == 0.0:  # |2> is decoupled: its population and coherence with |3> stay
            out[E2, E2], out[E2, G], out[G, E2] = rho[E2, E2], rho[E2, G], rho[G, E2]
            out[G, G] = rho[E1, E1] + rho[G, G]
        else:
            out[G, G] = np.trace(rho)
        return out

    cols = [limit(_unit(m, n)).reshape(9) for m in range(3) for n in range(3)]
    return np.array(cols).T


def steady_projected(opts: dict, rho_pair: np.ndarray) -> tuple[np.ndarray, float]:
    rho, trace = project(pair_map(steady_map(opts["eta"], opts["p"]), rho_pair))
    return rho[0], float(trace[0])


# --------------------------------------------------------- published forms

def published_pair(eta: float, gamma_t, bell: str) -> dict:
    """Published projected-pair elements (unnormalized), as printed."""
    e2 = eta**2
    x = np.exp(-(1.0 + e2) * np.asarray(gamma_t, dtype=float))
    rho14 = (e2 + x) ** 2 / (2.0 * (1.0 + e2) ** 2)
    if bell == "phi":
        return {"rho23": rho14}
    pref = 1.0 / (8.0 * (1.0 + e2))
    rho11 = pref * (e2**2 + x**4 + 2 * (1 + e2) * x**3 + (1 + e2**2 + 4 * e2) * x**2
                    + 2 * e2 * (1 + e2) * x)
    rho22 = pref * (e2 - x**4 - (1 + e2) * x**3 + (1 - e2) * x**2 + (1 + e2) * x)
    return {"rho11": rho11, "rho22": rho22, "rho14": rho14}


def published_single(eta: float, gamma_t, rho0: np.ndarray) -> tuple:
    """Published single-atom rho11, rho33, rho13 as printed."""
    e2 = eta**2
    x = np.exp(-(1.0 + e2) * np.asarray(gamma_t, dtype=float))
    alpha = 0.5 * (rho0[0, 0] + rho0[1, 1] + rho0[0, 1] + rho0[1, 0]).real
    beta = 0.5 * (rho0[0, 0] + rho0[1, 1] - rho0[0, 1] - rho0[1, 0]).real
    rho11 = (0.5 * x * (rho0[0, 0] - rho0[1, 1]).real
             + 0.5 * (2 / (1 + e2) * x**2 - (1 - e2) / (1 + e2) * x) * alpha
             + 0.5 * (2 * e2 / (1 + e2) - (1 - e2) / (1 + e2) * x) * beta)
    rho33 = 1.0 - x**2 * alpha - beta
    rho13 = ((e2 + x) * rho0[0, 2] - eta * (1 - x) * rho0[1, 2]) / (1 + e2)
    return rho11, rho33, rho13


def paper_signed(opts: dict, gamma_t: float, rho_pair: np.ndarray) -> float:
    """Signed concurrence of the published forms over the evolved trace."""
    _, trace = project(pair_map(channels(opts, gamma_t), rho_pair))
    pub = published_pair(opts["eta"], gamma_t, opts["bell"])
    if opts["bell"] == "phi":
        return float(2.0 * pub["rho23"] / trace[0])
    return float(2.0 * (pub["rho14"] - max(float(pub["rho22"]), 0.0)) / trace[0])


# ------------------------------------------------------------------- checks

def _close(name: str, got, want) -> None:
    if got is None or want is None:
        if got is not want:
            raise Mismatch(f"{name}: got {got!r}, reference {want!r}")
        return
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
        raise Mismatch(f"{name}: got {got.tolist()!r}, reference {want.tolist()!r}")


def _csv_rows(output: dict, opts: dict, header: str) -> tuple[np.ndarray, np.ndarray]:
    if output.get("header") != header:
        raise Mismatch(f"header {output.get('header')!r}")
    if output.get("n_rows") != opts["steps"]:
        raise Mismatch(f"{output.get('n_rows')} rows, expected {opts['steps']}")
    idx = sorted(int(i) for i in output["rows"])
    if not idx or idx[0] != 0 or idx[-1] != opts["steps"] - 1:
        raise Mismatch("first and last rows not sampled")
    values = np.array([[float(v) for v in output["rows"][str(i)].split(",")] for i in idx])
    grid = np.linspace(0.0, opts["t_max"], opts["steps"])[idx]
    _close("gamma_t", values[:, 0], grid)
    return values, grid


def check_curve(opts: dict, output: dict) -> None:
    values, grid = _csv_rows(output, opts, CURVE_HEADER)
    rho, trace = project(pair_map(channels(opts, grid), pair_state(opts["bell"])))
    r14, r23 = np.abs(rho[:, 0, 3]), np.abs(rho[:, 1, 2])
    r22, r33 = rho[:, 1, 1].real, rho[:, 2, 2].real
    conc = np.maximum(signed_x(rho), 0.0)
    if opts["method"] == "paper":
        pub = published_pair(opts["eta"], grid, opts["bell"])
        if opts["bell"] == "psi":
            r14, r23 = pub["rho14"] / trace, np.zeros_like(trace)
            r22 = r33 = pub["rho22"] / trace
            conc = 2.0 * np.maximum(0.0, r14 - np.maximum(r22, 0.0))
        else:
            r14, r23 = np.zeros_like(trace), pub["rho23"] / trace
            conc = 2.0 * np.maximum(0.0, r23)
    for col, name, want in ((1, "concurrence", conc), (2, "rho14_abs", r14), (3, "rho23_abs", r23),
                            (4, "rho22", r22), (5, "rho33", r33), (6, "pre_norm_trace", trace)):
        _close(name, values[:, col], want)


SINGLE_INITIAL = {
    "excited": np.diag([1.0, 0.0, 0.0]).astype(complex),
    "ground": np.diag([0.0, 0.0, 1.0]).astype(complex),
    "superposition": 0.5 * np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=complex),
}


def check_single(opts: dict, output: dict) -> None:
    values, grid = _csv_rows(output, opts, SINGLE_HEADER)
    rho0 = SINGLE_INITIAL[opts["initial"]]
    rho = (channels(opts, grid) @ rho0.reshape(9)).reshape(-1, 3, 3)
    for col, name, want in ((1, "rho11", rho[:, 0, 0].real), (2, "rho22", rho[:, 1, 1].real),
                            (3, "rho33", rho[:, 2, 2].real), (4, "rho13_re", rho[:, 0, 2].real),
                            (5, "rho13_im", rho[:, 0, 2].imag)):
        _close(name, values[:, col], want)


def check_steady(opts: dict, report: dict) -> None:
    rho, trace = steady_projected(opts, pair_state(opts["bell"]))
    _close("concurrence_infinity", report["concurrence_infinity"], max(float(signed_x(rho)), 0.0))
    _close("pre_norm_trace_infinity", report["pre_norm_trace_infinity"], trace)
    _close("rho_infinity", report["rho_infinity"], np.stack([rho.real, rho.imag], axis=-1))
    ratio = published = None
    ambiguous = False
    if opts["bell"] == "psi":
        denom = math.sqrt(max(rho[1, 1].real, 0.0) * max(rho[2, 2].real, 0.0))
        ambiguous = 1e-16 < denom < 1e-14  # too close to the 1e-15 reporting cutoff to tell
        ratio = abs(rho[0, 3]) / denom if denom > 1e-15 else None
        published = 4.0 * opts["eta"] ** 2 / (1.0 + opts["eta"] ** 2)
    if not ambiguous:
        _close("ratio_rho14_over_sqrt_rho22_rho33", report["ratio_rho14_over_sqrt_rho22_rho33"],
               ratio)
    _close("ratio_published_formula", report["ratio_published_formula"], published)


def check_compare(opts: dict, report: dict) -> None:
    eta, e2 = opts["eta"], opts["eta"] ** 2
    grid = np.linspace(0.0, opts["t_max"], opts["steps"])
    chan = channels(opts, grid)
    single = report["single_atom"]
    for name in ("excited", "superposition"):
        rho0 = SINGLE_INITIAL[name]
        rho = (chan @ rho0.reshape(9)).reshape(-1, 3, 3)
        p11, p33, p13 = published_single(eta, grid, rho0)
        _close(f"{name}.rho11", single[name]["rho11"], np.max(np.abs(p11 - rho[:, 0, 0].real)))
        _close(f"{name}.rho33", single[name]["rho33"], np.max(np.abs(p33 - rho[:, 2, 2].real)))
        _close(f"{name}.rho13", single[name]["rho13"], np.max(np.abs(p13 - rho[:, 0, 2])))
    inf = single["rho11_infinity"]
    oracle, published = e2**2 / (1 + e2) ** 2, e2 / (2 * (1 + e2))
    _close("rho11_infinity.oracle", inf["oracle"], oracle)
    _close("rho11_infinity.published", inf["published"], published)
    _close("rho11_infinity.deviation", inf["deviation"], abs(published - oracle))

    psi = pair_map(chan, pair_state("psi"))[:, QUBIT_BLOCK][:, :, QUBIT_BLOCK]
    pub = published_pair(eta, grid, "psi")
    want = {
        "rho14": np.max(np.abs(pub["rho14"] - np.abs(psi[:, 0, 3]))),
        "rho22": np.max(np.abs(pub["rho22"] - psi[:, 1, 1].real)),
        "rho33": np.max(np.abs(pub["rho22"] - psi[:, 2, 2].real)),
        "rho11_half_printed": np.max(np.abs(pub["rho11"] / 2 - psi[:, 0, 0].real)),
        "rho11_printed_at_t0": (1 + e2) / 2,
        "rho11_required_at_t0": 0.5,
    }
    for key, value in want.items():
        _close(f"pair_psi.{key}", report["pair_psi"][key], value)
    phi = pair_map(chan, pair_state("phi"))[:, QUBIT_BLOCK][:, :, QUBIT_BLOCK]
    pub_phi = published_pair(eta, grid, "phi")["rho23"]
    _close("pair_phi.rho23", report["pair_phi"]["rho23"], np.max(np.abs(pub_phi - np.abs(phi[:, 1, 2]))))


def check_esd(opts: dict, report: dict) -> str | None:
    rho0 = pair_state(None if opts.get("initial") == "product" else opts["bell"])
    paper = opts["method"] == "paper" and opts.get("initial") != "product"

    def signed(gamma_t: float) -> float:
        if paper:
            return paper_signed(opts, gamma_t, rho0)
        return float(signed_x(project(pair_map(channels(opts, gamma_t), rho0))[0])[0])

    if paper:
        limit = max(signed(ESD_HORIZON), 0.0)
    else:
        limit = max(float(signed_x(steady_projected(opts, rho0)[0])), 0.0)
    kind = report.get("kind")
    if kind == "asymptotic_positive":
        _close("concurrence_limit", report["concurrence_limit"], limit)
        return
    if limit > 10.0 * ESD_THRESHOLD + ATOL:
        raise Mismatch(f"kind {kind!r}, but the reference limit is {limit:.6e}")
    # Within ESD_THRESHOLD of zero the sign is rounding noise, for the search
    # and the reference alike; only a resolved value contradicts the report.
    if kind == "asymptotic_zero":
        if signed(ESD_HORIZON) < -ESD_THRESHOLD:
            raise Mismatch("asymptotic_zero, but the reference is dead at the horizon")
    elif kind == "vanishes_at":
        t = float(report["gamma_t_death"])
        before = signed(max(t - ESD_SIDE, 0.0))
        after = signed(t + ESD_SIDE)
        if t > 0.0 and before < -ESD_THRESHOLD:
            raise Mismatch(f"reference already dead before gamma_t_death = {t}")
        if after > ESD_THRESHOLD:
            raise Mismatch(f"reference still alive after gamma_t_death = {t}")
        if before <= ESD_THRESHOLD or after >= -ESD_THRESHOLD:
            return ESD_UNCONFIRMED
    else:
        raise Mismatch(f"unknown esd kind {kind!r}")
    return None


CHECKS = {"curve": check_curve, "single": check_single, "steady": check_steady,
          "compare": check_compare, "esd": check_esd}


def check_job(record: dict, notes: Counter | None = None) -> str | None:
    """None when the job exited 0 with output matching the reference, else why not.

    Notes on a correct job are counted in ``notes`` when it is given.
    """
    if record.get("error"):
        return "traceback: " + record["error"].strip().splitlines()[-1]
    if "Traceback (most recent call last)" in (record.get("stderr") or ""):
        return "traceback on stderr"
    if record.get("rc") != 0:
        return f"exit {record.get('rc')}: {(record.get('stderr') or '').strip()[:200]}"
    output = record.get("output")
    if output is None:
        return "no output written"
    command, opts = parse_argv(record["argv"])
    if command in ("steady", "compare", "esd"):
        if "json" not in output:
            return "output is not JSON"
        output = output["json"]
    try:
        note = CHECKS[command](opts, output)
    except Mismatch as exc:
        return f"{command}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{command}: malformed output ({type(exc).__name__}: {exc})"
    if note is not None and notes is not None:
        notes[note] += 1
    return None
