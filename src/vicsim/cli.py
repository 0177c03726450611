"""Command-line front end.

Subcommands: curve (concurrence vs gamma*t as CSV), single (one-atom
trajectory as CSV), steady (long-time report as JSON), compare
(published closed forms vs master-equation oracle as JSON), esd
(sudden-death search as JSON). Output is deterministic: fixed %.12e
formatting for CSV, insertion-ordered keys for JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bipartite import BellKind, bell_x_elements, product_state, published_pair_elements
from .entanglement import CURVE_COLUMNS, concurrence_curve, esd_time
from .vsystem import (
    VParams,
    apply_channel,
    excited_state,
    ground_state,
    no_jump_propagators,
    propagate_channel,
    published_rho11_infinity,
    published_single_atom,
    single_atom_states,
    steady_no_jump,
    steady_state,
    superposition_state,
)

CURVE_HEADER = ",".join(CURVE_COLUMNS)
SINGLE_HEADER = "gamma_t,rho11,rho22,rho33,rho13_re,rho13_im"

_INITIAL_STATES = {
    "excited": excited_state,
    "ground": ground_state,
    "superposition": superposition_state,
}


class ConfigError(ValueError):
    """Invalid flag or config-file value."""


@dataclass
class RunConfig:
    gamma: float = 1.0
    eta: float = 1.0
    p: float = 1.0
    bell: str = "psi"
    t_max: float = 10.0
    steps: int = 1000
    method: str = "oracle"
    initial: str | None = None
    output: str = "-"
    format: str | None = None


_CONFIG_TYPES = {
    "gamma": float,
    "eta": float,
    "p": float,
    "bell": str,
    "t_max": float,
    "steps": int,
    "method": str,
    "initial": str,
    "output": str,
    "format": str,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flag > config file > built-in default."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for key in _CONFIG_TYPES:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            setattr(cfg, key, cli_value)
        elif key in file_values:
            setattr(cfg, key, file_values[key])
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    _params(cfg)  # VParams validates gamma, eta and p
    if cfg.bell not in ("psi", "phi"):
        raise ConfigError(f"bell must be psi or phi, got {cfg.bell!r}")
    if not cfg.t_max > 0:
        raise ConfigError(f"t-max must be positive, got {cfg.t_max}")
    if cfg.t_max == math.inf:
        raise ConfigError(f"t-max must be finite, got {cfg.t_max}")
    if cfg.steps < 2:
        raise ConfigError(f"steps must be at least 2, got {cfg.steps}")
    if cfg.method not in ("oracle", "paper"):
        raise ConfigError(f"method must be oracle or paper, got {cfg.method!r}")
    if cfg.format not in (None, "csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")


def _require_format(cfg: RunConfig, expected: str, command: str) -> None:
    if cfg.format is not None and cfg.format != expected:
        raise ConfigError(f"{command} emits {expected} only, got format {cfg.format!r}")


def _open_output(path: str):
    if path in ("-", ""):
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write(cfg: RunConfig, text: str) -> None:
    try:
        with _open_output(cfg.output) as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory path, a full disk
        raise ConfigError(f"cannot write {cfg.output}: {exc}") from None


def _write_csv(cfg: RunConfig, header: str, columns: tuple[np.ndarray, ...]) -> None:
    """Write the header and one %.12e row per sample of the equal-length
    float ``columns``, each row formatted in one step over Python floats."""
    row = ",".join(["%.12e"] * len(columns))
    rows = np.column_stack(columns).tolist()
    _write(cfg, "\n".join([header] + [row % tuple(values) for values in rows]) + "\n")


def _params(cfg: RunConfig) -> VParams:
    return VParams(gamma=cfg.gamma, eta=cfg.eta, p=cfg.p)


def _grid(cfg: RunConfig) -> np.ndarray:
    try:
        return np.linspace(0.0, cfg.t_max, cfg.steps)
    except MemoryError as exc:
        raise ConfigError(f"steps = {cfg.steps} is too many: {exc}") from None


# A non-finite report value raises ValueError, so it becomes a diagnostic
# and never an invalid ``NaN`` or ``Infinity``.
_JSON = json.JSONEncoder(indent=2, allow_nan=False)


def _json_dump(report: dict) -> str:
    return _JSON.encode(report) + "\n"


def run_curve(cfg: RunConfig) -> int:
    _require_format(cfg, "csv", "curve")
    if cfg.method == "paper" and cfg.p != 1.0:
        raise ConfigError("method paper requires p = 1")
    curve = concurrence_curve(_params(cfg), BellKind(cfg.bell), _grid(cfg), cfg.method)
    _write_csv(cfg, CURVE_HEADER, curve.columns())
    return 0


def run_single(cfg: RunConfig) -> int:
    _require_format(cfg, "csv", "single")
    if cfg.method != "oracle":
        raise ConfigError("single supports the oracle method only")
    initial = cfg.initial or "excited"
    if initial not in _INITIAL_STATES:
        raise ConfigError(f"unknown initial state {initial!r}")
    params = _params(cfg)
    rho0 = _INITIAL_STATES[initial]()
    grid = _grid(cfg)
    rho = np.array([apply_channel(propagate_channel(params, gamma_t / params.gamma), rho0)
                    for gamma_t in grid.tolist()])
    _write_csv(cfg, SINGLE_HEADER, (grid, rho[:, 0, 0].real, rho[:, 1, 1].real,
                                    rho[:, 2, 2].real, rho[:, 0, 2].real, rho[:, 0, 2].imag))
    return 0


def run_steady(cfg: RunConfig) -> int:
    """Long-time report of a Bell start, every field read from U(infinity)
    (``steady_no_jump``) by the Bell reader (``bell_x_elements``)."""
    _require_format(cfg, "json", "steady")
    kind = BellKind(cfg.bell)
    x = bell_x_elements(steady_no_jump(_params(cfg))[None], kind)
    trace = float(x.trace[0])
    r11, r22, r33, r44, r14, r23 = (float(v[0]) / trace for v in x)
    ratio = None
    ratio_published = None
    if kind is BellKind.PSI:
        denom = math.sqrt(max(r22, 0.0) * max(r33, 0.0))
        ratio = r14 / denom if denom > 1e-15 else None
        eta2 = cfg.eta**2
        ratio_published = 4.0 * (eta2 / (1.0 + eta2))
    # an X state, real at t = infinity (see bell_x_elements)
    rho = [[r11, 0.0, 0.0, r14], [0.0, r22, r23, 0.0], [0.0, r23, r33, 0.0], [r14, 0.0, 0.0, r44]]
    report = {
        "eta": cfg.eta,
        "p": cfg.p,
        "bell": cfg.bell,
        "concurrence_infinity": max(0.0, float(x.signed_concurrence[0])),
        "ratio_rho14_over_sqrt_rho22_rho33": ratio,
        "ratio_published_formula": ratio_published,
        "pre_norm_trace_infinity": trace,
        "rho_infinity": [[[value, 0.0] for value in row] for row in rho],
    }
    _write(cfg, _json_dump(report))
    return 0


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


def run_compare(cfg: RunConfig) -> int:
    """Audit the published closed forms against the oracle evolution.

    A reporting tool, not a gate: exits 0 regardless of deviation size.
    The doubly-excited published element is known to be twice the
    correct value at t = 0, so its deviation is measured against half
    the printed form and the printed t = 0 value is flagged alongside.
    The grid is read COMPARE_CHUNK times at a time.
    """
    _require_format(cfg, "json", "compare")
    if cfg.p != 1.0:
        raise ConfigError("compare requires p = 1")
    params = _params(cfg)
    with np.errstate(over="ignore"):  # an overflowing time is inf, which the propagator rejects
        times = _grid(cfg) / params.gamma
    worst = np.max([_compare_deviations(params, times[i:i + COMPARE_CHUNK])
                    for i in range(0, times.size, COMPARE_CHUNK)], axis=0)
    values = iter(worst.tolist())
    sections = {name: {key: next(values) for key in keys} for name, keys in _COMPARE_SECTIONS.items()}

    rho_inf = steady_state(params, excited_state())
    oracle_inf = float(rho_inf[0, 0].real)
    published_inf = published_rho11_infinity(params, excited_state())

    printed_t0 = published_pair_elements(params, BellKind.PSI, 0.0)["rho11"]
    report = {
        "eta": cfg.eta,
        "p": cfg.p,
        "gamma": cfg.gamma,
        "t_max": cfg.t_max,
        "steps": cfg.steps,
        "single_atom": {
            "excited": sections["excited"],
            "superposition": sections["superposition"],
            "rho11_infinity": {
                "published": published_inf,
                "oracle": oracle_inf,
                "deviation": abs(published_inf - oracle_inf),
            },
        },
        "pair_psi": {
            **sections["psi"],
            "rho11_printed_at_t0": printed_t0,
            "rho11_required_at_t0": 0.5,
        },
        "pair_phi": sections["phi"],
    }
    _write(cfg, _json_dump(report))
    return 0


def run_esd(cfg: RunConfig) -> int:
    _require_format(cfg, "json", "esd")
    if cfg.method == "paper" and cfg.p != 1.0:
        raise ConfigError("method paper requires p = 1")
    rho0 = None
    if cfg.initial == "product":
        if cfg.method != "oracle":
            raise ConfigError("esd --initial product supports the oracle method only")
        rho0 = product_state(0, 0)  # separable |1A 1B>: already dead at t = 0
    elif cfg.initial is not None:
        raise ConfigError(f"esd accepts only initial=product, got {cfg.initial!r}")
    result = esd_time(_params(cfg), BellKind(cfg.bell), rho0=rho0, method=cfg.method)
    report = {
        "eta": cfg.eta,
        "p": cfg.p,
        "bell": cfg.bell,
        "kind": result.kind,
    }
    if result.kind == "vanishes_at":
        report["gamma_t_death"] = result.gamma_t_death
    elif result.kind == "asymptotic_positive":
        report["concurrence_limit"] = result.concurrence_limit
    _write(cfg, _json_dump(report))
    return 0


_COMMANDS = {
    "curve": run_curve,
    "single": run_single,
    "steady": run_steady,
    "compare": run_compare,
    "esd": run_esd,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, exit code 2
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--gamma", type=float, help="decay half-rate of the qubit transition (default 1)")
    common.add_argument("--eta", type=float, help="dipole ratio of umbrella to qubit transition (default 1)")
    common.add_argument("--p", type=float, help="interference factor in [0, 1] (default 1)")
    common.add_argument("--bell", choices=["psi", "phi"], help="initial Bell state (default psi)")
    common.add_argument("--t-max", dest="t_max", type=float, help="gamma*t horizon (default 10)")
    common.add_argument("--steps", type=int, help="number of samples (default 1000)")
    common.add_argument("--method", choices=["oracle", "paper"],
                        help="oracle evolution or published closed forms (default oracle)")
    common.add_argument("--output", help="output path, or - for stdout (default)")
    common.add_argument("--format", choices=["csv", "json"], help="output format (per-command default)")
    common.add_argument("--config", help="key=value config file; flags take precedence")

    parser = _Parser(prog="vicsim",
                     description="Interference-protected entanglement of two V-atom qubits")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("curve", parents=[common], help="concurrence vs gamma*t as CSV")
    single = sub.add_parser("single", parents=[common], help="single-atom trajectory as CSV")
    single.add_argument("--initial", choices=["excited", "ground", "superposition"],
                        help="initial single-atom state (default excited)")
    sub.add_parser("steady", parents=[common], help="long-time report as JSON")
    sub.add_parser("compare", parents=[common],
                   help="published closed forms vs oracle, as JSON")
    esd = sub.add_parser("esd", parents=[common], help="sudden-death search as JSON")
    esd.add_argument("--initial", choices=["product"],
                     help="replace the Bell start with a separable product state")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors as exit 2
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
