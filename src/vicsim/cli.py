"""Command-line front end.

Subcommands: curve (concurrence vs gamma*t as CSV), single (one-atom
trajectory as CSV), steady (long-time report as JSON), compare
(published closed forms vs master-equation oracle as JSON), esd
(sudden-death search as JSON). Output is deterministic: fixed %.12e
formatting for CSV, insertion-ordered keys for JSON; it goes to stdout
for --output - and to the named file otherwise. --gamma sets the unit
of time: every output is in gamma*t or dimensionless, so each run
computes at gamma = 1 (VParams.in_units_of_gamma). OPTIONS declares
each option, and COMMANDS the flags each command reads and its own rows
(its --initial starts, say); a command takes no flag it does not read.
RunConfig, the config-file reader, the parser and every option check are
read from the two. Every physics rule is the library's: the published
forms, their domain and the compare report are vicsim.published's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import field, make_dataclass
from functools import cache
from typing import Any, NamedTuple

import numpy as np

from .bipartite import BellKind, product_state, steady_bell_x_elements
from .entanglement import CURVE_COLUMNS, METHODS, concurrence_curve, esd_time
from .published import audit, check_published, psi_ratio
from .vsystem import (
    VParams, apply_channel, excited_state, ground_state, propagate_channel, superposition_state,
)

CURVE_HEADER = ",".join(CURVE_COLUMNS)
SINGLE_HEADER = "gamma_t,rho11,rho22,rho33,rho13_re,rho13_im"


class ConfigError(ValueError):
    """Invalid flag or config-file value."""


class Option(NamedTuple):
    """A flag with its type, default, help (the default through ``{}``;
    None: each command taking it gives its own) and allowed values: the
    default or one of ``choices``, passing each (test, what it must be)
    of ``rules``. VParams holds the rules of gamma, eta and p.
    """

    flag: str
    type: type
    default: Any
    help: str | None
    choices: tuple[str, ...] = ()
    rules: tuple[tuple[Callable[[Any], bool], str], ...] = ()
    in_config: bool = True  # a RunConfig field and config-file key

    def check(self, value: Any) -> None:
        if self.choices and value != self.default and value not in self.choices:
            raise ConfigError(f"{self.flag[2:]} must be {' or '.join(self.choices)}, got {value!r}")
        for test, what in self.rules:
            if not test(value):
                raise ConfigError(f"{self.flag[2:]} must be {what}, got {value!r}")


OPTIONS = (
    Option("--gamma", float, 1.0, "decay half-rate of the qubit transition (default {:g})"),
    Option("--eta", float, 1.0, "dipole ratio of umbrella to qubit transition (default {:g})"),
    Option("--p", float, 1.0, "interference factor in [0, 1] (default {:g})"),
    Option("--bell", str, "psi", "initial Bell state (default {})", choices=("psi", "phi")),
    Option("--t-max", float, 10.0, "gamma*t horizon (default {:g})",
           rules=((lambda v: v > 0, "positive"), (lambda v: v != math.inf, "finite"))),
    Option("--steps", int, 1000, "number of samples (default {})",
           rules=((lambda v: v >= 2, "at least 2"),)),
    Option("--method", str, "oracle",
           "oracle evolution or published closed forms (default {})", choices=METHODS),
    Option("--output", str, "-", "output path, or - for stdout (default)"),
    Option("--config", str, None, "key=value config file; flags take precedence", in_config=False),
    Option("--initial", str, None, None),  # each command taking it gives its starts
)

SHARED = ("--gamma", "--eta", "--p", "--output", "--config")  # the flags of every command

# The options a run is configured by, by config key and RunConfig field:
# the flag's name with "_" for "-".
_OPTIONS = {option.flag[2:].replace("-", "_"): option for option in OPTIONS if option.in_config}

RunConfig = make_dataclass("RunConfig", [(key, option.type, field(default=option.default))
                                         for key, option in _OPTIONS.items()])


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:  # an empty value unsets the key: its default applies
            values.pop(key, None)
            continue
        try:
            values[key] = _OPTIONS[key].type(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: flag > config file > the command's own default >
    built-in default; then check each value given by the command's own
    row, or else by its OPTIONS row."""
    own = {option.flag: option for option in COMMANDS[args.command].own}
    rows = {key: own.get(option.flag, option) for key, option in _OPTIONS.items()}
    values = {key: row.default for key, row in rows.items() if row.flag in own}
    values.update(_load_config_file(args.config) if args.config else {})
    values.update({key: value for key, value in vars(args).items()
                   if value is not None and key in _OPTIONS})
    cfg = RunConfig(**values)
    _params(cfg)  # VParams validates gamma, eta and p
    for key, row in rows.items():
        if key in values:  # every default holds its rules
            row.check(values[key])
    return cfg


def _write(cfg: RunConfig, text: str) -> None:
    try:
        if cfg.output == "-":
            sys.stdout.write(text)
        else:
            with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
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
    return VParams(gamma=cfg.gamma, eta=cfg.eta, p=cfg.p).in_units_of_gamma()


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


def _echo(cfg: RunConfig, *keys: str) -> dict:
    """The report fields that repeat the run's options ``keys``."""
    return {key: getattr(cfg, key) for key in keys}


def run_curve(cfg: RunConfig) -> int:
    curve = concurrence_curve(_params(cfg), BellKind(cfg.bell), _grid(cfg), cfg.method)
    _write_csv(cfg, CURVE_HEADER, curve.columns())
    return 0


_SINGLE_STARTS = {"excited": excited_state, "ground": ground_state,
                  "superposition": superposition_state}


def run_single(cfg: RunConfig) -> int:
    params = _params(cfg)
    rho0 = _SINGLE_STARTS[cfg.initial]()
    grid = _grid(cfg)
    rho = np.array([apply_channel(propagate_channel(params, gamma_t), rho0)
                    for gamma_t in grid.tolist()])
    _write_csv(cfg, SINGLE_HEADER, (grid, rho[:, 0, 0].real, rho[:, 1, 1].real,
                                    rho[:, 2, 2].real, rho[:, 0, 2].real, rho[:, 0, 2].imag))
    return 0


def run_steady(cfg: RunConfig) -> int:
    """Long-time report of a Bell start, every field read from U(infinity)
    by the Bell reader (``steady_bell_x_elements``)."""
    kind = BellKind(cfg.bell)
    params = _params(cfg)
    x = steady_bell_x_elements(params, kind)
    trace = float(x.trace[0])
    r11, r22, r33, r44, r14, r23 = (float(v[0]) / trace for v in x)
    ratio = ratio_published = None
    if kind is BellKind.PSI:
        denom = math.sqrt(max(r22, 0.0) * max(r33, 0.0))
        ratio = r14 / denom if denom > 1e-15 else None
        ratio_published = psi_ratio(params)
    # an X state, real at t = infinity (see bell_x_elements)
    rho = [[r11, 0.0, 0.0, r14], [0.0, r22, r23, 0.0], [0.0, r23, r33, 0.0], [r14, 0.0, 0.0, r44]]
    report = {
        **_echo(cfg, "eta", "p", "bell"),
        "concurrence_infinity": max(0.0, float(x.signed_concurrence[0])),
        "ratio_rho14_over_sqrt_rho22_rho33": ratio,
        "ratio_published_formula": ratio_published,
        "pre_norm_trace_infinity": trace,
        "rho_infinity": [[[value, 0.0] for value in row] for row in rho],
    }
    _write(cfg, _json_dump(report))
    return 0


def run_compare(cfg: RunConfig) -> int:
    """Audit the published closed forms against the oracle evolution: a
    reporting tool, not a gate, that exits 0 regardless of deviation size."""
    params = _params(cfg)
    check_published(params)
    report = {**_echo(cfg, "eta", "p", "gamma", "t_max", "steps"), **audit(params, _grid(cfg))}
    _write(cfg, _json_dump(report))
    return 0


def run_esd(cfg: RunConfig) -> int:
    # the one --initial, product: separable |1A 1B>, already dead at t = 0
    start = product_state(0, 0) if cfg.initial else BellKind(cfg.bell)
    result = esd_time(_params(cfg), start, method=cfg.method)
    report = {**_echo(cfg, "eta", "p", "initial" if cfg.initial else "bell"), "kind": result.kind}
    if result.kind == "vanishes_at":
        report["gamma_t_death"] = result.gamma_t_death
    elif result.kind == "asymptotic_positive":
        report["concurrence_limit"] = result.concurrence_limit
    _write(cfg, _json_dump(report))
    return 0


class Command(NamedTuple):
    """A subcommand: its run, its help, the flags it reads beyond SHARED, and
    its own rows, the OPTIONS rows of flags it reads with its own default,
    help or choices."""

    run: Callable[[RunConfig], int]
    help: str
    reads: tuple[str, ...] = ()
    own: tuple[Option, ...] = ()

    def options(self) -> list[Option]:
        """The OPTIONS rows it takes, SHARED and those it reads, in OPTIONS
        order, each of its own rows in place of the shared one."""
        own = {option.flag: option for option in self.own}
        return [own.get(option.flag, option) for option in OPTIONS
                if option.flag in SHARED + self.reads]


COMMANDS = {
    "curve": Command(run_curve, "concurrence vs gamma*t as CSV",
                     ("--bell", "--t-max", "--steps", "--method")),
    "single": Command(run_single, "single-atom trajectory as CSV",
                      ("--t-max", "--steps", "--method", "--initial"),
                      (_OPTIONS["method"]._replace(choices=("oracle",),
                                                   help="oracle evolution (default {})"),
                       _OPTIONS["initial"]._replace(
                           default="excited", choices=tuple(_SINGLE_STARTS),
                           help="initial single-atom state (default {})"))),
    "steady": Command(run_steady, "long-time report as JSON", ("--bell",)),
    "compare": Command(run_compare, "published closed forms vs oracle, as JSON",
                       ("--t-max", "--steps")),
    "esd": Command(run_esd, "sudden-death search as JSON", ("--bell", "--method", "--initial"),
                   (_OPTIONS["initial"]._replace(
                       choices=("product",),
                       help="replace the Bell start with a separable product state"),)),
}

# The run function of each command, called once its options hold.
_COMMANDS = {name: command.run for name, command in COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, exit code 2
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vicsim",
                     description="Interference-protected entanglement of two V-atom qubits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for option in command.options():
            subparser.add_argument(option.flag, type=option.type, choices=option.choices or None,
                                   help=option.help.format(option.default))
    return parser


# The parser, built on first use and reused by every later call.
_parser = cache(_build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors as exit 2
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](_resolve_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
