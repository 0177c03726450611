"""Command-line front end.

Subcommands: curve (concurrence vs gamma*t as CSV), single (one-atom
trajectory as CSV), steady (long-time report as JSON), compare
(published closed forms vs master-equation oracle as JSON), esd
(sudden-death search as JSON). Output is deterministic: fixed %.12e
formatting for CSV, insertion-ordered keys for JSON; it goes to stdout
for --output - and to the named file otherwise. --gamma sets the unit
of time: every output is in gamma*t or dimensionless, so each run
computes at gamma = 1 (VParams.in_units_of_gamma). OPTIONS declares
each option and COMMANDS the flags and rules of each command, which
takes no flag it does not read; RunConfig, the config-file reader, the
parser and every check are read from the two.
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

from .bipartite import BellKind, bell_x_elements, product_state, published_pair_elements
from .entanglement import CURVE_COLUMNS, concurrence_curve, esd_time
from .vsystem import (
    VParams, apply_channel, excited_state, ground_state, no_jump_propagators, propagate_channel,
    published_single_atom, single_atom_states, steady_no_jump, steady_state, superposition_state,
)

CURVE_HEADER = ",".join(CURVE_COLUMNS)
SINGLE_HEADER = "gamma_t,rho11,rho22,rho33,rho13_re,rho13_im"

METHODS = ("oracle", "paper")


class ConfigError(ValueError):
    """Invalid flag or config-file value."""


class Option(NamedTuple):
    """A flag with its type, default, help (the default through ``{}``;
    None: each command taking it gives its own) and allowed values: the
    default or one of ``choices`` (else the ``unknown`` diagnostic),
    passing each (test, what it must be) of ``rules``. VParams holds the
    rules of gamma, eta and p.
    """

    flag: str
    type: type
    default: Any
    help: str | None
    choices: tuple[str, ...] = ()
    rules: tuple[tuple[Callable[[Any], bool], str], ...] = ()
    in_config: bool = True  # a RunConfig field and config-file key
    unknown: str = "{name} must be {choices}, got {value!r}"

    def check(self, value: Any) -> None:
        if self.choices and value != self.default and value not in self.choices:
            raise ConfigError(self.unknown.format(name=self.flag[2:], value=value,
                                                  choices=" or ".join(self.choices)))
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
    Option("--initial", str, None, None),
    Option("--output", str, "-", "output path, or - for stdout (default)"),
    Option("--config", str, None, "key=value config file; flags take precedence", in_config=False),
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
    """Merge precedence: flag > config file > the command's --initial default
    > built-in default; then check each option given, and the command's rules."""
    command = COMMANDS[args.command]
    values = {"initial": command.initial.default} if command.initial else {}
    values.update(_load_config_file(args.config) if args.config else {})
    values.update({key: value for key, value in vars(args).items()
                   if value is not None and key in _OPTIONS})
    cfg = RunConfig(**values)
    _params(cfg)  # VParams validates gamma, eta and p
    for key, option in _OPTIONS.items():
        if key in values:  # every default holds its rules
            option.check(values[key])
    command.check(args.command, cfg)
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
    (``steady_no_jump``) by the Bell reader (``bell_x_elements``)."""
    kind = BellKind(cfg.bell)
    x = bell_x_elements(steady_no_jump(_params(cfg))[None], kind)
    trace = float(x.trace[0])
    r11, r22, r33, r44, r14, r23 = (float(v[0]) / trace for v in x)
    ratio = ratio_published = None
    if kind is BellKind.PSI:
        denom = math.sqrt(max(r22, 0.0) * max(r33, 0.0))
        ratio = r14 / denom if denom > 1e-15 else None
        eta2 = cfg.eta**2
        ratio_published = 4.0 * (eta2 / (1.0 + eta2))
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
    params = _params(cfg)
    times = _grid(cfg)
    worst = np.max([_compare_deviations(params, times[i:i + COMPARE_CHUNK])
                    for i in range(0, times.size, COMPARE_CHUNK)], axis=0)
    values = iter(worst.tolist())
    sections = {name: {key: next(values) for key in keys} for name, keys in _COMPARE_SECTIONS.items()}

    oracle_inf = float(steady_state(params, excited_state())[0, 0].real)
    published_inf = published_single_atom(params, excited_state(), math.inf).rho11

    printed_t0 = published_pair_elements(params, BellKind.PSI, 0.0)["rho11"]
    report = {
        **_echo(cfg, "eta", "p", "gamma", "t_max", "steps"),
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
    """The flags of a subcommand, and its rules, checked in field order by ``check``."""

    run: Callable[[RunConfig], int]
    help: str
    reads: tuple[str, ...] = ()  # the flags it reads beyond SHARED, --method and --initial
    methods: tuple[str, ...] = ()  # the methods it reads (none: it takes no --method)
    needs_p1: bool = False  # at any method; method paper always needs p = 1
    # its --initial flag (None: it takes none), the --initial option with its
    # own default start, help and start names; and the methods other starts support
    initial: Option | None = None
    initial_methods: tuple[str, ...] = METHODS

    def options(self) -> list[Option]:
        """The flags it takes, SHARED and those it reads, then its --initial."""
        takes = SHARED + self.reads + ("--method",) * bool(self.methods)
        initial = [self.initial] if self.initial else []
        return [option for option in OPTIONS if option.flag in takes] + initial

    def check(self, name: str, cfg: RunConfig) -> None:
        if self.methods and cfg.method not in self.methods:
            raise ConfigError(f"{name} supports the {' or '.join(self.methods)} method only")
        if self.methods and cfg.method == "paper" and cfg.p != 1.0:
            raise ConfigError("method paper requires p = 1")
        if self.needs_p1 and cfg.p != 1.0:
            raise ConfigError(f"{name} requires p = 1")
        if (initial := self.initial) is not None:
            initial.check(cfg.initial)
            if cfg.initial != initial.default and cfg.method not in self.initial_methods:
                raise ConfigError(f"{name} --initial {cfg.initial} supports the "
                                  f"{' or '.join(self.initial_methods)} method only")


COMMANDS = {
    "curve": Command(run_curve, "concurrence vs gamma*t as CSV", ("--bell", "--t-max", "--steps"),
                     METHODS),
    "single": Command(run_single, "single-atom trajectory as CSV", ("--t-max", "--steps"),
                      ("oracle",), initial=_OPTIONS["initial"]._replace(
                          default="excited", choices=tuple(_SINGLE_STARTS),
                          help="initial single-atom state (default {})",
                          unknown="unknown initial state {value!r}")),
    "steady": Command(run_steady, "long-time report as JSON", ("--bell",)),
    "compare": Command(run_compare, "published closed forms vs oracle, as JSON",
                       ("--t-max", "--steps"), needs_p1=True),
    "esd": Command(run_esd, "sudden-death search as JSON", ("--bell",), METHODS,
                   initial=_OPTIONS["initial"]._replace(
                       choices=("product",),
                       help="replace the Bell start with a separable product state",
                       unknown="esd accepts only initial={choices}, got {value!r}"),
                   initial_methods=("oracle",)),
}

# The run function of each command, called once its rules hold.
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
