"""CLI fuzz: valid and invalid flag values and config files for every
subcommand, and a lattice of float extremes for every command form.

Every run must exit 0 with nothing on stderr, or exit 2 with a one-line
``error:`` diagnostic; an exception escaping ``main`` fails the test, and
so does any warning it raises (a numpy overflow, an unclosed file).
The output of a run that exits 0 must be finite: a JSON report parses as
strict JSON, with no ``NaN`` or ``Infinity``, and every CSV value is a
finite float. Each run passes only flags its command takes (test_cli
checks that every other flag exits 2); a config file may hold any key.
``--steps`` stays at most 200, so no run builds a large grid.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
import warnings

import pytest

from hypothesis import example, given, settings, strategies as st

from vicsim.cli import COMMANDS, main

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0", "1e-300", "1e300", "abc", "",
                     "0.5", "1", "2", "3", "1e-9", "0.999999999", "1.5", "0x10", "1e100",
                     "1e154"]),
    st.floats(0.0, 3.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
STEPS = st.one_of(st.integers(-3, 200).map(str), st.sampled_from(["abc", "1.5", "nan", ""]))
CHOICES = {
    "bell": st.sampled_from(["psi", "phi", "omega"]),
    "method": st.sampled_from(["oracle", "paper", "bogus"]),
    "initial": st.sampled_from(["product", "excited", "ground", "superposition", "bogus"]),
}
JSON_COMMANDS = ("steady", "compare", "esd")
VALUES = {"gamma": NUMBERS, "eta": NUMBERS, "p": NUMBERS, "t-max": NUMBERS, "steps": STEPS,
          **CHOICES}


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in a JSON report")


@st.composite
def _flag(draw, command):
    """A flag that ``command`` takes, with a valid or an invalid value."""
    takes = {option.flag[2:] for option in COMMANDS[command].options()}
    name = draw(st.sampled_from(sorted(takes & set(VALUES))))
    return [f"--{name}", draw(VALUES[name])]


def _runs():
    """A command and up to five flags it takes."""
    return st.sampled_from(list(COMMANDS)).flatmap(
        lambda command: st.tuples(st.just(command), st.lists(_flag(command), max_size=5)))


@st.composite
def _config_line(draw):
    name = draw(st.sampled_from(sorted(VALUES)))
    good = f"{name.replace('-', '_')} = {draw(VALUES[name])}"
    return draw(st.sampled_from([good, good + "  # note", "garbage", "=", "eta", "# comment",
                                 "", "flux = 1.21", "eta = 1 = 2", f"{name} ="]))


def _assert_exits_cleanly(argv):
    """Run ``argv``: exit 0 with finite output on stdout and nothing on
    stderr, or exit 2 with one ``error:`` line; raise no warning."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    message = err.getvalue()
    assert code in (0, 2), argv
    if code == 0:
        assert message == "", argv
        if argv[0] in JSON_COMMANDS:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:  # every row after the header
            values = [value for row in out.getvalue().splitlines()[1:] for value in row.split(",")]
            assert all(math.isfinite(float(value)) for value in values), argv
    else:
        assert message.startswith("error:") and message.count("\n") == 1, (argv, message)


# ``{tmp}`` in a token stands for the run's temporary directory
UNWRITABLE_OUTPUTS = ("{tmp}/missing/out", "{tmp}")


def _unwritable_output_examples(test):
    """Every command writing into a missing directory and onto a directory."""
    for command in COMMANDS:
        for path in UNWRITABLE_OUTPUTS:
            test = example(run=(command, [["--output", path]]), config=None)(test)
    return test


@_unwritable_output_examples
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(run=_runs(), config=st.none() | st.lists(_config_line(), max_size=4))
# eta near the top of its domain: squares of 1 + eta^2 once overflowed the
# published pair forms, and 4 eta^2 the published steady ratio
@example(run=("curve", [["--method", "paper"], ["--eta", "1e100"]]), config=None)
@example(run=("esd", [["--method", "paper"], ["--eta", "1e100"]]), config=None)
@example(run=("compare", [["--eta", "1e100"], ["--steps", "5"]]), config=None)
@example(run=("steady", [["--eta", "1e154"]]), config=None)
# times whose decay exponent, or gamma_t / gamma itself, overflows a float
@example(run=("single", [["--t-max", "1e308"], ["--steps", "3"]]), config=None)
@example(run=("compare", [["--t-max", "1e308"], ["--steps", "3"]]), config=None)
@example(run=("curve", [["--method", "paper"], ["--t-max", "1.7e308"], ["--steps", "3"]]),
         config=None)
@example(run=("single", [["--gamma", "1e-5"], ["--t-max", "1e305"], ["--steps", "3"]]),
         config=None)
@example(run=("compare", [["--gamma", "1e-5"], ["--t-max", "1e305"], ["--steps", "3"]]),
         config=None)
@example(run=("curve", [["--method", "paper"], ["--gamma", "1e-5"], ["--t-max", "1e305"],
                        ["--steps", "3"]]), config=None)
@example(run=("esd", [["--method", "paper"], ["--gamma", "1e-320"]]), config=None)
@example(run=("steady", []), config=["eta = 0.5"])
def test_cli_exits_cleanly_on_any_input(run, config):
    command, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + [token.replace("{tmp}", tmp) for flag in flags for token in flag]
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            argv += ["--config", path]
        _assert_exits_cleanly(argv)


# The float extremes of each lattice option: the smallest subnormal, 1 - 2^-53,
# an eta whose square nearly overflows, the largest gamma and t-max.
LATTICE = {
    "--eta": ("0", "5e-324", "1e-08", "1", "1e154"),
    "--p": ("0", "0.5", repr(1.0 - 2.0**-53), "1"),
    "--gamma": ("5e-324", "1e-300", "1", "1.7e308"),
    "--bell": ("psi", "phi"),
    "--t-max": ("1e-300", "10", "1e300"),
}
# Each command form, with the lattice options it reads beyond gamma, eta and p;
# a form that reads --t-max runs a 3-sample grid.
FORMS = {
    ("curve",): ("--bell", "--t-max"),
    ("curve", "--method", "paper"): ("--bell", "--t-max"),
    ("single",): ("--t-max",),
    ("steady",): ("--bell",),
    ("compare",): ("--t-max",),
    ("esd",): ("--bell",),
    ("esd", "--method", "paper"): ("--bell",),
    ("esd", "--initial", "product"): (),
}
# A product-start esd scans 1001 evolved samples (about 50 ms a run), so it
# runs every third point of its lattice, which still meets each value.
STRIDES = {("esd", "--initial", "product"): 3}


@pytest.mark.parametrize("form", list(FORMS), ids=" ".join)
def test_cli_exits_cleanly_on_a_lattice_of_float_extremes(form):
    reads = ("--gamma", "--eta", "--p") + FORMS[form]
    steps = ["--steps", "3"] if "--t-max" in reads else []
    lattice = itertools.product(*(LATTICE[flag] for flag in reads))
    for values in itertools.islice(lattice, 0, None, STRIDES.get(form, 1)):
        _assert_exits_cleanly([*form, *itertools.chain(*zip(reads, values)), *steps])
