"""CLI fuzz: valid and invalid flag values and config files for every subcommand.

Every run must exit 0 with nothing on stderr, or exit 2 with a one-line
``error:`` diagnostic; an exception escaping ``main`` fails the test, and
so does any warning it raises (a numpy overflow, an unclosed file).
A JSON report of a run that exits 0 must parse as strict JSON, with no
``NaN`` or ``Infinity``. ``--steps`` stays at most 200, so no run builds
a large grid.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from vicsim.cli import main

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
    "format": st.sampled_from(["csv", "json", "xml"]),
    "initial": st.sampled_from(["product", "excited", "ground", "superposition", "bogus"]),
}
JSON_COMMANDS = ("steady", "compare", "esd")
VALUES = {"gamma": NUMBERS, "eta": NUMBERS, "p": NUMBERS, "t-max": NUMBERS, "steps": STEPS,
          **CHOICES}


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in a JSON report")


@st.composite
def _flag(draw):
    name = draw(st.sampled_from(sorted(VALUES)))
    return [f"--{name}", draw(VALUES[name])]


@st.composite
def _config_line(draw):
    name = draw(st.sampled_from(sorted(VALUES)))
    good = f"{name.replace('-', '_')} = {draw(VALUES[name])}"
    return draw(st.sampled_from([good, good + "  # note", "garbage", "=", "eta", "# comment",
                                 "", "flux = 1.21", "eta = 1 = 2", f"{name} ="]))


COMMANDS = ("curve", "single", "steady", "compare", "esd")
# ``{tmp}`` in a token stands for the run's temporary directory
UNWRITABLE_OUTPUTS = ("{tmp}/missing/out", "{tmp}")


def _unwritable_output_examples(test):
    """Every command writing into a missing directory and onto a directory."""
    for command in COMMANDS:
        for path in UNWRITABLE_OUTPUTS:
            test = example(command=command, flags=[["--output", path]], config=None)(test)
    return test


@_unwritable_output_examples
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(command=st.sampled_from(COMMANDS),
       flags=st.lists(_flag(), max_size=5),
       config=st.none() | st.lists(_config_line(), max_size=4))
# eta near the top of its domain: squares of 1 + eta^2 once overflowed the
# published pair forms, and 4 eta^2 the published steady ratio
@example(command="curve", flags=[["--method", "paper"], ["--eta", "1e100"]], config=None)
@example(command="esd", flags=[["--method", "paper"], ["--eta", "1e100"]], config=None)
@example(command="compare", flags=[["--eta", "1e100"], ["--steps", "5"]], config=None)
@example(command="steady", flags=[["--eta", "1e154"]], config=None)
# times whose decay exponent, or gamma_t / gamma itself, overflows a float
@example(command="single", flags=[["--t-max", "1e308"], ["--steps", "3"]], config=None)
@example(command="compare", flags=[["--t-max", "1e308"], ["--steps", "3"]], config=None)
@example(command="curve", flags=[["--method", "paper"], ["--t-max", "1.7e308"], ["--steps", "3"]],
         config=None)
@example(command="single", flags=[["--gamma", "1e-5"], ["--t-max", "1e305"], ["--steps", "3"]],
         config=None)
@example(command="compare", flags=[["--gamma", "1e-5"], ["--t-max", "1e305"], ["--steps", "3"]],
         config=None)
@example(command="curve", flags=[["--method", "paper"], ["--gamma", "1e-5"], ["--t-max", "1e305"],
                                 ["--steps", "3"]], config=None)
@example(command="esd", flags=[["--method", "paper"], ["--gamma", "1e-320"]], config=None)
@example(command="steady", flags=[], config=["eta = 0.5"])
def test_cli_exits_cleanly_on_any_input(command, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + [token.replace("{tmp}", tmp) for flag in flags for token in flag]
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            argv += ["--config", path]
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
        if command in JSON_COMMANDS:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert message.startswith("error:") and message.count("\n") == 1, (argv, message)
