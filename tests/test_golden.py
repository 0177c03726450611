"""Golden CLI outputs: every subcommand against outputs recorded earlier.

``data/golden_cli.json`` holds, for each short config, the argv, the exit
code and the exact stdout and stderr that ``vicsim.cli.main`` produced
when it was recorded. The configs cover every subcommand, both methods,
Bell and product starts, deaths of the published forms around the psi
survival edge eta = 1/sqrt(3), a few invalid configs, flags a command
does not take, configs that break two rules at once (only the first is
reported), and the help of vicsim and of each subcommand, wrapped at 80
columns. A change may move a
printed number by at most 1e-12 (relative above 1); every other
character must stay as recorded.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from vicsim.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
TOL = 1e-12


def _assert_same_text(got, want):
    """Equal outside the numbers, and each number within TOL."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert got_parts[::2] == want_parts[::2]
    for a, b in zip(got_parts[1::2], want_parts[1::2]):
        x, y = float(a), float(b)
        assert abs(x - y) <= TOL * max(1.0, abs(x), abs(y)), (a, b)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    _assert_same_text(out.getvalue(), case["stdout"])
    assert err.getvalue() == case["stderr"]
