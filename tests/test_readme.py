"""The README's library example and CLI examples run as printed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from vicsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each ``vicsim ...`` line of the README's sh blocks
CLI_EXAMPLES = [line for block in re.findall(r"```sh\n(.*?)```", TEXT, re.DOTALL)
                for line in block.splitlines() if line.startswith("vicsim ")]


def test_library_example_prints_its_documented_values():
    example = re.search(r"## Library example\n+```python\n(.*?)```", TEXT, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    pair_at_t5, steady_phi, esd = out.getvalue().splitlines()
    assert abs(float(pair_at_t5) - 24.0 / 65.0) <= 1e-6
    assert abs(float(steady_phi) - 4.0 / 7.0) <= 1e-15
    assert esd == "vanishes_at"


def test_readme_shows_cli_examples():
    assert len(CLI_EXAMPLES) >= 6


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_runs(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)  # the examples write their output files here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert (code, err.getvalue()) == (0, "")
