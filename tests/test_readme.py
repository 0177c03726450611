"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_documented_values():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library example\n+```python\n(.*?)```", text, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    pair_at_t5, steady_phi, esd = out.getvalue().splitlines()
    assert abs(float(pair_at_t5) - 24.0 / 65.0) <= 1e-6
    assert abs(float(steady_phi) - 4.0 / 7.0) <= 1e-15
    assert esd == "vanishes_at"
