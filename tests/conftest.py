"""Load every vicsim module before any test runs, and let the processes
the tests start import the same vicsim.

hypothesis draws part of its examples from the constants of the loaded
non-test modules. Without this, what a property test checks would depend
on which test files ran before it: ``test_properties.py`` alone never loads
``vicsim.cli``, and ``test_cli_fuzz.py`` alone never loads ``vicsim.oracles``.
"""

import os
from pathlib import Path

import vicsim.cli  # noqa: F401
import vicsim.oracles  # noqa: F401

# pytest puts src on its own path (pyproject.toml); a `python -m vicsim`
# started by a test finds the package through PYTHONPATH instead
_SRC = str(Path(vicsim.cli.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
