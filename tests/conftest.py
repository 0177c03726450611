"""Load every vicsim module before any test runs.

hypothesis draws part of its examples from the constants of the loaded
non-test modules. Without this, what a property test checks would depend
on which test files ran before it: ``test_properties.py`` alone never loads
``vicsim.cli``, and ``test_cli_fuzz.py`` alone never loads ``vicsim.oracles``.
"""

import vicsim.cli  # noqa: F401
import vicsim.oracles  # noqa: F401
