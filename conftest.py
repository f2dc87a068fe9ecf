"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (useful for running the test suite directly from a checkout),
registers the ``slow`` marker so the fast tier can be selected with
``-m "not slow"``, and turns an unexpected ``DeadlockWarning`` into an error:
a test that builds a system with a channel-dependency cycle on purpose says
so with ``pytest.warns``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running perf/benchmark tests (deselect with -m \"not slow\")")
    config.addinivalue_line(
        "filterwarnings",
        "error::repro.analysis.deadlock.DeadlockWarning")
