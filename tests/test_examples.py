"""Every script under ``examples/`` runs clean on the current API.

The examples are the first code a reader copies, and nothing else
executes them: each runs here in a subprocess with
``DeprecationWarning`` promoted to an error, so an example that drifts
onto a removed or deprecated call form fails tier-1.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_without_deprecation_warnings(script):
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
