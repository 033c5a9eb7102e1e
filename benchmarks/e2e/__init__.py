"""The repo's end-to-end wall-clock ledger (see README.md beside this file).

Four closed-loop workloads drive the public entry points of the serving
stack (``PimServer``, ``PimFabric``, ``PimContext.blas``), check every
result bit-exact against the host references, and report wall-clock
end-to-end metrics from an untraced run plus per-layer self times from a
separately traced run.  ``BENCHMARK.json`` at the repo root declares the
metric names, units, directions and regression bounds.

Run it with ``python -m benchmarks.e2e`` from the repo root.
"""

import sys
from pathlib import Path

#: The checkout this package sits in (``benchmarks/e2e`` -> repo root).
ROOT = Path(__file__).resolve().parents[2]

# The program under test lives in ``src/`` and is not installed: make it
# importable the way ``PYTHONPATH=src`` would.  A checkout without
# ``src/repro`` fails at the first ``import repro`` below this package.
_SRC = str(ROOT / "src")
if (ROOT / "src" / "repro").is_dir() and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
