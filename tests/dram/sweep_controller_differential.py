"""The controller's differential properties at their large example budgets.

``tests/dram/test_controller_differential.py`` holds the run-window
scheduler equal to the reference controller over drawn request streams,
over the same streams on ECC channels with flipped bits and dead banks,
over illegal all-bank streams, and a drawn program drain equal to the
reference fed its single requests (a frame exactly where one is due);
tier-1 runs each on a small budget.  This runs the same properties on
the large ones (derandomized, so a run is reproducible):

    PYTHONPATH=src python tests/dram/sweep_controller_differential.py

It prints each property's cases and time, and exits non-zero, with
hypothesis' minimal failing case, on a mismatch.
"""

from __future__ import annotations

import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.dram.test_controller_differential import (  # noqa: E402
    DAMAGE_DRAWS, ILLEGAL_DRAWS, PROGRAM_DRAWS, SCHEDULER_DRAWS, illegal_streams_fail_identically,
    program_drains_as_reference, runs_over_damage_match_reference, scheduler_matches_reference,
)

PROPERTIES = (
    ("scheduler vs reference", SCHEDULER_DRAWS, scheduler_matches_reference, 250),
    ("runs over damage vs reference", DAMAGE_DRAWS, runs_over_damage_match_reference, 150),
    ("illegal all-bank streams", ILLEGAL_DRAWS, illegal_streams_fail_identically, 60),
    ("program drains vs reference", PROGRAM_DRAWS, program_drains_as_reference, 150),
)


def sweep(name: str, strategies: dict, prop, examples: int) -> None:
    """Run ``prop`` over ``examples`` drawn cases."""
    cases = [0]

    @settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    @given(**strategies)
    def check(**draws):
        cases[0] += 1
        prop(**draws)

    start = time.perf_counter()
    check()
    print(f"{name}: {cases[0]} cases, {time.perf_counter() - start:.1f} s")


def main() -> int:
    for name, strategies, prop, examples in PROPERTIES:
        sweep(name, strategies, prop, examples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
