"""The frame oracle at a large example budget.

``tests/dram/test_frame_oracle.py`` holds a remembered readback taken as
one channel frame equal to the pick path of a controller that never
remembers, over drawn waves, faults, refresh placements and tracing;
tier-1 runs it on a small budget.  This runs the same property on a
large one (derandomized, so a run is reproducible):

    PYTHONPATH=src python tests/dram/sweep_frame_oracle.py [EXAMPLES]

``EXAMPLES`` defaults to 3,000 (about 75 s on a 2-core box).
It prints how many drawn cases took 0, 1, 2, ... frames and exits
non-zero, with hypothesis' minimal failing case, on a mismatch.
"""

from __future__ import annotations

import collections
import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.dram.test_frame_oracle import STRATEGIES, frame_vs_pick_path  # noqa: E402


def main(examples: int) -> int:
    frames = collections.Counter()

    @settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    @given(**STRATEGIES)
    def check(**draws):
        frames[frame_vs_pick_path(**draws)] += 1

    start = time.perf_counter()
    check()
    print(
        f"{sum(frames.values())} cases, frames taken per case "
        f"{dict(sorted(frames.items()))}, {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
