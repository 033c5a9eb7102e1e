"""The frame oracle at a large example budget.

``tests/dram/test_frame_oracle.py`` holds a remembered readback taken as
one channel frame equal to the pick path of a controller that never
remembers, over drawn waves, faults, refresh placements and tracing, and
a remembered fenced kernel program (a GEMV tile's, an elementwise slot's,
an AB write program's) taken as one frame equal to its lone runs, over
drawn kernel waves, faults, register upsets, exec modes and tracing;
tier-1 runs each on a small budget.  This runs the same properties on a
large one (derandomized, so a run is reproducible):

    PYTHONPATH=src python tests/dram/sweep_frame_oracle.py [EXAMPLES]

``EXAMPLES`` defaults to 3,000 per property (about 4 minutes in all on a
2-core box).  It prints, per property, how many drawn cases took 0, 1,
2, ... frames — for the kernel programs also how many took 0, 1, 2, ...
frames behind a queued CRF / SRF load — and exits non-zero, with
hypothesis' minimal failing case, on a mismatch, or when no case took a
frame behind a load (the sweep would no longer exercise that path).
"""

from __future__ import annotations

import collections
import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.dram.test_frame_oracle import (  # noqa: E402
    PROGRAM_STRATEGIES, STRATEGIES, frame_vs_pick_path, program_frames_vs_lone_path,
)


def sweep(name: str, strategies: dict, prop, examples: int) -> collections.Counter:
    """Run ``prop`` over ``examples`` drawn cases; returns how many cases
    returned each value."""
    outcomes = collections.Counter()

    @settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    @given(**strategies)
    def check(**draws):
        outcomes[prop(**draws)] += 1

    start = time.perf_counter()
    check()
    print(f"{name}: {sum(outcomes.values())} cases, {time.perf_counter() - start:.1f} s")
    return outcomes


def histogram(outcomes: collections.Counter, part=lambda outcome: outcome) -> dict:
    counts = collections.Counter()
    for outcome, cases in outcomes.items():
        counts[part(outcome)] += cases
    return dict(sorted(counts.items()))


def main(examples: int) -> int:
    readback = sweep("readback", STRATEGIES, frame_vs_pick_path, examples)
    print(f"  frames taken per case {histogram(readback)}")
    programs = sweep(
        "kernel programs", PROGRAM_STRATEGIES, program_frames_vs_lone_path, examples
    )
    print(f"  frames taken per case {histogram(programs, lambda o: o[0])}")
    behind = histogram(programs, lambda o: o[1])
    print(f"  frames behind a register load per case {behind}")
    if not max(behind):
        print("no case took a frame behind a register load")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
