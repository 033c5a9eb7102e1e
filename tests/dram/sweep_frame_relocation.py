"""The frame table's relocation differential at a large example budget.

``tests/dram/test_frame_oracle.py::relocated_vs_command_path`` puts a
drawn readback wave or kernel launch on two channels whose controllers
share one frame table, each placement at the row indices or at drawn
moved rows — with ECC on or off and drawn faults on the rows it reaches —
and holds every drain equal to twin channels whose controllers never
remember; tier-1 runs it on a small budget.  This runs the same property
on a large one (derandomized, so a run is reproducible):

    PYTHONPATH=src python tests/dram/sweep_frame_relocation.py [EXAMPLES]

``EXAMPLES`` defaults to 3,000 (about a minute and a half on a 2-core
box).  It prints how many cases took 0, 1, 2, ... frames, frames at
other rows than they were recorded at, frames on another channel, and
entries found at other rows that the channel declined; it exits
non-zero, with hypothesis' minimal failing case, on a mismatch, or when
no case took a moved frame, none took one across channels, or none
declined one for a fault at the moved rows (the sweep would no longer
exercise that path).
"""

from __future__ import annotations

import collections
import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.dram.test_frame_oracle import (  # noqa: E402
    RELOCATED_STRATEGIES, relocated_vs_command_path,
)

PARTS = ("frames", "frames at other rows", "frames on another channel",
         "declined at other rows")


def main(examples: int) -> int:
    outcomes = collections.Counter()

    @settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    @given(**RELOCATED_STRATEGIES)
    def check(**draws):
        outcomes[relocated_vs_command_path(**draws)] += 1

    start = time.perf_counter()
    check()
    print(f"relocated frames: {sum(outcomes.values())} cases, "
          f"{time.perf_counter() - start:.1f} s")
    failed = 0
    for i, part in enumerate(PARTS):
        counts = collections.Counter()
        for outcome, cases in outcomes.items():
            counts[outcome[i]] += cases
        print(f"  {part} per case {dict(sorted(counts.items()))}")
        if i and not max(counts):
            print(f"no case had {part}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
