"""The frame oracle at a large example budget.

``tests/dram/test_frame_oracle.py`` holds a remembered readback taken as
one channel frame equal to the pick path of a controller that never
remembers, over drawn waves, faults, refresh placements and tracing, and
a remembered fenced kernel program (a GEMV tile's, an elementwise slot's,
an AB write program's, carrying the register loads and mode transitions
of a launch) taken as one frame equal to its lone runs, over drawn
kernel waves, faults, register upsets, exec modes and tracing;
tier-1 runs each on a small budget.  This runs the same properties on a
large one (derandomized, so a run is reproducible):

    PYTHONPATH=src python tests/dram/sweep_frame_oracle.py [EXAMPLES]

``EXAMPLES`` defaults to 3,000 per property (about 4 minutes in all on a
2-core box).  It prints, per property, how many drawn cases took 0, 1,
2, ... frames — for the kernel programs also how many took 0, 1, 2, ...
frames carrying a CRF / SRF load, how many of the frames' windows
replayed by their recorded trace key and were rebuilt after a
trace-cache miss, how many remembered programs the channel declined
for a failed bank, a bank class of its own and an injected row, how
many frames replayed more than one window or crossed a seam (the drawn
kernels include launches, tile programs joined at seams, drained under
a fence penalty of 0 or 7) and how many crossed a mode transition — and
exits non-zero, with hypothesis' minimal failing case, on a mismatch, or
when no case took a frame carrying a load, no case rebuilt a window, no
case declined for one of those reasons, no frame took more than one
window or crossed a seam or no frame crossed a transition (the sweep
would no longer exercise that path: the declines are where the
channel's one verdict, ``PseudoChannel.vouched``, says no).
"""

from __future__ import annotations

import collections
import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.dram.test_frame_oracle import (  # noqa: E402
    DECLINES, PROGRAM_STRATEGIES, STRATEGIES, frame_vs_pick_path, program_frames_vs_lone_path,
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
    loading = histogram(programs, lambda o: o[1])
    print(f"  frames carrying a register load per case {loading}")
    print(f"  windows replayed by recorded key per case {histogram(programs, lambda o: o[2])}")
    rebuilt = histogram(programs, lambda o: o[3])
    print(f"  windows rebuilt after a trace-cache miss per case {rebuilt}")
    failed = 0
    for i, reason in enumerate(DECLINES):
        declined = histogram(programs, lambda o: o[4][i])
        print(f"  programs declined for {reason} per case {declined}")
        if not max(declined):
            print(f"no case declined a program for {reason}")
            failed = 1
    multiple = histogram(programs, lambda o: o[5])
    print(f"  frames of more than one window or across a seam per case {multiple}")
    if not max(multiple):
        print("no frame took more than one window or crossed a seam")
        failed = 1
    crossing = histogram(programs, lambda o: o[6])
    print(f"  frames across a mode transition per case {crossing}")
    if not max(crossing):
        print("no frame crossed a mode transition")
        failed = 1
    if not max(loading):
        print("no case took a frame carrying a register load")
        failed = 1
    if not max(rebuilt):
        print("no case rebuilt a window after a trace-cache miss")
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
