"""The fused executor's relocation differential at a large example budget.

``tests/pim/test_trace_cache.py::relocated_vs_units`` runs a drawn
microkernel's window, then the same window moved to a drawn permutation
of the bank rows — on ECC banks or not, with a drawn word injected on
the moved rows — on the execution units and on the fused group, whose
moved window must hit the first window's trace and leave what the units
leave (or raise what they raise); tier-1 runs it on a small fixed-draw
budget.  This runs the same property on a large one (derandomized, so a
run is reproducible):

    PYTHONPATH=src python tests/pim/sweep_fused_relocation.py [EXAMPLES]

``EXAMPLES`` defaults to 3,000 (about a minute on a 2-core box).  It
prints how many cases replayed the moved window from the first one's
trace, ran it on the units (a poisoned trace) or raised in the first
window, and, of the replays, how many met an injected word on the moved
rows and how many raised; it exits non-zero, with hypothesis' minimal
failing case, on a mismatch, or when no case replayed a moved window,
none replayed one over an injected word, or none raised in one (the
sweep would no longer exercise that path).
"""

from __future__ import annotations

import collections
import pathlib
import sys
import time

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.pim.test_trace_cache import RELOCATION_DRAWS, relocated_vs_units  # noqa: E402


def main(examples: int) -> int:
    outcomes = collections.Counter()

    @settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    @given(**RELOCATION_DRAWS)
    def check(**draws):
        outcomes[relocated_vs_units(**draws)] += 1

    start = time.perf_counter()
    check()
    print(f"relocation: {sum(outcomes.values())} cases, {time.perf_counter() - start:.1f} s")
    paths = collections.Counter()
    for (path, _, _), cases in outcomes.items():
        paths[path or "raised in the first window"] += cases
    print(f"  moved windows by path {dict(sorted(paths.items()))}")
    replays = {key[1:]: cases for key, cases in outcomes.items() if key[0] == "replayed"}
    injected = sum(cases for (over, _), cases in replays.items() if over)
    raised = sum(cases for (_, raised), cases in replays.items() if raised)
    print(f"  replays over an injected word {injected}, replays that raised {raised}")
    failed = 0
    for name, count in (
        ("replayed a moved window", paths["replayed"]),
        ("replayed a moved window over an injected word", injected),
        ("raised in a replayed moved window", raised),
    ):
        if not count:
            print(f"no case {name}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
