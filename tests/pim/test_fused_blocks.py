"""The fused executor's bank operands: a run moves as a block, anything
else keeps the index-array path.

Whether a group's columns are one ascending run is decided when the trace
is compiled (``_GroupBuilder.finish``), never per replay.  Kernels only
ever emit runs, so the out-of-order case is pinned here: it must compile
to the index-array plan and stay bit-exact with both interpreters.
"""

import pytest

from repro.dram.bank import Bank
from repro.dram.ecc import EccBank
from repro.pim import fused

from tests.pim.test_fused_differential import _assert_threeway, _build_fused, _run_window
from tests.pim.test_lockstep import _program, _rd, _wr

ELEMENTWISE = (
    "FILL GRF_A[A], EVEN_BANK\n"
    "JUMP -1, 7\n"
    "ADD GRF_B[A], GRF_A[A], ODD_BANK\n"
    "JUMP -1, 7\n"
    "MOV EVEN_BANK[A], GRF_B[A]\n"
    "JUMP -1, 7\n"
    "EXIT"
)


def _window(cols):
    return (
        [_rd(1, c) for c in cols] + [_rd(1, c) for c in cols] + [_wr(2, c) for c in cols]
    )


def _bank_plans(group):
    (key,) = group.cache.keys()
    entry = group.cache.get(key)
    plans = []
    for step in entry.groups:
        plans += [plan for plan in step.reads if plan[0] == "bank"]
        if step.dst[0] == "bank":
            plans.append(step.dst)
    return plans


@pytest.mark.parametrize("bank_cls", [Bank, EccBank])
@pytest.mark.parametrize(
    "cols, col0",
    [
        (list(range(8)), 0),  # what every kernel emits
        (list(range(7, -1, -1)), None),  # descending
        ([0, 2, 4, 6, 1, 3, 5, 7], None),  # a permutation with gaps
    ],
)
def test_runs_compile_to_blocks_and_the_rest_to_index_arrays(bank_cls, cols, col0, monkeypatch):
    triggers = _window(cols)
    _assert_threeway(ELEMENTWISE, triggers, seed=3, bank_cls=bank_cls)

    group = _build_fused(3, bank_cls=bank_cls)
    _program(group, ELEMENTWISE)
    calls = []
    for name in ("peek_block", "poke_block"):
        real = getattr(fused, name)
        monkeypatch.setattr(
            fused, name, lambda *args, _n=name, _f=real: (calls.append(_n), _f(*args))[1]
        )
    assert _run_window(group, triggers) is None
    plans = _bank_plans(group)
    assert len(plans) == 3 and group.fused_replays == 1
    for plan in plans:
        assert list(plan[3]) == cols and plan[4] == col0
    # One block call per bank operand — or none at all.
    assert calls == ([] if col0 is None else ["peek_block", "peek_block", "poke_block"])
