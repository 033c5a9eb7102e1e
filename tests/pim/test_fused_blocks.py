"""The fused executor's bank operands: a run moves as a block, anything
else keeps the index-array path.

Whether a bank run's columns ascend is decided when the trace is compiled
(``fused._schedule``), never per replay.  Kernels only ever emit ascending
runs, so the out-of-order case is pinned here: it must compile to the
index-array plan and stay bit-exact with both interpreters.
"""

import pytest

from repro.dram.bank import Bank
from repro.dram.ecc import EccBank
from repro.pim import fused

from tests.pim.test_fused_differential import (
    _assert_threeway,
    _build_fused,
    _compiled,
    _run_window,
)
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
    entry = _compiled(group)
    # The FILL's and the ADD's operand are the window's two fetches; the
    # one add and the write-out are its ops.
    assert [op.kind for op in entry.fetches] == ["load", "load"]
    assert [op.kind for op in entry.ops] == ["add", "store"]
    assert group.fused_replays == 1
    for op in entry.fetches + entry.ops[1:]:
        _, _, plan_cols, plan_col0, _ = op.bank
        assert list(plan_cols) == cols and plan_col0 == col0
    # One block call per bank run — or none at all.
    assert calls == ([] if col0 is None else ["peek_block", "peek_block", "poke_block"])


@pytest.mark.parametrize("bank_cls", [Bank, EccBank])
def test_ascending_runs_of_one_row_merge_into_one_block(bank_cls):
    """Two 8-column chunks of one row are one 16-column block; the next
    row starts a new one."""
    source = "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 23\nEXIT"
    triggers = [_rd(0, c) for c in range(16)] + [_rd(1, c) for c in range(8)]
    _assert_threeway(source, triggers, seed=5, bank_cls=bank_cls, cols=16)
    group = _build_fused(5, bank_cls=bank_cls, cols=16)
    _program(group, source)
    assert _run_window(group, triggers) is None
    runs = [(op.bank[1], op.bank[3], len(op.bank[2])) for op in _compiled(group).fetches]
    assert runs == [(0, 0, 16), (1, 0, 8)]
