"""The execution units of one pseudo-channel, driven as a group.

The paper's execution model is lock-step by construction: in AB-PIM mode
every column command is broadcast, so all 8 units of a pseudo-channel fetch
the *same* CRF word and execute the same instruction — only their data
(GRF/SRF contents and bank columns) differs.  The device hands each
broadcast to one :class:`LockstepGroup`, and this one is *eager*: every
trigger runs on every unit, in unit order, through
:meth:`PimExecutionUnit.trigger` before ``trigger_all`` returns.  The unit
is the one model of the instruction semantics and of the sequencer, so
the group adds no rules of its own.

The fast path is the trace-compiled subclass
(:class:`~repro.pim.fused.FusedLockstepGroup`, ``exec_mode="fused"``, the
default): it defers a window's triggers, replays them as a compiled
dataflow program, and falls back to this eager loop for any window it
cannot compile.  ``exec_mode="scalar"`` keeps this class on every channel
and is the oracle the fused path is held bit-exact against.
"""

from __future__ import annotations

from typing import List, Sequence

from .exec_unit import ColumnTrigger, PimExecutionUnit

__all__ = ["LockstepGroup"]


class LockstepGroup:
    """The execution units of one pseudo-channel, triggered eagerly.

    The class keeps its name, and ``trigger_all`` / ``flush_pending`` /
    ``start_all`` / ``stop_all`` keep theirs, because the end-to-end
    ledger (``benchmarks/e2e/tracing.LAYERS``) times the exec layer by
    wrapping those methods by name.
    """

    #: Whether ``trigger_all`` buffers triggers for later execution (and so
    #: cannot raise): False here — every trigger executes, and can raise,
    #: before ``trigger_all`` returns.
    defers = False

    def __init__(self, units: Sequence[PimExecutionUnit]):
        self.units: List[PimExecutionUnit] = list(units)

    def start_all(self) -> None:
        """AB-PIM entry: reset every unit's sequencer (PPC <- 0)."""
        for unit in self.units:
            unit.start()

    def stop_all(self) -> None:
        """AB-PIM exit."""
        for unit in self.units:
            unit.stop()

    def flush_pending(self) -> None:
        """Execute any deferred triggers; a no-op for the eager group.

        The trace-compiled subclass (:mod:`repro.pim.fused`) buffers
        column triggers within an AB-PIM window and executes them in
        compiled groups; the device calls this hook before any
        register-mapped access so deferred state is never observable.
        """

    def abort_pending(self) -> None:
        """Discard any deferred triggers (channel hard-reset path)."""

    def trigger_all(self, trig: ColumnTrigger) -> None:
        """Execute one broadcast column command — or each single command
        of a column burst, in order — on every unit."""
        for single in trig.singles():
            for unit in self.units:
                unit.trigger(single)
