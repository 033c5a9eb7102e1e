"""Exhaustive exactness sweep of ``repro.common.fp16.round16``.

For every one of the 2**32 ordered pairs of binary16 bit patterns, and for
each of multiply and add, ``round16(f32(a) op f32(b))`` must equal NumPy's
float16 ``a op b`` bit for bit, except that a NaN lane only has to be NaN
on both sides (the arithmetic contract keeps NaN-ness, not payloads).
The tier-1 hypothesis tests in ``test_fp16.py`` sample the same property
against the softfloat; this sweep covers every pair.

Run it from the repository root (about 7 minutes for both operations on
a 2-core runner; ``--ops mul`` runs one):

    PYTHONPATH=src python tests/common/sweep_round16.py

It prints one line per operation and exits non-zero on the first
operation with a mismatch, naming up to five of the pairs.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.common.fp16 import round16

OPS = {"mul": np.multiply, "add": np.add}
ALL = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
BLOCK = 16  # values of ``a`` per step: 16 x 65,536 lanes


def sweep(op) -> list:
    """The ``(a, b)`` bit patterns where the two paths disagree."""
    b16 = np.tile(ALL, BLOCK)
    b32 = b16.astype(np.float32)
    bad = []
    with np.errstate(all="ignore"):
        for start in range(0, 1 << 16, BLOCK):
            a16 = np.repeat(ALL[start : start + BLOCK], 1 << 16)
            want = op(a16, b16)
            got = round16(op(a16.astype(np.float32), b32)).astype(np.float16)
            differ = want.view(np.uint16) != got.view(np.uint16)
            differ &= ~(np.isnan(want) & np.isnan(got))
            for lane in np.flatnonzero(differ)[: 5 - len(bad)]:
                bad.append((int(a16.view(np.uint16)[lane]), int(b16.view(np.uint16)[lane])))
            if len(bad) >= 5:
                break
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", nargs="+", choices=sorted(OPS), default=sorted(OPS))
    args = parser.parse_args(argv)
    status = 0
    for name in args.ops:
        start = time.perf_counter()
        bad = sweep(OPS[name])
        took = time.perf_counter() - start
        if bad:
            status = 1
            pairs = ", ".join(f"({a:#06x}, {b:#06x})" for a, b in bad)
            print(f"{name}: MISMATCH at {pairs}")
        else:
            print(f"{name}: all 2**32 pairs exact ({took:.0f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
