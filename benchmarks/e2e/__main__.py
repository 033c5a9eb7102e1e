"""Command line of the end-to-end ledger.

Three ways in:

* ``python -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` (the end-to-end metrics untraced, the
  per-layer metrics traced).  This is the form ``BENCHMARK.json`` names.
* ``python -m benchmarks.e2e --seed N [--traced] [--out FILE]`` runs all
  four workloads, one subprocess each (clean heap, clean ``ru_maxrss``),
  prints every metric by name with its unit and sample counts, and
  writes the combined document.
* ``python -m benchmarks.e2e --compare A.json B.json`` applies the
  bounds of ``BENCHMARK.json`` to two such documents.

Any correctness or hygiene failure is a non-zero exit naming the
workload and the request.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

from . import ROOT
from .compare import compare_documents
from .measure import Sizes, measure
from .tracing import trace
from .workloads import SPECS, stop_children

SCHEMA = "e2e/v1"


def _declared_seconds() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        return int(json.load(handle)["run_seconds"])


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> Dict:
    """Run one workload here; returns its full record."""
    sizes = Sizes.for_quick() if quick else Sizes()
    if traced:
        return trace(SPECS[name], seed, seconds, sizes)
    return measure(SPECS[name], seed, seconds, sizes)


def render(record: Dict) -> List[str]:
    """Every metric of one workload by name, with unit and sample counts."""
    samples = " ".join(f"{k}={v}" for k, v in record["samples"].items())
    flag = "  DISTURBED" if record["disturbed"] else ""
    lines = [
        f"{record['workload']}: attempted={record['attempted']} "
        f"failed={record['failed']} "
        f"failed_share={record['failed'] / record['attempted']:.6g} "
        f"{samples}{flag}"
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record.get("host", {}).items():
        lines.append(f"  host.{name:33s} {value:14.6g}")
    lines.extend(f"  FAILURE: {text}" for text in record["failures"])
    return lines


def _driver_line(record: Dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(seed: int, seconds: float, traced: bool, quick: bool, out: str) -> int:
    """All four workloads, one subprocess each; returns the exit code."""
    document = {
        "schema": SCHEMA, "seed": seed, "traced": traced, "quick": quick,
        "seconds": seconds, "workloads": {},
    }
    status = 0
    for name in SPECS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2e_out-") as scratch:
            record_path = os.path.join(scratch, "record.json")
            command = [
                sys.executable, "-m", "benchmarks.e2e",
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced)),
                "--record", record_path,
            ]
            if quick:
                command.append("--quick")
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900
            )
            if not os.path.exists(record_path):
                print(f"{name}: no result (exit {done.returncode})")
                status = 1
                continue
            with open(record_path) as handle:
                record = json.load(handle)
        document["workloads"][name] = record
        print("\n".join(render(record)), flush=True)
        if done.returncode != 0 or not record["correct"]:
            status = 1
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; never recorded")
    parser.add_argument("--out", default="", help="write the document here")
    parser.add_argument("--record", default="", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare_documents(*args.compare)
    traced = bool(args.trace) or args.traced
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else _declared_seconds()
    if args.workload is None:
        return run_all(args.seed, seconds, traced, args.quick, args.out)
    try:
        record = run_one(args.workload, args.seed, seconds, traced, args.quick)
    finally:
        stop_children()  # on every path out: nothing of ours outlives us
    print("\n".join(render(record)))
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print(_driver_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
