"""Recorded digests of what the command line prints.

``tests/golden/outputs.json`` keeps one sha256 per (command, stream) of
``python -m repro``: the stdout of ``demo``, ``specs``, ``report``, bare
``trace``, ``serve-bench --seed 3`` and ``chaos --seed 7``, and for
``trace --out`` its stdout and the two files it writes, the temporary
directory they went to printed as ``<tmp>``.  Each of these prints the
same bytes in every run, so a change that moves a simulated figure, an
event order or a printed metric moves a digest; a change that means to
run nothing differently moves none.

    PYTHONPATH=src python tests/golden/outputs.py           # re-record
    PYTHONPATH=src python tests/golden/outputs.py --check   # CI job cli-outputs

``--check`` runs every command and names each stream whose digest
differs from the file.  Tier-1 checks the ``demo``, ``specs``, ``trace``
and ``report`` digests inside the processes
``tests/integration/test_cli.py`` starts anyway (:func:`digest`,
:func:`recorded`).  A change meant to move printed output re-records
the file and lists every moved digest in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("outputs.json")

#: Each recorded command's arguments; ``{tmp}`` is a fresh directory.
COMMANDS = {
    "demo": ("demo",),
    "specs": ("specs",),
    "report": ("report",),
    "trace": ("trace",),
    "trace --out": (
        "trace", "--out", "{tmp}/trace.json", "--spans", "{tmp}/spans.jsonl",
    ),
    "serve-bench --seed 3": ("serve-bench", "--seed", "3"),
    "chaos --seed 7": ("chaos", "--seed", "7"),
}

#: The files a command writes into ``{tmp}``, each one more stream.
FILES = {"trace --out": ("trace.json", "spans.jsonl")}


def digest(text: str, tmp: Optional[str] = None) -> str:
    """sha256 of ``text`` with the directory ``tmp`` printed as ``<tmp>``."""
    if tmp is not None:
        text = text.replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


def recorded() -> Dict[str, Dict[str, str]]:
    """The recorded digests, by command, then stream."""
    return json.loads(GOLDEN.read_text())


def run(name: str) -> Dict[str, str]:
    """Run one recorded command in a subprocess; its streams' digests."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [arg.format(tmp=tmp) for arg in COMMANDS[name]]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
        )
        if result.returncode != 0:
            raise SystemExit(
                f"{name}: exit {result.returncode}\n{result.stderr}"
            )
        streams = {"stdout": digest(result.stdout, tmp)}
        for file in FILES.get(name, ()):
            streams[file] = digest((pathlib.Path(tmp) / file).read_text(), tmp)
    return streams


def main(argv) -> int:
    got = {name: run(name) for name in COMMANDS}
    if "--check" not in argv:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sum(map(len, got.values()))} digests to {GOLDEN}")
        return 0
    want = recorded()
    moved = [
        f"{name} / {stream}"
        for name in sorted(set(got) | set(want))
        for stream in sorted(set(got.get(name, {})) | set(want.get(name, {})))
        if got.get(name, {}).get(stream) != want.get(name, {}).get(stream)
    ]
    for line in moved:
        print(f"moved: {line}")
    total = sum(map(len, want.values()))
    print(f"{total - len(moved)} of {total} recorded digests unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
