"""Pinned CLI outputs: each command's stdout must match its file under tests/golden/ byte for byte.

A change that alters a random stream or a report format fails here.  After
such a change is meant, rewrite every file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes why the outputs moved.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

import satree.workloads as workloads
from satree.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# the reports print the trace path as given, so it is relative to ROOT, the directory the commands run in
TRACE = "tests/data/chunked.trace"

COMMANDS = {
    "run-random-push-zipf": "run --algo random-push --n 255 --workload zipf --m 20000 --seed 3 --format json",
    "matrix-check-mru": "matrix --algo move-half,random-push,max-push,fixed,static-mfu "
                        "--workload uniform,zipf,cyclic --n 255 --m 20000 --check-mru",
    "depth-stats": "depth-stats --n 63 --m 4000 --seeds 1,2,3",
    "run-max-push-large": "run --algo max-push --n 131071 --workload zipf --m 5000 --check-mru",
    "oracle-check": "oracle-check --algo random-push --n 7 --m 6 --seed 4",
    "run-move-half-trace": f"run --algo move-half --n 63 --workload trace --trace {TRACE} --check-mru",
    "run-static-mfu-trace": f"run --algo static-mfu --n 63 --workload trace --trace {TRACE} --format json",
}


def stdout_of(argv) -> bytes:
    """What satree.cli.main writes to stdout for argv, as UTF-8; raises unless it exits 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv.split())
    if rc != 0:
        raise RuntimeError(f"satree {argv} exited {rc}")
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert stdout_of(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["matrix-check-mru", "run-move-half-trace"])
def test_output_does_not_depend_on_the_chunk_size(name, monkeypatch):
    # workloads are drawn and traces read in chunks; chunks of 7 requests (a trace's blocks
    # of 7 bytes) put thousands of chunk boundaries inside each run
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "CHUNK", 7)
    assert stdout_of(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_bytes(stdout_of(argv))
        print(f"wrote {GOLDEN / name}.out", file=sys.stderr)
