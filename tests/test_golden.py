"""Pinned outputs: each must match its file under tests/golden/ byte for byte.

Three groups are pinned: the CLI commands below (their stdout), the
commands of README's CLI block (the file a command writes through --out,
or its stdout), and demos 02-05 (their stdout).  Demo 01 is left out for
its run time; CI's Demos step still runs it.  A change that alters a
random stream or a report format fails here.  After such a change is
meant, rewrite every file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes why the outputs moved.
"""

import contextlib
import io
import os
import runpy
import sys
import tempfile
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

DEMOS = ("02_push_chain_exactness", "03_depth_profile", "04_tiny_optimum", "05_static_trees")


def readme_commands() -> dict[str, str]:
    """The satree commands of README's CLI block without the program name, keyed readme-<subcommand>."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    argvs = [line.split(maxsplit=1)[1] for line in lines if line.startswith("satree ")]
    return {f"readme-{argv.split()[0]}": argv for argv in argvs}


README_COMMANDS = readme_commands()


def output_of(argv) -> bytes:
    """What satree.cli.main writes for argv, as UTF-8: the --out file if argv names one, else stdout.

    Raises unless the command exits 0, and unless it leaves stdout empty when it writes a file.
    """
    args = argv.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    if rc != 0:
        raise RuntimeError(f"satree {argv} exited {rc}")
    if "--out" not in args:
        return buf.getvalue().encode("utf-8")
    if buf.getvalue():
        raise RuntimeError(f"satree {argv} wrote to stdout as well as to its --out file")
    return Path(args[args.index("--out") + 1]).read_bytes()


def demo_output(name) -> bytes:
    """What demos/<name>.py writes to stdout, run in this process, as UTF-8."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert output_of(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_matches_golden_file(name, tmp_path, monkeypatch):
    # the commands write their --out files into the directory they run in
    monkeypatch.chdir(tmp_path)
    assert output_of(README_COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden_file(name):
    assert demo_output(name) == (GOLDEN / f"demo-{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["matrix-check-mru", "run-move-half-trace"])
def test_output_does_not_depend_on_the_chunk_size(name, monkeypatch):
    # workloads are drawn and traces read in chunks; chunks of 7 requests (a trace's blocks
    # of 7 bytes) put thousands of chunk boundaries inside each run
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "CHUNK", 7)
    assert output_of(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


def _write(name, output):
    (GOLDEN / f"{name}.out").write_bytes(output)
    print(f"wrote {GOLDEN / name}.out", file=sys.stderr)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(ROOT)
    for name, argv in COMMANDS.items():
        _write(name, output_of(argv))
    for name in DEMOS:
        _write(f"demo-{name}", demo_output(name))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in README_COMMANDS.items():
            _write(name, output_of(argv))
        os.chdir(ROOT)
