"""Record this checkout's performance numbers in BENCH_<pr>.json at the root of the checkout.

    python tools/record_bench.py <pr>

Run it from any directory, with nothing else busy on the host; it takes a
few minutes and gates nothing.  It records:

- baseline: requests/s of Policy.serve on 20 000 zipf(1) requests drawn
  with seed 1 and served as plain ints from a list, per policy kind at
  n = 255, 16383 and 131071: the median of four batches, each the median
  of three runs, with the batches' range;
- satree_run: wall time and the child's own peak RSS of
  `satree run --algo move-half --n 255 --workload zipf` at m = 10^5 and
  10^6, three runs each;
- tier1: the tier-1 suite's wall time and outcome counts, its seconds per
  test file, and gate c10's seconds on their own;
- perfbench: the result line of `perfbench/run.py --seed 1 --seconds 5
  --trace 0` for every workload, run with bytecode writes off;
- host: the core count, the commit and a hash of the checkout's changes
  against it (Markdown files aside), and the Python and numpy versions.

Compare two files only when they were written on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (255, 16383, 131071)
KINDS = ("fixed", "move-half", "random-push", "max-push")
REQUESTS = 20_000
BATCHES, RUNS = 4, 3
PERFBENCH_SECONDS = 5
RUN_MS = (10**5, 10**6)
WORKLOADS = ("small-tree", "large-tree", "cli-run", "analysis")


def env() -> dict:
    """The environment of a child: satree from this checkout's src, bytecode writes off."""
    return dict(os.environ, **overrides())


def overrides() -> dict:
    """The variables env() sets on top of this process's environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path}


def shown(cmd) -> str:
    """cmd as a shell line, with env()'s overrides in front and paths relative to the checkout."""
    words = [f"{k}={v}" for k, v in overrides().items()] + ["python" if w == sys.executable else w for w in cmd]
    return shlex.join(words).replace(str(ROOT) + os.sep, "").replace(str(ROOT), ".")


def baseline() -> dict:
    """Requests/s per kind and n: median and range over BATCHES batches, each the median of RUNS runs."""
    sys.path.insert(0, str(ROOT / "src"))
    from satree import Policy, WorkloadSpec, generate  # imported here, not at the top: see main

    table = {}
    for n in SIZES:
        items = generate(WorkloadSpec(kind="zipf", n=n, m=REQUESTS, alpha=1.0, seed=1)).tolist()
        for kind in KINDS:
            batches = []
            for _ in range(BATCHES):
                rates = []
                for _ in range(RUNS):
                    serve = Policy(kind, n, seed=1).serve
                    t0 = time.perf_counter()
                    for u in items:
                        serve(u)
                    rates.append(REQUESTS / (time.perf_counter() - t0))
                batches.append(statistics.median(rates))
            table.setdefault(str(n), {})[kind] = {"median": statistics.median(batches),
                                                  "range": [min(batches), max(batches)], "batches": batches}
    return table


def satree_run() -> list:
    """Wall seconds and child peak RSS in MB of `satree run`, read by perfbench's CLI child from VmHWM."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        measures = Path(tmp) / "measures.json"
        for m in RUN_MS:
            args = ["run", "--algo", "move-half", "--n", "255", "--workload", "zipf", "--m", str(m)]
            walls, rss = [], []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "perfbench/cli_child.py", str(measures), "-", *args],
                               cwd=ROOT, env=env(), stdout=subprocess.DEVNULL, check=True)
                walls.append(time.perf_counter() - t0)
                rss.append(json.loads(measures.read_text())["peak_rss_mb"])
            rows.append({"argv": ["satree", *args], "wall_s": statistics.median(walls), "walls_s": walls,
                         "peak_rss_mb": statistics.median(rss), "peak_rss_mbs": rss})
    return rows


def tier1() -> dict:
    """The tier-1 suite's wall time, outcome counts, seconds per test file, and c10's seconds.

    If pytest wrote no report, only its command, exit code and wall time are recorded.
    """
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
               f"--junitxml={report}"]
        t0 = time.perf_counter()
        code = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=subprocess.DEVNULL).returncode
        out = {"command": shown(cmd[:-1]), "exit_code": code, "wall_s": time.perf_counter() - t0}
        if not report.exists():
            return out
        suite = ET.parse(report).getroot()
    suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    per_file, c10 = {}, 0.0
    for case in suite.iter("testcase"):
        # classname is the dotted module path, then any test class: tests.test_model.TestModel
        path = "/".join(case.get("classname").split(".")[:2]) + ".py"
        seconds = float(case.get("time", 0))
        per_file[path] = per_file.get(path, 0.0) + seconds
        if case.get("name").startswith("test_c10_"):
            c10 += seconds
    counts = {k: int(suite.get(k, 0)) for k in ("tests", "failures", "errors", "skipped")}
    return {**out, **counts, "c10_s": c10, "per_file_s": dict(sorted(per_file.items(), key=lambda kv: -kv[1]))}


def perfbench() -> dict:
    """The last stdout line of an untraced perfbench run per workload, as JSON, or the failure."""
    out = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env(), capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        out[workload] = (json.loads(lines[-1]) if proc.returncode == 0 and lines
                         else {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]})
    return out


def host() -> dict:
    import numpy as np

    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True).stdout

    # the changes to tracked files against the commit, but for Markdown and the BENCH files this tool writes
    changes = git("diff", "HEAD", "--binary", "--", ".", ":(exclude)*.md", ":(exclude)BENCH_*.json")
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": git("rev-parse", "HEAD").decode().strip() or None,
            "changes_sha256": hashlib.sha256(changes).hexdigest() if changes else None,
            "python": platform.python_version(), "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pr", type=int, help="the number in the file name BENCH_<pr>.json")
    args = ap.parse_args(argv)
    record = {"pr": args.pr}
    # perfbench's in-process workloads read their peak RSS from ru_maxrss, which also counts the RSS
    # of the process that starts them; so they run first, while this process has not imported numpy
    for name, measure in (("perfbench", perfbench), ("satree_run", satree_run),
                          ("tier1", tier1), ("baseline", baseline), ("host", host)):
        t0 = time.perf_counter()
        record[name] = measure()
        print(f"record_bench: {name} took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
