"""Self-agreement: run the benchmark in two sets and compare the sets against BENCHMARK.json.

    python3 perfbench/agree.py

Each of the two sets runs every workload once per seed, workloads interleaved; set k
uses seeds 100k + 1 .. 100k + 10.  For every end-to-end metric of every
workload it prints the median and quartiles of each set, the spread (third
minus first quartile over the median) and whether the sets agree: the
spread within the bound, the later median no worse than the first by more
than the bound, and the same share of failed operations.
Results go to perfbench/out/agree.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for k in range(2):
        runs = {w: [] for w in workloads}
        for seed in range(100 * k + 1, 100 * k + RUNS + 1):
            for w in workloads:
                r = run_once(spec["command"], w, seed, spec["run_seconds"])
                runs[w].append(r)
                print(f"set {k} seed {seed} {w}: {r['elapsed_s']:.1f}s correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    report = {}
    for w in workloads:
        print(f"\n{w}")
        report[w] = {}
        names = sorted(set().union(*(r["metrics"] for s in sets for r in s[w])))
        for name in names:
            bound = bounds.get(name)
            if bound is None:
                print(f"  {name}: not declared in BENCHMARK.json")
                ok = False
                continue
            stats = [summary([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            sign = 1 if bound["better"] == "lower" else -1
            worse = max(sign * (s["median"] - stats[0]["median"]) / abs(stats[0]["median"]) for s in stats)
            agree = worse <= bound["bound"] and all(s["spread"] <= bound["bound"] for s in stats)
            ok &= agree
            report[w][name] = {"sets": stats, "worse": worse, "bound": bound["bound"], "agree": agree}
            cells = "  ".join(f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}"
                              for s in stats)
            print(f"  {name:28s} {cells}  worse {worse:+.4f} / bound {bound['bound']}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = [sorted({r["failed"] / r["attempted"] for r in s[w]}) for s in sets]
        same = all(sh == shares[0] and len(sh) == 1 for sh in shares)
        ok &= same and all(r["correct"] for s in sets for r in s[w])
        print(f"  failed share per set: {shares}  {'same' if same else 'DIFFERENT'}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "agree.json").write_text(json.dumps({"report": report, "runs": sets}, indent=1))
    print("\nall metrics agree" if ok else "\nsome metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
