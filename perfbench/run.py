"""satree benchmark: one workload per invocation, one JSON result line at the end.

    python3 perfbench/run.py --workload small-tree --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run: exactly those that BENCHMARK.json names,
which every workload reports (see README.md in this directory).  Raw
measurements, with every metric a workload measured, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 21


def import_satree(src: Path):
    """Import satree afresh (numpy stays loaded), refusing any copy outside src."""
    for name in [m for m in sys.modules if m == "satree" or m.startswith("satree.")]:
        del sys.modules[name]
    st = importlib.import_module("satree")
    importlib.import_module("satree.cli")
    if Path(st.__file__).resolve().parent != src / "satree":
        raise ImportError(f"satree imported from {st.__file__}, not from {src}")
    return st


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "satree" / "__init__.py").is_file():
        print(f"perfbench: no satree sources under {src}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(src))
    import suite

    workload = suite.make(args.workload, ROOT, args.seed)
    # set-up is interpreter-bound at every tree size (imports, per-server
    # list building), so it is paired with the interpreter-bound n = 255 reading
    setup = suite.Normalized(suite.Speedometer(255), readings=9)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        workload.setup(import_satree(src))
        setup.add("setup", time.perf_counter() - t0)
        # the previous sample's module copies and inputs sit in reference cycles;
        # free them, so that peak RSS does not grow with the number of samples
        gc.collect()
    if args.trace:
        metrics = workload.measure_traced()
    else:
        metrics = workload.measure(args.seconds)
        metrics["setup_s"] = (setup.seconds(), "s")
    workload.check()
    for problem in workload.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names if k in metrics},
    }
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    raw = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               setup_samples=setup.samples["setup"], problems=workload.problems, details=workload.details,
               all_metrics={k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())})
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))
    missing = [k for k in names if k not in metrics]
    if missing:
        print(f"perfbench: {args.workload} did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
