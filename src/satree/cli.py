"""Command-line harness for policy/workload benchmarks and exactness checks."""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .bench import RunConfig, emit, random_push_rank_stats, run
from .markov import binomial_identity, concavity_check, expected_state_curve
from .oracle import check_supported, opt_cost
from .policies import Policy


def _add_common(p):
    p.add_argument("--algo", default="move-half", help="policy, or comma list for matrix")
    p.add_argument("--n", type=int, default=15, help="item count, must be 2^d - 1")
    p.add_argument("--workload", default="uniform", help="workload kind, or comma list for matrix")
    p.add_argument("--m", type=int, default=1000, help="request count")
    p.add_argument("--alpha", type=float, default=1.0, help="zipf exponent")
    p.add_argument("--subset", type=int, default=1, help="cyclic working-set size")
    p.add_argument("--trace", default=None, help="trace file for the trace workload")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--check-mru", action="store_true", help="count MRU violations per run")
    p.add_argument("--oracle", action="store_true", help="attach the exact offline optimum (n in 3/7)")


def _config(args, algo, workload, seed):
    return RunConfig(
        algo=algo,
        n=args.n,
        m=args.m,
        workload=workload,
        alpha=args.alpha,
        subset=args.subset,
        trace=args.trace,
        seed=seed,
        check_mru=args.check_mru,
        oracle=args.oracle,
    )


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args):
    report = run(_config(args, args.algo, args.workload, args.seed))
    _write(emit(report, args.format), args.out)
    return 0


def _cmd_matrix(args):
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    reports = []
    for idx, (algo, workload) in enumerate(itertools.product(algos, workloads)):
        reports.append(run(_config(args, algo, workload, args.seed + idx)))
    _write(emit(reports, args.format), args.out)
    return 0


def _seed_list(args):
    if args.seeds:
        return [int(s) for s in args.seeds.split(",") if s.strip()]
    return [args.seed]


def _cmd_depth_stats(args):
    seeds = _seed_list(args)
    warmup = args.m // 10
    stats = random_push_rank_stats(args.n, args.m, seeds, warmup=warmup)
    lines = ["rank,depth_samples,mean_depth,depth_bound,w_samples,mean_w,w_bound"]
    rows = []
    for r in range(1, args.n + 1):
        dc, wc = int(stats["depth_cnt"][r]), int(stats["w_cnt"][r])
        if dc == 0:
            continue
        mean_depth = stats["depth_sum"][r] / dc
        mean_w = stats["w_sum"][r] / wc if wc else None
        rows.append((r, dc, mean_depth, float(np.log2(r) + 3), wc, mean_w, 2 * r - 1))
    if args.format == "json":
        import json

        keys = ("rank", "depth_samples", "mean_depth", "depth_bound", "w_samples", "mean_w", "w_bound")
        _write(json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n", args.out)
    else:
        for r, dc, md, db, wc, mw, wb in rows:
            mw_cell = f"{mw:.6g}" if mw is not None else ""
            lines.append(f"{r},{dc},{md:.6g},{db:.6g},{wc},{mw_cell},{wb}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_markov_check(args):
    failed = False
    bad_binom = [w for w in range(1, 51) if abs(binomial_identity(w) - 1.0) >= 1e-9]
    print(f"binomial identity w=1..50: {'ok' if not bad_binom else f'FAIL at {bad_binom}'}")
    failed |= bool(bad_binom)
    for i in (2, 4, 8, 16, 32, 64):
        curve = expected_state_curve(i, 1024)
        bound_ok = all(
            curve[w] < float(np.ceil(np.log2(w))) + 1.0 for w in range(2, 1025)
        )
        concave_ok = concavity_check(i, 1024)
        print(f"chain i={i}: expected-state bound {'ok' if bound_ok else 'FAIL'}, "
              f"concavity {'ok' if concave_ok else 'FAIL'}")
        failed |= not (bound_ok and concave_ok)
    return 1 if failed else 0


def _cmd_oracle_check(args):
    check_supported(args.n, args.m)
    if args.n == 3 and args.m <= 6:
        sequences = itertools.product(range(args.n), repeat=args.m)
    else:
        rng = np.random.default_rng(args.seed)
        sequences = (rng.integers(0, args.n, size=args.m).tolist() for _ in range(100))
    init = tuple(range(args.n))
    worst = 0.0
    floor_violations = 0
    count = 0
    for seq in sequences:
        seq = list(seq)
        policy = Policy(args.algo, args.n, seed=args.seed)
        for v in seq:
            policy.serve(v)
        cost = policy.ledger.cost_total
        opt = opt_cost(seq, init)
        if opt > cost:
            floor_violations += 1
        if policy.ws.total > 4 * opt + 1e-9:
            floor_violations += 1
        if opt > 0:
            worst = max(worst, cost / opt)
        elif cost > 0:
            floor_violations += 1
        count += 1
    print(f"{args.algo} on n={args.n}: {count} sequences, max cost/opt = {worst:.6g}, "
          f"floor violations = {floor_violations}")
    if args.algo == "move-half" and worst > 64:
        floor_violations += 1
        print("FAIL: move-half exceeded the 64x competitive gate")
    return 1 if floor_violations else 0


_COMMANDS = {
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "depth-stats": _cmd_depth_stats,
    "markov-check": _cmd_markov_check,
    "oracle-check": _cmd_oracle_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="satree",
        description="Self-adjusting complete-tree benchmarks under the swap-cost model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate one policy on one workload"),
        ("matrix", "simulate a policy x workload matrix"),
        ("depth-stats", "random-push per-rank depth and deeper-request statistics"),
        ("markov-check", "exact push-down chain checks"),
        ("oracle-check", "competitive ratios against the exact offline optimum"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"satree: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
