"""Command-line harness for policy/workload benchmarks and exactness checks."""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bench import emit, random_push_rank_stats, run
from .markov import binomial_identity, concavity_check, expected_state_curve
from .oracle import check_supported, opt_cost
from .policies import POLICY_KINDS, Policy
from .workloads import WorkloadSpec, generate


# every option a subcommand may take; each subcommand takes only the ones it reads
_OPTIONS = {
    "--algo": dict(default="move-half", help="policy, or comma list for matrix"),
    "--n": dict(type=int, default=15, help="item count, must be 2^d - 1"),
    "--workload": dict(default="uniform", help="workload kind, or comma list for matrix"),
    "--m": dict(type=int, default=None, help="request count"),
    "--alpha": dict(type=float, default=1.0, help="zipf exponent"),
    "--subset": dict(type=int, default=1, help="cyclic working-set size"),
    "--trace": dict(default=None, help="trace file for the trace workload"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--seeds": dict(default=None, help="comma-separated seed list"),
    "--out": dict(default=None, help="output path (stdout when omitted)"),
    "--format": dict(default="csv", choices=("csv", "json")),
    "--check-mru": dict(action="store_true", help="count MRU violations per run"),
    "--oracle": dict(action="store_true", help="attach the exact offline optimum (n in 3/7)"),
}
_RUN_OPTIONS = tuple(name for name in _OPTIONS if name != "--seeds")


def _comma_list(value, option) -> list[str]:
    """The stripped entries of a comma list: none for an empty value, refused for one of only commas."""
    entries = [e.strip() for e in value.split(",") if e.strip()]
    if value and not entries:
        raise ValueError(f"{option} {value!r} names no entry")
    return entries


def _request_count(args) -> int:
    """--m, or 1000 requests when it is omitted."""
    return 1000 if args.m is None else args.m


def _runs(args, algos, workloads):
    """(algo, WorkloadSpec) for every run in run order, all checked before the first run starts."""
    if "trace" in workloads and args.m is not None:
        raise ValueError("--m does not apply to a trace workload, whose length is its request count")
    runs = []
    for idx, (algo, workload) in enumerate(itertools.product(algos, workloads)):
        spec = WorkloadSpec(kind=workload, n=args.n, m=_request_count(args), alpha=args.alpha,
                            subset_size=args.subset, path=args.trace, seed=args.seed + idx)
        if algo not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {algo!r}")
        runs.append((algo, spec))
    return runs


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args):
    ((algo, spec),) = _runs(args, [args.algo], [args.workload])
    report = run(algo, spec, check_mru=args.check_mru, oracle=args.oracle)
    _write(emit(report, args.format), args.out)
    return 0


def _cmd_matrix(args):
    algos = _comma_list(args.algo, "--algo")
    workloads = _comma_list(args.workload, "--workload")
    reports = [run(algo, spec, check_mru=args.check_mru, oracle=args.oracle)
               for algo, spec in _runs(args, algos, workloads)]
    _write(emit(reports, args.format), args.out)
    return 0


def _seed_list(args):
    if not args.seeds:
        return [args.seed]
    seeds = []
    for s in _comma_list(args.seeds, "--seeds"):
        try:
            seeds.append(int(s))
        except ValueError:
            raise ValueError(f"--seeds entry {s!r} is not an integer") from None
    return seeds


@dataclass
class DepthStatsRow:
    """One rank's line of depth-stats output; the field names are the CSV header."""

    rank: int
    depth_samples: int
    mean_depth: float
    depth_bound: float
    w_samples: int
    mean_w: float | None
    w_bound: int


def _cmd_depth_stats(args):
    m = _request_count(args)
    stats = random_push_rank_stats(args.n, m, _seed_list(args), warmup=m // 10)
    rows = []
    for r in range(1, args.n + 1):
        dc, wc = int(stats["depth_cnt"][r]), int(stats["w_cnt"][r])
        if dc == 0:
            continue
        mean_w = stats["w_sum"][r] / wc if wc else None
        rows.append(DepthStatsRow(r, dc, stats["depth_sum"][r] / dc, float(np.log2(r) + 3),
                                  wc, mean_w, 2 * r - 1))
    _write(emit(rows, args.format, row_type=DepthStatsRow), args.out)
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
    online = [kind for kind in POLICY_KINDS if kind != "static-mfu"]  # static-mfu needs frequencies
    if args.algo not in online:
        raise ValueError(f"oracle-check takes an online policy ({', '.join(online)}), got {args.algo!r}")
    m = _request_count(args)
    check_supported(args.n, m)
    # checks --m and --seed for both kinds of run; the random sequences are 100 * m draws, m to a row
    spec = WorkloadSpec(kind="uniform", n=args.n, m=m, seed=args.seed)
    if args.n == 3 and m <= 6:
        sequences = itertools.product(range(args.n), repeat=m)
    else:
        sequences = generate(replace(spec, m=100 * m)).reshape(100, m).tolist()
    init = tuple(range(args.n))
    worst = 0.0
    floor_violations = 0
    count = 0
    for seq in sequences:
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
    for name, help_text, options in (
        ("run", "simulate one policy on one workload", _RUN_OPTIONS),
        ("matrix", "simulate a policy x workload matrix", _RUN_OPTIONS),
        ("depth-stats", "random-push per-rank depth and deeper-request statistics",
         ("--n", "--m", "--seed", "--seeds", "--out", "--format")),
        ("markov-check", "exact push-down chain checks", ()),
        ("oracle-check", "competitive ratios against the exact offline optimum",
         ("--algo", "--n", "--m", "--seed")),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
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
