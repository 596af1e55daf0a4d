"""Run harness: policy x workload simulations, rank statistics, and report emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from .oracle import check_supported, opt_cost
from .policies import Policy
from .tree import _exact_int
from .workloads import WorkloadSpec, generate, stream, zipf_frequencies
from .workset import is_mru

@dataclass
class RunReport:
    policy: str
    workload: str
    n: int
    m: int
    seed: int
    access_total: int
    adjust_total: int
    cost_total: int
    ws_bound: float
    ratio_cost_over_ws: float
    mru_violations: int | None = None
    opt_cost: int | None = None


def workload_frequencies(spec: WorkloadSpec) -> np.ndarray:
    """Long-run item frequencies implied by a workload spec (drives static-mfu)."""
    if spec.kind == "uniform":
        return np.full(spec.n, 1.0 / spec.n)
    if spec.kind == "zipf":
        return zipf_frequencies(spec.n, spec.alpha)
    if spec.kind == "cyclic":
        freq = np.zeros(spec.n)
        freq[: spec.subset_size] = 1.0 / spec.subset_size
        return freq
    return _item_frequencies(generate(spec), spec.n)


def _item_frequencies(items, n) -> np.ndarray:
    """Empirical frequencies of n items in a request array; uniform for an empty one."""
    counts = np.bincount(items, minlength=n).astype(np.float64)
    if counts.sum() == 0:
        return np.full(n, 1.0 / n)
    return counts / counts.sum()


def run(algo, spec: WorkloadSpec, check_mru=False, oracle=False) -> RunReport:
    """Simulate one policy, seeded with spec.seed, over one workload and aggregate the ledger.

    Requests are served chunk by chunk from stream(spec), so memory does not
    grow with their count; m is the number served.  Only static-mfu on a trace
    holds its whole sequence: its frequencies are the trace's own item counts,
    so the trace is read once.  An oracle run attaches the exact optimum of
    the requests served, at most 12, and is refused before the chunk that
    would exceed them.  check_mru counts requests that leave the tree not MRU.
    """
    if oracle:
        # a drawn workload's length is its spec's m, checked before any request is drawn
        check_supported(spec.n, 0 if spec.kind == "trace" else spec.m)
        served = []
    items = generate(spec) if algo == "static-mfu" and spec.kind == "trace" else None
    freq = None
    if algo == "static-mfu":
        freq = workload_frequencies(spec) if items is None else _item_frequencies(items, spec.n)
    policy = Policy(algo, spec.n, seed=spec.seed, freq=freq)
    if oracle:
        init_layout = tuple(int(g) for g in policy.tree.guest)
    violations = 0 if check_mru else None
    m = 0
    for chunk in stream(spec) if items is None else (items,):
        m += len(chunk)
        if oracle:
            check_supported(spec.n, m)
            served += chunk.tolist()
        for v in memoryview(chunk):  # plain ints, with no copy of the array
            policy.serve(v)
            if check_mru and not is_mru(policy.tree, policy.ranks):
                violations += 1
    ws = policy.ws.total
    led = policy.ledger
    return RunReport(
        policy=algo,
        workload=spec.describe(),
        n=spec.n,
        m=m,
        seed=spec.seed,
        access_total=led.access_total,
        adjust_total=led.adjust_total,
        cost_total=led.cost_total,
        ws_bound=ws,
        # each request adds log2(rank), which is >= 1 unless it hits the rank-1 item; that
        # item starts at the root and costs nothing there, so WS = 0 implies cost = 0
        ratio_cost_over_ws=led.cost_total / ws if ws else 0.0,
        mru_violations=violations,
        opt_cost=opt_cost(served, init_layout) if oracle else None,
    )


def random_push_rank_stats(n, m, seeds, warmup=0):
    """Instrumented random-push runs: per-rank depth means and deeper-request counts.

    For every request the pre-update rank and the access depth are recorded.
    For items with a real previous access, the number of requests since that
    access whose target sat strictly deeper (at its request time) is recorded
    against the same rank.  Returns per-rank sums (float64) and sample
    counts (int64), n + 1 entries each indexed by rank, summed over all
    seeds, skipping the first `warmup` requests of each run.
    """
    # every seed's spec, and then warmup, is checked before the first request is drawn
    specs = [WorkloadSpec(kind="uniform", n=n, m=m, seed=seed) for seed in seeds]
    if not specs:
        raise ValueError("need at least one seed")
    warmup = _exact_int(warmup, "warmup")
    # plain lists: integer sums, exact as float64 in the arrays returned
    depth_sum, depth_cnt, w_sum, w_cnt = ([0] * (n + 1) for _ in range(4))
    for spec in specs:
        requests = chain.from_iterable(map(memoryview, stream(spec)))  # plain ints, a chunk at a time
        policy = Policy("random-push", n, seed=spec.seed)
        # suf[d] = requests so far whose access depth exceeded d; an item's deeper-request
        # count is acc[v] plus the suf growth at its current depth since base[v] was set
        suf = [0] * (policy.tree.num_levels + 1)
        base = [0] * n
        acc = [0] * n
        seen = bytearray(n)
        guest = policy.tree._gv
        for step, u in enumerate(requests):
            k, _, r, path = policy.serve(u)
            if step >= warmup:
                depth_sum[r] += k
                depth_cnt[r] += 1
                if seen[u]:
                    w_sum[r] += acc[u] + suf[k] - base[u]
                    w_cnt[r] += 1
            seen[u] = 1
            for d in range(k):
                suf[d] += 1
            acc[u] = 0
            base[u] = suf[0]
            if path is not None:
                for j in range(len(path) - 1):
                    v = guest[path[j + 1]]  # pushed from depth j to j+1
                    acc[v] += suf[j] - base[v]
                    base[v] = suf[j + 1]
    return {"depth_sum": np.array(depth_sum, dtype=np.float64),
            "depth_cnt": np.array(depth_cnt, dtype=np.int64),
            "w_sum": np.array(w_sum, dtype=np.float64),
            "w_cnt": np.array(w_cnt, dtype=np.int64)}


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(rows, fmt, row_type=RunReport) -> str:
    """One row or a list of rows, each a row_type dataclass, as CSV or JSON text.

    CSV starts with row_type's field names, so an empty list is the header
    alone; JSON is an object for a single row and an array for a list.
    """
    single = isinstance(rows, row_type)
    rows = [rows] if single else list(rows)
    if fmt == "csv":
        names = [f.name for f in fields(row_type)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_format_cell(getattr(row, name)) for name in names] for row in rows)
        return buf.getvalue()
    if fmt == "json":
        payload = asdict(rows[0]) if single else [asdict(row) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
