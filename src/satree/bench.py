"""Run harness: policy x workload simulations, rank statistics, and report emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .oracle import check_supported, opt_cost
from .policies import POLICY_KINDS, Policy
from .workloads import RequestSequence, WorkloadSpec, generate, zipf_frequencies
from .workset import is_mru

RATIO_EPS = 1e-12


@dataclass
class RunConfig:
    algo: str = "move-half"
    n: int = 15
    m: int = 1000
    workload: str = "uniform"
    alpha: float = 1.0
    subset: int = 1
    trace: str | None = None
    seed: int = 0
    check_mru: bool = False
    oracle: bool = False


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


CSV_FIELDS = [f.name for f in fields(RunReport)]


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
    return _item_frequencies(generate(spec))


def _item_frequencies(seq: RequestSequence) -> np.ndarray:
    """Empirical item frequencies of a sequence; uniform for an empty one."""
    counts = np.bincount(seq.items, minlength=seq.n).astype(np.float64)
    if counts.sum() == 0:
        return np.full(seq.n, 1.0 / seq.n)
    return counts / counts.sum()


def _workload_spec(cfg: RunConfig) -> WorkloadSpec:
    return WorkloadSpec(
        kind=cfg.workload,
        n=cfg.n,
        m=cfg.m,
        alpha=cfg.alpha,
        subset_size=cfg.subset,
        path=cfg.trace,
        seed=cfg.seed,
    )


def run(cfg: RunConfig) -> RunReport:
    """Simulate one policy over one workload and aggregate the ledger."""
    if cfg.algo not in POLICY_KINDS:
        raise ValueError(f"unknown policy {cfg.algo!r}")
    spec = _workload_spec(cfg)
    seq = generate(spec)
    freq = None
    if cfg.algo == "static-mfu":
        # a trace's frequencies are its own item counts, so count the sequence already read
        freq = _item_frequencies(seq) if spec.kind == "trace" else workload_frequencies(spec)
    policy = Policy(cfg.algo, cfg.n, seed=cfg.seed, freq=freq)
    if cfg.oracle:
        check_supported(cfg.n, len(seq))
    init_layout = tuple(int(g) for g in policy.tree.guest)
    violations = 0 if cfg.check_mru else None
    for v in seq.items:
        policy.serve(v)
        if cfg.check_mru and not is_mru(policy.tree, policy.ranks):
            violations += 1
    ws = policy.ws.total
    led = policy.ledger
    return RunReport(
        policy=cfg.algo,
        workload=spec.describe(),
        n=cfg.n,
        m=len(seq),
        seed=cfg.seed,
        access_total=led.access_total,
        adjust_total=led.adjust_total,
        cost_total=led.cost_total,
        ws_bound=ws,
        ratio_cost_over_ws=led.cost_total / max(ws, RATIO_EPS),
        mru_violations=violations,
        opt_cost=opt_cost(seq, init_layout) if cfg.oracle else None,
    )


def random_push_rank_stats(n, m, seeds, warmup=0):
    """Instrumented random-push runs: per-rank depth means and deeper-request counts.

    For every request the pre-update rank and the access depth are recorded.
    For items with a real previous access, the number of requests since that
    access whose target sat strictly deeper (at its request time) is recorded
    against the same rank.  Returns per-rank sums and sample counts summed
    over all seeds, skipping the first `warmup` requests of each run.
    """
    depth_sum = np.zeros(n + 1)
    depth_cnt = np.zeros(n + 1, dtype=np.int64)
    w_sum = np.zeros(n + 1)
    w_cnt = np.zeros(n + 1, dtype=np.int64)
    for seed in seeds:
        seq = generate(WorkloadSpec(kind="uniform", n=n, m=m, seed=int(seed)))
        policy = Policy("random-push", n, seed=int(seed))
        # suf[d] = requests so far whose access depth exceeded d; an item's deeper-request
        # count is acc[v] plus the suf growth at its current depth since base[v] was set
        suf = [0] * (policy.tree.num_levels + 1)
        base = [0] * n
        acc = [0] * n
        seen = bytearray(n)
        guest = policy.tree.guest
        for step, u in enumerate(seq.items):
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
                    v = int(guest[path[j + 1]])  # pushed from depth j to j+1
                    acc[v] += suf[j] - base[v]
                    base[v] = suf[j + 1]
    return {"depth_sum": depth_sum, "depth_cnt": depth_cnt, "w_sum": w_sum, "w_cnt": w_cnt}


def measure_depth_by_rank(n, m, seeds, warmup=0) -> dict:
    """Mean random-push depth per pre-access rank, aggregated over seeds."""
    stats = random_push_rank_stats(n, m, seeds, warmup)
    cnt, tot = stats["depth_cnt"], stats["depth_sum"]
    return {r: tot[r] / cnt[r] for r in range(1, n + 1) if cnt[r]}


def measure_w(n, m, seeds, warmup=0) -> dict:
    """Mean count of deeper-targeted requests between consecutive accesses, per rank."""
    stats = random_push_rank_stats(n, m, seeds, warmup)
    cnt, tot = stats["w_cnt"], stats["w_sum"]
    return {r: tot[r] / cnt[r] for r in range(1, n + 1) if cnt[r]}


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _report_row(report: RunReport):
    return [_format_cell(getattr(report, name)) for name in CSV_FIELDS]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rep in reports:
        writer.writerow(_report_row(rep))
    return buf.getvalue()


def reports_to_json(reports, single=False) -> str:
    payload = asdict(reports[0]) if single and len(reports) == 1 else [asdict(r) for r in reports]
    return json.dumps(payload, indent=2) + "\n"


def emit(report, fmt) -> str:
    """One report or a list of reports as CSV or JSON text."""
    reports = [report] if isinstance(report, RunReport) else list(report)
    single = isinstance(report, RunReport)
    if fmt == "csv":
        text = reports_to_csv(reports)
    elif fmt == "json":
        text = reports_to_json(reports, single=single)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return text


def _parse_cell(name, text):
    if text == "":
        return None
    if name in ("ws_bound", "ratio_cost_over_ws"):
        return float(text)
    if name in ("policy", "workload"):
        return text
    return int(text)


def read_reports_csv(path) -> list[RunReport]:
    """Parse a CSV produced by emit back into reports."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path}")
        out = []
        for row in reader:
            kwargs = {name: _parse_cell(name, cell) for name, cell in zip(header, row)}
            out.append(RunReport(**kwargs))
    return out
