"""Run harness, instrumented statistics, and report serialization."""

import csv
import json
from dataclasses import fields

import pytest

from satree import (
    Policy,
    RunReport,
    emit,
    random_push_rank_stats,
    run,
    workload_frequencies,
)
from satree.workloads import WorkloadSpec


def test_fixed_policy_run_never_adjusts():
    rep = run("fixed", WorkloadSpec(kind="zipf", n=15, m=500, seed=1))
    assert rep.adjust_total == 0
    assert rep.cost_total == rep.access_total
    assert rep.cost_total >= rep.ws_bound / 4


def test_root_only_workload_costs_nothing():
    rep = run("move-half", WorkloadSpec(kind="cyclic", n=7, m=100, subset_size=1))
    assert rep.cost_total == 0
    assert rep.ws_bound == 0.0
    assert rep.ratio_cost_over_ws == 0.0


def test_empty_workload_costs_nothing():
    rep = run("move-half", WorkloadSpec(kind="uniform", n=7, m=0))
    assert (rep.m, rep.cost_total, rep.ws_bound, rep.ratio_cost_over_ws) == (0, 0, 0.0, 0.0)


def test_run_report_is_seed_deterministic():
    spec = WorkloadSpec(kind="cyclic", n=15, m=10000, subset_size=4, seed=3)
    assert emit(run("random-push", spec), "csv") == emit(run("random-push", spec), "csv")


def test_oracle_refused_for_large_trees():
    with pytest.raises(ValueError, match="refused"):
        run("fixed", WorkloadSpec(kind="uniform", n=15, m=10), oracle=True)


def test_oracle_refuses_long_runs_before_simulating(monkeypatch):
    import satree.bench as bench
    import satree.workloads as workloads

    def entered(*args, **kwargs):
        raise AssertionError("a request was drawn or served")

    monkeypatch.setattr(Policy, "serve", entered)
    for module in (bench, workloads):
        monkeypatch.setattr(module, "stream", entered)
    monkeypatch.setattr(bench, "generate", entered)
    for kind in ("uniform", "zipf", "cyclic"):
        with pytest.raises(ValueError, match="at most 8 requests supported for n=7"):
            run("move-half", WorkloadSpec(kind=kind, n=7, m=200000), oracle=True)


@pytest.mark.parametrize("lines, refused", [(12, False), (13, True)])
def test_oracle_on_a_trace_checks_its_length(tmp_path, lines, refused):
    path = tmp_path / "requests.trace"
    path.write_text("# at most 12 requests at n=3\n" + "2\n1\n0\n" * (lines // 3) + "2\n" * (lines % 3))
    spec = WorkloadSpec(kind="trace", n=3, m=1000, path=str(path))
    if refused:
        with pytest.raises(ValueError, match="at most 12 requests supported for n=3"):
            run("move-half", spec, oracle=True)
    else:
        rep = run("move-half", spec, oracle=True)
        assert rep.m == lines and rep.cost_total >= rep.opt_cost


def test_static_mfu_reads_its_trace_once(tmp_path, monkeypatch):
    import satree.workloads as workloads

    path = tmp_path / "requests.trace"
    path.write_text("6\n6\n6\n5\n")
    calls = []
    read_trace = workloads.read_trace
    monkeypatch.setattr(workloads, "read_trace",
                        lambda *args: calls.append(args) or read_trace(*args))
    rep = run("static-mfu", WorkloadSpec(kind="trace", n=7, path=str(path)))
    assert len(calls) == 1
    # the trace's own frequencies put item 6 at the root and item 5 below it
    assert (rep.m, rep.access_total) == (4, 1)


def test_static_mfu_on_a_trace_without_requests(tmp_path):
    path = tmp_path / "comments.trace"
    path.write_text("# no requests\n\n# at all\n")
    rep = run("static-mfu", WorkloadSpec(kind="trace", n=7, path=str(path)))
    assert (rep.m, rep.cost_total, rep.ratio_cost_over_ws) == (0, 0, 0.0)


def test_oracle_attached_for_tiny_runs():
    rep = run("move-half", WorkloadSpec(kind="uniform", n=3, m=8, seed=2), oracle=True)
    assert rep.opt_cost is not None
    assert rep.cost_total >= rep.opt_cost
    assert rep.opt_cost >= rep.ws_bound / 4 - 1e-9


def test_check_mru_counts():
    rep = run("max-push", WorkloadSpec(kind="uniform", n=15, m=300, seed=4), check_mru=True)
    assert rep.mru_violations == 0
    rep = run("fixed", WorkloadSpec(kind="uniform", n=15, m=300, seed=4), check_mru=True)
    assert rep.mru_violations > 0


def test_workload_frequencies_shapes():
    uni = workload_frequencies(WorkloadSpec(kind="uniform", n=7, m=10))
    assert uni.sum() == pytest.approx(1.0)
    zipf = workload_frequencies(WorkloadSpec(kind="zipf", n=7, m=10, alpha=1.0))
    assert zipf[0] == max(zipf)
    cyc = workload_frequencies(WorkloadSpec(kind="cyclic", n=7, m=10, subset_size=3))
    assert cyc.tolist()[3:] == [0.0] * 4


def test_csv_round_trip(tmp_path):
    rep = run("move-half", WorkloadSpec(kind="zipf", n=7, m=64, seed=9))
    path = tmp_path / "out.csv"
    path.write_text(emit(rep, "csv"))
    with open(path, newline="", encoding="utf-8") as fh:
        (back,) = csv.DictReader(fh)
    assert list(back) == [f.name for f in fields(RunReport)]
    assert back["policy"] == rep.policy and back["workload"] == rep.workload
    assert (int(back["n"]), int(back["m"]), int(back["seed"])) == (rep.n, rep.m, rep.seed)
    assert (int(back["access_total"]), int(back["adjust_total"]), int(back["cost_total"])) == (
        rep.access_total,
        rep.adjust_total,
        rep.cost_total,
    )
    assert float(back["ws_bound"]) == pytest.approx(rep.ws_bound, rel=1e-5)
    assert float(back["ratio_cost_over_ws"]) == pytest.approx(rep.ratio_cost_over_ws, rel=1e-5)
    assert back["mru_violations"] == "" and back["opt_cost"] == ""


def test_json_mirrors_fields(tmp_path):
    rep = run("fixed", WorkloadSpec(kind="uniform", n=7, m=32, seed=1))
    path = tmp_path / "out.json"
    path.write_text(emit(rep, "json"))
    data = json.loads(path.read_text())
    assert "ws_bound" in data
    assert data["policy"] == "fixed"
    assert data["cost_total"] == rep.cost_total


def test_two_reports_share_one_header(tmp_path):
    reps = [
        run("fixed", WorkloadSpec(kind="uniform", n=7, m=32, seed=s)) for s in (1, 2)
    ]
    path = tmp_path / "two.csv"
    path.write_text(emit(reps, "csv"))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("policy,workload,n,m,seed")


def test_emit_rejects_unknown_format():
    rep = run("fixed", WorkloadSpec(kind="uniform", n=7, m=4))
    with pytest.raises(ValueError):
        emit(rep, "xml")


def test_rank_stats_match_brute_force_oracle():
    # replay the identical run and count deeper-targeted requests directly, O(n*m)
    import numpy as np

    from satree import Policy, generate
    from satree.tree import depth

    n, m, seed = 15, 400, 3
    stats = random_push_rank_stats(n, m, seeds=[seed], warmup=0)

    p = Policy("random-push", n, seed=seed)
    t, rt = p.tree, p.ranks
    seq = generate(WorkloadSpec(kind="uniform", n=n, m=m, seed=seed))
    counts = [0] * n
    seen = bytearray(n)
    d_sum = np.zeros(n + 1)
    d_cnt = np.zeros(n + 1)
    w_sum = np.zeros(n + 1)
    w_cnt = np.zeros(n + 1)
    for u in seq:
        k = depth(t.host[u])
        r = rt.rank(u)
        d_sum[r] += k
        d_cnt[r] += 1
        if seen[u]:
            w_sum[r] += counts[u]
            w_cnt[r] += 1
        seen[u] = 1
        for v in range(n):
            if v != u and depth(t.host[v]) < k:
                counts[v] += 1
        p.serve(u)
        counts[u] = 0
    assert d_sum.tolist() == stats["depth_sum"].tolist()
    assert d_cnt.tolist() == stats["depth_cnt"].tolist()
    assert w_sum.tolist() == stats["w_sum"].tolist()
    assert w_cnt.tolist() == stats["w_cnt"].tolist()


def test_rank_stats_are_float_sums_and_integer_counts_per_rank():
    import numpy as np

    n = 15
    stats = random_push_rank_stats(n, 200, seeds=[1, 2], warmup=50)
    assert sorted(stats) == ["depth_cnt", "depth_sum", "w_cnt", "w_sum"]
    for name, dtype in (("depth_sum", np.float64), ("depth_cnt", np.int64),
                        ("w_sum", np.float64), ("w_cnt", np.int64)):
        assert type(stats[name]) is np.ndarray
        assert stats[name].dtype == dtype and stats[name].shape == (n + 1,)
    assert stats["depth_cnt"].sum() == 2 * 150 and stats["depth_cnt"][0] == 0


def test_rank_stats_need_a_seed():
    with pytest.raises(ValueError, match="seed"):
        random_push_rank_stats(7, 10, [])
