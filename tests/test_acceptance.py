"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import filecmp
import itertools
import math
import time

import numpy as np
import pytest

from satree import (
    Policy,
    RankTable,
    WorkloadSpec,
    build_static_mfu,
    concavity_check,
    expected_path_length,
    expected_state_curve,
    binomial_identity,
    generate,
    is_mru,
    opt_cost,
    random_push_rank_stats,
    record,
    run,
    walk_distribution,
)
from satree.cli import main as cli_main
from satree.tree import depth

POLICIES = ("move-half", "random-push", "max-push", "static-mfu", "fixed")


def _pass(num, name, detail=""):
    print(f"\nPASS criterion {num:2d} [{name}] {detail}")


def _workloads(n, m, seed):
    return (
        WorkloadSpec(kind="uniform", n=n, m=m, seed=seed),
        WorkloadSpec(kind="zipf", n=n, m=m, alpha=1.0, seed=seed + 1),
        WorkloadSpec(kind="cyclic", n=n, m=m, subset_size=max(1, n // 2)),
    )


def _ws_total(seq, n):
    rt = RankTable(n)
    total = 0.0
    for v in seq:
        total += math.log2(record(rt, v))
    return total


def test_c01_max_push_keeps_mru():
    t0 = time.perf_counter()
    checked = 0
    for n in (7, 15, 31):
        for spec in _workloads(n, 10_000, seed=101):
            p = Policy("max-push", n)
            for v in generate(spec):
                p.serve(v)
                assert is_mru(p.tree, p.ranks), (n, spec.describe())
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 9 * 10_000
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _pass(1, "mru-maintenance", f"{checked} requests, {elapsed:.1f}s")


def test_c02_working_set_lower_bound():
    t0 = time.perf_counter()
    # every policy, every tested run
    for algo in POLICIES:
        for kind, subset in (("uniform", 1), ("zipf", 1), ("cyclic", 7)):
            rep = run(algo, WorkloadSpec(kind=kind, n=15, m=3000, subset_size=subset, seed=21))
            assert rep.cost_total >= rep.ws_bound / 4 - 1e-9, (algo, kind)
    # exhaustive offline floor at n=3
    init = (0, 1, 2)
    tightest = math.inf
    for seq in itertools.product(range(3), repeat=6):
        opt = opt_cost(list(seq), init)
        ws = _ws_total(seq, 3)
        assert opt >= ws / 4 - 1e-9, (seq, opt, ws)
        if ws > 0:
            tightest = min(tightest, opt / (ws / 4))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _pass(2, "working-set-floor", f"729 sequences exhaustive, tightest opt/(WS/4) = {tightest:.3f}, {elapsed:.1f}s")


def test_c03_move_half_vs_offline_optimum():
    t0 = time.perf_counter()
    worst = 0.0

    def ratio(seq, n, init):
        nonlocal worst
        p = Policy("move-half", n)
        for v in seq:
            p.serve(v)
        opt = opt_cost(list(seq), init)
        if opt == 0:
            assert p.ledger.cost_total == 0, seq
        else:
            assert p.ledger.cost_total <= 64 * opt, (seq, p.ledger.cost_total, opt)
            worst = max(worst, p.ledger.cost_total / opt)

    for seq in itertools.product(range(3), repeat=6):
        ratio(seq, 3, (0, 1, 2))
    rng = np.random.default_rng(33)
    for _ in range(200):
        ratio(rng.integers(0, 7, size=6).tolist(), 7, tuple(range(7)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _pass(3, "move-half-dynamic-optimality", f"max cost/opt = {worst:.3f} (gate 64), {elapsed:.1f}s")


def test_c04_move_half_access_competitive_to_max_push():
    t0 = time.perf_counter()
    n, m = 127, 100_000
    slack = 4 * math.log2(n) * n
    results = []
    for kind, seed in (("uniform", 11), ("zipf", 12)):
        seq = generate(WorkloadSpec(kind=kind, n=n, m=m, alpha=1.0, seed=seed))
        mh = Policy("move-half", n)
        mp = Policy("max-push", n)
        for v in seq:
            mh.serve(v)
            mp.serve(v)
        lhs = mh.ledger.access_total
        rhs = 4 * mp.ledger.access_total + slack
        assert lhs <= rhs, (kind, lhs, rhs)
        results.append(f"{kind} {lhs}<= {rhs:.0f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _pass(4, "access-competitiveness", f"{'; '.join(results)}, {elapsed:.1f}s")


def test_c05_per_request_cost_structure():
    checked = 0
    for n, m in ((15, 4000), (31, 4000)):
        for spec in _workloads(n, m, seed=51):
            seq = generate(spec)
            for kind, factor in (("move-half", 4), ("random-push", 5)):
                p = Policy(kind, n, seed=52)
                for v in seq:
                    a, j, _, _ = p.serve(v)
                    assert a + j <= factor * a or (a, j) == (0, 0), (kind, a, j)
                    checked += 1
    _pass(5, "cost-structure", f"{checked} per-request entries within 4x/5x access")


@pytest.fixture(scope="module")
def rp_stats():
    # 20 seeds x 5500 post-warmup requests = 110k samples at n=255
    return random_push_rank_stats(255, 8000, seeds=range(20), warmup=2500)


def test_c06_random_push_expected_depth(rp_stats):
    t0 = time.perf_counter()
    cnt, tot = rp_stats["depth_cnt"], rp_stats["depth_sum"]
    samples = int(cnt.sum())
    assert samples >= 100_000
    assert (cnt[1:] > 0).all(), "every rank must be sampled"
    tightest = math.inf
    for r in range(1, 256):
        mean = tot[r] / cnt[r]
        bound = math.log2(r) + 3 + 0.1
        assert mean <= bound, (r, mean, bound)
        tightest = min(tightest, bound - mean)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(6, "mru4-in-expectation", f"{samples} samples, tightest margin {tightest:.3f}")


def test_c07_random_push_deeper_request_counts(rp_stats):
    cnt, tot = rp_stats["w_cnt"], rp_stats["w_sum"]
    assert (cnt[1:65] > 0).all(), "every rank up to 64 must be sampled"
    tightest = math.inf
    for i in range(1, 65):
        mean = tot[i] / cnt[i]
        bound = 2 * i - 1 + 0.5
        assert mean <= bound, (i, mean, bound)
        tightest = min(tightest, bound - mean)
    _pass(7, "deeper-request-bound", f"mean W_i <= 2i-1+0.5 for i<=64, tightest margin {tightest:.3f}")


def test_c08_chain_expected_state_bound_and_concavity():
    t0 = time.perf_counter()
    for i in (2, 4, 8, 16, 32, 64):
        curve = expected_state_curve(i, 1024)
        for w in range(2, 1025):
            assert curve[w] < math.ceil(math.log2(w)) + 1, (i, w, curve[w])
        assert concavity_check(i, 1024), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _pass(8, "chain-exactness", f"i in 2..64, w in 2..1024, {elapsed:.1f}s")


def test_c09_binomial_identity():
    worst = max(abs(binomial_identity(w) - 1.0) for w in range(1, 51))
    assert worst < 1e-9
    _pass(9, "binomial-identity", f"max |value - 1| = {worst:.2e}")


def _capped_push_trials(i, w, trials, seed):
    """Empirical depth of a tracked item after w deeper-target push events.

    Each event serves an item strictly deeper than the tracked one through
    the real push machinery; reaching depth i-1 absorbs, mirroring the rank
    cap (a deeper pusher would bump the tracked item out of rank class i).
    """
    n = 255
    p = Policy("random-push", n, seed=seed)
    t, rng = p.tree, p.rng
    maxd = t.num_levels - 1
    counts = np.zeros(i, dtype=np.int64)
    v = 0
    for _ in range(trials):
        p.serve(v)  # tracked item back to the root
        for _ in range(w):
            j = depth(t.host[v])
            if j >= i - 1:
                break
            td = int(rng.integers(j + 1, maxd + 1))
            lo = (1 << td) - 1
            u = int(t.guest[int(rng.integers(lo, min(2 * lo + 1, n)))])
            p.serve(u)
        counts[depth(t.host[v])] += 1
    return counts


def test_c10_stochastic_dominance_of_real_pushes():
    t0 = time.perf_counter()
    trials = 100_000
    details = []
    for i, w in itertools.product((4, 8), (4, 16)):
        counts = _capped_push_trials(i, w, trials, seed=1000 + i * w)
        emp_tail = 1.0 - counts.cumsum() / trials
        exact = walk_distribution(i, w)
        ex_tail = exact.survival(i)
        margin = 3.0 * np.sqrt(ex_tail * (1.0 - ex_tail) / trials)
        assert (emp_tail <= ex_tail + margin + 1e-12).all(), (i, w)
        details.append(f"(i={i},w={w})")
    elapsed = time.perf_counter() - t0
    _pass(10, "stochastic-dominance", f"{' '.join(details)} at 3-sigma, {elapsed:.0f}s")


def test_c11_static_mfu_is_exactly_optimal():
    rng = np.random.default_rng(77)
    depths = [0, 1, 1, 2, 2, 2, 2]
    perms = list(itertools.permutations(range(7)))

    def epl(freq, d_item):
        # same summation order as expected_path_length, so equal placements
        # produce bit-identical floats
        total = 0.0
        for v in range(7):
            total += freq[v] * d_item[v]
        return total

    for _ in range(100):
        freq = rng.random(7)
        freq /= freq.sum()
        built = expected_path_length(build_static_mfu(freq), freq)
        best = math.inf
        for p in perms:
            d_item = [0] * 7
            for s in range(7):
                d_item[p[s]] = depths[s]
            best = min(best, epl(freq, d_item))
        assert built == best, (freq, built, best)
    _pass(11, "static-mfu-optimality", "100 random frequency vectors, exact equality")


def test_c12_max_push_adjustment_is_not_proportional():
    ratios = {}
    for n in (15, 63, 255):
        ell = n // 2
        seq = generate(WorkloadSpec(kind="cyclic", n=n, m=40 * ell, subset_size=ell))
        for kind in ("max-push", "move-half", "random-push"):
            p = Policy(kind, n, seed=5)
            for v in seq:
                p.serve(v)
            ratios[(kind, n)] = p.ledger.adjust_total / p.ledger.access_total
    mp = [ratios[("max-push", n)] for n in (15, 63, 255)]
    assert mp[0] < mp[1] < mp[2], mp
    assert all(ratios[("move-half", n)] <= 3.0 for n in (15, 63, 255))
    assert all(ratios[("random-push", n)] <= 4.0 for n in (15, 63, 255))
    _pass(12, "max-push-blowup", f"max-push adjust/access = {[round(x, 2) for x in mp]}")


def test_c13_cli_determinism(tmp_path):
    args = [
        "run", "--algo", "random-push", "--n", "15", "--workload", "cyclic",
        "--subset", "4", "--m", "10000", "--seed", "9", "--format", "csv",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert filecmp.cmp(out1, out2, shallow=False)
    assert out1.read_bytes() == out2.read_bytes()
    _pass(13, "cli-determinism", "byte-identical CSV across invocations")
