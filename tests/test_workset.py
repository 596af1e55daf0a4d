"""Rank bookkeeping, working-set accounting and the MRU predicate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkers import rank_order, ranks, recency
from satree import (
    RankTable,
    Policy,
    TreeState,
    is_mru,
    max_rank_item_at_depth,
    record,
)


def argsort_is_mru(t, rt):
    """The MRU predicate the per-level minima replaced: rank-r item at depth floor(log2(r))."""
    order = np.argsort(-rt.stamps)
    return bool((t.depths[t.host[order]] == t.depths).all())


def test_fresh_table_ranks_follow_initial_servers():
    t = TreeState(7)
    rt = RankTable.from_tree(t)
    for i in range(7):
        assert rt.rank(i) == i + 1
    for bad in (7, -1, 2.0, 3.7, True, np.True_):
        with pytest.raises(ValueError):
            record(rt, bad)
        with pytest.raises(ValueError):
            rt.rank(bad)
    assert [rt.rank(i) for i in range(7)] == list(range(1, 8))


def test_rank_after_two_requests():
    rt = RankTable(3)
    record(rt, 0)
    record(rt, 1)
    assert rt.rank(0) == 2
    assert rt.rank(1) == 1
    assert rt.rank(2) == 3


def test_record_returns_pre_update_rank_and_accumulates():
    rt = RankTable(3)
    assert record(rt, 2) == 3  # item starting at server 2
    assert record(rt, 2) == 1
    p = Policy("fixed", 3)  # Policy.serve adds log2 of each pre-update rank to its WS total
    assert p.serve(2)[2] == 3
    assert p.ws.total == pytest.approx(math.log2(3))
    assert p.serve(2)[2] == 1
    assert p.ws.total == pytest.approx(math.log2(3))  # log2(1) adds nothing


def test_repeats_contribute_zero():
    p = Policy("fixed", 7)
    for _ in range(5):
        p.serve(3)
    assert p.ws.total == pytest.approx(math.log2(4))  # only the first request pays


def test_cycling_reaches_steady_state_log_k():
    k, n = 4, 15
    p = Policy("fixed", n)
    for t in range(3 * k):
        p.serve(t % k)
    before = p.ws.total
    for t in range(k):
        assert p.serve(t % k)[2] == k
    assert p.ws.total - before == pytest.approx(k * math.log2(k))


@pytest.mark.parametrize("n", [1, 3, 7, 255])
def test_ranks_match_the_recency_order_across_renumberings(n):
    # the window has n + n//4 + 1 slots, so every n//4 + 1 records renumber it and empty the
    # Fenwick tree of dead slots; n = 1 has a window of 2 and renumbers on every record
    rt = RankTable(n)
    rng = np.random.default_rng(n)
    renumberings = 0
    for v in rng.integers(0, n, size=3 * (n // 4 + 1)).tolist():
        record(rt, v)
        renumberings += rt.clock == n  # the clock restarts at n only by a renumbering
        assert [rt.rank(u) for u in range(n)] == ranks(rt).tolist()
    assert renumberings >= 2


def test_stamps_are_read_only():
    rt = RankTable(7)
    record(rt, 4)
    before = (rt.stamps.tolist(), rt.clock, [rt.rank(v) for v in range(7)])
    with pytest.raises(ValueError):
        rt.stamps[0] = 5
    with pytest.raises(AttributeError):
        rt.stamps = np.arange(7)
    assert (rt.stamps.tolist(), rt.clock, [rt.rank(v) for v in range(7)]) == before
    record(rt, 0)  # the table itself still stores into them
    assert rt.rank(0) == 1 and rt.stamps[0] == rt.clock - 1


def test_item_count_is_an_exact_positive_integer():
    for bad in (7.0, 7.9, "7", None, True, np.True_):
        with pytest.raises(ValueError, match="item count must be an integer"):
            RankTable(bad)
    for bad in (-3, 0):
        with pytest.raises(ValueError, match="item count"):
            RankTable(bad)
    for n in (1, 2, 6, np.int64(7)):  # a rank table needs no complete tree
        rt = RankTable(n)
        assert type(rt.n) is int and [rt.rank(v) for v in range(n)] == list(range(1, n + 1))


def test_order_sensitivity_of_ws_total():
    def total(seq):
        p = Policy("fixed", 7)
        for v in seq:
            p.serve(v)
        return p.ws.total

    assert total([6, 0, 6]) != total([6, 6, 0])


def test_is_mru_fresh_identity_and_after_cross_level_swap():
    t = TreeState(15)
    rt = RankTable.from_tree(t)
    assert is_mru(t, rt)
    # move a depth-1 item to depth 3 without touching ranks
    g = t.guest.tolist()
    g[1], g[8] = g[8], g[1]
    t2 = TreeState(15, guests=g)
    assert not is_mru(t2, rt)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["mru", "swap", "random"]))
def test_level_minima_mru_predicate_matches_argsort(d, seed, layout):
    n = (1 << d) - 1
    rng = np.random.default_rng(seed)
    rt = RankTable(n)
    recency(rt, rng.permutation(n))
    order = rank_order(rt)
    # an MRU layout: the items of ranks 2^i .. 2^(i+1)-1 in any order at depth i
    guests = np.concatenate([rng.permutation(order[(1 << i) - 1:(1 << (i + 1)) - 1]) for i in range(d)])
    if layout == "swap":
        a, b = rng.integers(0, n, size=2)
        guests[a], guests[b] = guests[b], guests[a]
    elif layout == "random":
        guests = rng.permutation(n)
    t = TreeState(n, guests=guests)
    assert is_mru(t, rt) == argsort_is_mru(t, rt)
    if layout == "mru":
        assert is_mru(t, rt)


def test_max_rank_item_at_depth_picks_least_recent():
    t = TreeState(7)
    rt = RankTable.from_tree(t)
    assert max_rank_item_at_depth(rt, t, 0) == 0
    assert max_rank_item_at_depth(rt, t, 1) == 2
    assert max_rank_item_at_depth(rt, t, 2) == 6
    record(rt, 6)  # item 6 becomes most recent; item 5 is now level 2's max rank
    assert max_rank_item_at_depth(rt, t, 2) == 5


@pytest.mark.parametrize("lvl, message", [
    (-1, "depth -1 out of range"), (3, "depth 3 out of range"),
    (2.0, "depth must be an integer, got 2.0"), (True, "depth must be an integer, got True"),
])
def test_max_rank_item_at_depth_refuses_a_level_off_the_tree(lvl, message):
    t = TreeState(7)
    rt = RankTable.from_tree(t)
    with pytest.raises(ValueError, match=message):
        max_rank_item_at_depth(rt, t, lvl)
    assert max_rank_item_at_depth(rt, t, np.int64(2)) == 6


@pytest.mark.parametrize("n", [1, 3, 255, 16383])
def test_max_rank_item_at_depth_matches_an_argmin_over_each_level(n):
    # random layouts and recency orders, checked at every level before and after records that
    # renumber the table at least once
    rng = np.random.default_rng(n)
    t = TreeState(n, guests=rng.permutation(n))
    rt = RankTable(n)
    recency(rt, rng.permutation(n))

    def check():
        for lvl in range(t.num_levels):
            level = t.guest[(1 << lvl) - 1:(2 << lvl) - 1]
            expected = int(level[np.argmin(rt.stamps[level])])
            got = max_rank_item_at_depth(rt, t, lvl)
            assert type(got) is int and got == expected

    check()
    records = 2 * (n // 4 + 1) + 3
    for v in rng.integers(0, n, size=records):
        record(rt, int(v))
    assert rt.clock < n + records  # the clock went back to n at least once
    check()
    for v in rng.integers(0, n, size=n // 8 + 1):
        record(rt, int(v))
        if v % 7 == 0:
            check()
    check()
