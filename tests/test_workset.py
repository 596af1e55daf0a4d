"""Rank bookkeeping, working-set accounting and the MRU predicate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkers import rank_order, ranks
from satree import (
    RankTable,
    Policy,
    TreeState,
    is_mru,
    max_rank_item_at_depth,
    record,
)


class ScanRanks:
    """The rank table the Fenwick tree replaced: virtual stamps -(i+1), a clock, an O(n) scan."""

    def __init__(self, n):
        self.stamps = -np.arange(1, n + 1, dtype=np.int64)
        self.clock = 0

    def rank(self, v):
        return int((self.stamps > self.stamps[v]).sum()) + 1

    def record(self, v):
        r = self.rank(v)
        self.stamps[v] = self.clock
        self.clock += 1
        return r


def argsort_is_mru(t, rt):
    """The MRU predicate the per-level minima replaced: rank-r item at depth floor(log2(r))."""
    order = np.argsort(-rt.stamps)
    return bool((t.depths[t.host[order]] == t.depths).all())


def test_fresh_table_ranks_follow_initial_servers():
    t = TreeState(7)
    rt = RankTable.from_tree(t)
    for i in range(7):
        assert rt.rank(i) == i + 1
    for bad in (7, -1, 2.0, True, np.True_):
        with pytest.raises(ValueError):
            record(rt, bad)
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


def test_ranks_always_a_permutation():
    rng = np.random.default_rng(0)
    rt = RankTable(15)
    for v in rng.integers(0, 15, size=100):
        record(rt, int(v))
        assert sorted(ranks(rt).tolist()) == list(range(1, 16))
        assert len(set(rt.stamps.tolist())) == 15


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 3, 7, 255]), data=st.data())
def test_fenwick_ranks_match_scan(n, data):
    # the stamps are renumbered every n//4 + 1 records; cross that at least three times
    laps = 3 * (n // 4 + 1)
    item = st.integers(0, n - 1)
    steps = data.draw(st.lists(st.tuples(item, item), min_size=laps, max_size=laps + 40))
    rt, ref = RankTable(n), ScanRanks(n)
    for v, probe in steps:
        assert record(rt, v) == ref.record(v)
        assert rt.rank(probe) == ref.rank(probe) == int((rt.stamps > rt.stamps[probe]).sum()) + 1
    assert [rt.rank(v) for v in range(n)] == [ref.rank(v) for v in range(n)] == ranks(rt).tolist()
    assert 0 <= rt.stamps.min() and rt.stamps.max() < rt.clock


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 3, 7, 255]), data=st.data())
def test_item_of_rank_inverts_rank(n, data):
    # the slot map is built once, then kept by every record and every renumbering
    laps = 3 * (n // 4 + 1)
    rt = RankTable(n, stamps=data.draw(st.permutations(range(0, 3 * n, 3))))
    rt._map_slots()
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=laps, max_size=laps + 40)):
        record(rt, v)
        probe = data.draw(st.integers(1, n))
        assert rt.rank(rt._item_of_rank(probe)) == probe
    assert [rt._item_of_rank(r) for r in range(1, n + 1)] == rank_order(rt).tolist()


def level_boundaries(rt):
    """The item of rank 2^(j+1) - 1 for every level j, read off the full recency order."""
    order = rank_order(rt)
    return [int(order[(2 << j) - 2]) for j in range(rt.n.bit_length())]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 3, 7, 255]), data=st.data())
def test_level_boundaries_follow_every_record_and_rebinding(n, data):
    # the boundaries are seeded once, then stepped by every record across three renumberings
    laps = 3 * (n // 4 + 1)
    requests = st.lists(st.integers(0, n - 1), min_size=laps, max_size=laps + 40)
    rt = RankTable(n, stamps=data.draw(st.permutations(range(0, 3 * n, 3))))
    rt._map_slots()
    assert rt._bnd == level_boundaries(rt)
    for v in data.draw(requests):
        record(rt, v)
        assert rt._bnd == level_boundaries(rt)
    rt.stamps = data.draw(st.permutations(range(n)))
    assert rt._bnd == level_boundaries(rt)
    for v in data.draw(requests):
        record(rt, v)
        assert rt._bnd == level_boundaries(rt)


def test_stamps_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        RankTable(3, stamps=[5, 2, 5])
    with pytest.raises(ValueError):
        RankTable(3, stamps=[0, 1])
    rt = RankTable(3, stamps=[40, -7, 12])  # any distinct stamps keep their order
    assert ranks(rt).tolist() == [1, 3, 2]


@pytest.mark.parametrize("rebind", [lambda s: s + 1, lambda s: s * 3, lambda s: -s],
                         ids=["shifted", "scaled", "reversed"])
def test_rebinding_stamps_rebuilds_the_table(rebind):
    rt = RankTable(7)
    for v in (3, 5, 3, 0):
        record(rt, v)
    rt.stamps = rebind(rt.stamps)
    assert [rt.rank(v) for v in range(7)] == ranks(rt).tolist()
    for v in (6, 2, 6):
        record(rt, v)
    assert [rt.rank(v) for v in range(7)] == ranks(rt).tolist()
    rt._map_slots()
    assert [rt._item_of_rank(r) for r in range(1, 8)] == rank_order(rt).tolist()


def test_rebinding_bad_stamps_leaves_the_table_unchanged():
    rt = RankTable(7)
    record(rt, 4)
    before = (rt.stamps.tolist(), rt.clock, [rt.rank(v) for v in range(7)])
    for bad, message in (([0, 1, 2, 3, 4, 5, 5], "distinct"), ([0, 1, 2], "one stamp per item")):
        with pytest.raises(ValueError, match=message):
            rt.stamps = bad
        assert (rt.stamps.tolist(), rt.clock, [rt.rank(v) for v in range(7)]) == before


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
    rt = RankTable(n, stamps=rng.permutation(4 * n)[:n])
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
