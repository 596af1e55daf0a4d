"""The four relocation policies and the static tree builder."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkers import check_bijection, rank_order
from satree import (
    Policy,
    RankTable,
    TreeState,
    build_static_mfu,
    expected_path_length,
    interchange,
    is_mru,
    record,
    routing_header,
    tree_distance,
)
from satree.policies import POLICY_KINDS, _push_down
from satree.tree import depth
from satree.workset import _level_minima


def word_of(bits):
    """A 64-bit push word whose top bits are the given child bits, first bit highest."""
    return sum(int(b) << (63 - i) for i, b in enumerate(bits))


def bit_path(word, k):
    """Reference push path built one child at a time from the word's top k bits (1 = right)."""
    path = [0]
    for i in range(k):
        path.append(2 * path[-1] + 1 + ((word >> (63 - i)) & 1))
    return path


class ScriptedBits:
    """Stands in for random-push's push bit generator: hands out the scripted words in order."""

    def __init__(self, words=()):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def scripted(paths, n=7):
    """A random-push policy whose push paths follow the given child bits, one list per push."""
    p = Policy("random-push", n)
    p._push_bits = ScriptedBits(word_of(bits) for bits in paths)
    return p


def test_move_half_root_request_is_free():
    p = Policy("move-half", 7)
    assert p.serve(0)[:2] == (0, 0)
    assert p.tree.guest.tolist() == list(range(7))


def test_move_half_depth_one_swaps_with_root():
    p = Policy("move-half", 7)
    assert p.serve(1)[:2] == (1, 1)
    assert int(p.tree.host[1]) == 0 and int(p.tree.host[0]) == 1


def test_move_half_opposite_branch_example():
    # u = item 7 at depth 3; the max-rank depth-1 item is item 2 across the root
    p = Policy("move-half", 15)
    t = p.tree
    a, j, _, _ = p.serve(7)
    assert (a, j) == (3, 7)  # distance 4 interchange costs 2*4 - 1
    assert a + j <= 4 * a <= 12
    assert int(t.host[7]) == 2  # u landed at depth 1
    assert int(t.host[2]) == 7
    check_bijection(t)


def test_move_half_per_request_bound_fuzz():
    rng = np.random.default_rng(2)
    p = Policy("move-half", 31)
    per_request = [p.serve(int(v))[:2] for v in rng.integers(0, 31, size=3000)]
    assert all(a + j <= 4 * a for a, j in per_request if a)
    assert all((a, j) == (0, 0) for a, j in per_request if not a)
    check_bijection(p.tree)


def test_random_push_root_request_is_free():
    p = scripted([])
    assert p.serve(0) == (0, 0, 1, None)
    assert p.tree.guest.tolist() == list(range(7))


def test_random_push_path_hits_accessed_server():
    # u = item 2 at depth 1; the scripted path lands on u's own server
    p = scripted([[1]])
    a, j, _, path = p.serve(2)
    assert path == [0, 2]
    assert (a, j) == (1, 2)
    assert p.tree.guest.tolist() == [2, 1, 0, 3, 4, 5, 6]


def test_random_push_path_lands_on_sibling():
    # u = item 2 at depth 1; the path ends at server 1, so three items rotate
    p = scripted([[0]])
    a, j, _, path = p.serve(2)
    assert path == [0, 1]
    assert (a, j) == (1, 4)  # 1 up + 1 cascade + 2 for the end-of-path trip
    assert p.tree.guest.tolist() == [2, 0, 1, 3, 4, 5, 6]
    assert a + j <= 5 * 1


def test_random_push_depths_never_decrease_except_requested():
    rng = np.random.default_rng(9)
    p = Policy("random-push", 31, seed=9)
    t = p.tree
    per_request = []
    for v in rng.integers(0, 31, size=2000):
        before = t.depths[t.host].copy()
        per_request.append(p.serve(int(v))[:2])
        after = t.depths[t.host]
        others = np.arange(31) != int(v)
        assert (after[others] >= before[others]).all()
    assert all(a + j <= 5 * a for a, j in per_request if a)
    check_bijection(t)


def test_random_push_is_deterministic_given_seed():
    def final_state(seed):
        p = Policy("random-push", 15, seed=seed)
        per_request = [p.serve(int(v)) for v in np.random.default_rng(4).integers(0, 15, size=500)]
        return p.tree.guest.tolist(), per_request

    assert final_state(123) == final_state(123)
    assert final_state(123) != final_state(124)


def store_loop_random_push_serve(p, u, word):
    """Random-push's serve with its own push loop and the per-bit path of the given word: one
    guest/host store per level, u to the root, and the end-of-path item's trip to u's old
    server charged by tree distance."""
    t = p.tree
    k = depth(t.host[u])
    adjust, path = 0, None
    if k > 0:
        s = int(t.host[u])
        path = bit_path(word, k)
        old = [int(t.guest[q]) for q in path]
        t.guest[0] = u
        t.host[u] = 0
        for j in range(k):
            t.guest[path[j + 1]] = old[j]
            t.host[old[j]] = path[j + 1]
        extra = 0
        if path[k] != s:
            w = old[k]
            t.guest[s] = w
            t.host[w] = s
            extra = tree_distance(path[k], s)
        adjust = k + k + extra
    r = record(p.ranks, u)
    p.ledger.access_total += k
    p.ledger.adjust_total += adjust
    p.ws.total += math.log2(r)
    return k, adjust, r, path


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       requests=st.lists(st.tuples(st.integers(0, 254), st.booleans()), max_size=150))
def test_random_push_matches_store_loop(d, seed, requests):
    # aim=True scripts the push path down to u's own server; otherwise the word's top bits are
    # random, and the path ends on u's server only by chance; the bits below the path are random
    n = (1 << d) - 1
    fast, slow = scripted([], n), Policy("random-push", n)
    rng = np.random.default_rng(seed)
    for u, aim in requests:
        u %= n
        k = depth(fast.tree.host[u])
        word = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        if aim:
            word = word_of(routing_header(fast.tree, u)) | (word >> k)
        if k:
            fast._push_bits.words.append(word)
        assert fast.serve(u) == store_loop_random_push_serve(slow, u, word)
        check_bijection(fast.tree)
    assert fast.tree.guest.tolist() == slow.tree.guest.tolist()
    assert fast.tree.host.tolist() == slow.tree.host.tolist()
    assert (fast.ledger.access_total, fast.ledger.adjust_total) == \
        (slow.ledger.access_total, slow.ledger.adjust_total)
    assert fast.ws.total == slow.ws.total


def test_block_drawn_paths_equal_per_request_words():
    # more than two 4096-word blocks of deep requests, checked against the per-bit reference
    # path of each word drawn one at a time from the same child of the seed
    n, seed = 255, 5
    p = Policy("random-push", n, seed=seed)
    words = np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0])
    deep = 0
    for v in np.random.default_rng(8).integers(0, n, size=10_000):
        k, _, _, path = p.serve(int(v))
        if k:
            assert path == bit_path(int(words.random_raw()), k)
            deep += 1
    assert deep > 2 * 4096


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_push_words_are_independent_of_the_workload_stream(seed):
    p = Policy("random-push", 255, seed=seed)
    push = p._push_bits.random_raw(64).tolist()
    workload = np.random.default_rng(seed).bit_generator.random_raw(64).tolist()
    assert not set(push) & set(workload)
    # p.rng stays default_rng(seed), the stream c10's adversary draws from
    assert p.rng.random() == np.random.default_rng(seed).random()


def test_max_push_root_request_only_updates_rank():
    p = Policy("max-push", 7)
    assert p.serve(0)[:2] == (0, 0)
    assert p.ranks.rank(0) == 1


def test_max_push_depth_one_exchange():
    p = Policy("max-push", 3)
    assert p.serve(2)[:2] == (1, 2)  # two unit relocations
    assert p.tree.guest.tolist() == [2, 1, 0]
    assert is_mru(p.tree, p.ranks)


def test_max_push_worst_layout_quadratic_hops():
    # max-rank items of levels 1 and 2 placed off the requested branch
    p = Policy("max-push", 15)
    t, rt = p.tree, p.ranks
    stamps = rt.stamps.copy()
    stamps[1], stamps[2] = stamps[2], stamps[1]  # level 1 max rank now at server 1
    stamps[3], stamps[6] = stamps[6], stamps[3]  # level 2 max rank now at server 3
    rt.stamps = stamps
    assert is_mru(t, rt)
    a, j, _, _ = p.serve(14)  # max-rank leaf, k = 3
    assert a == 3
    assert j == 10  # dist(3,14) + dist(1,3) + dist(0,1) + dist(14,0)
    assert j >= 3 * (3 - 1) / 2
    assert is_mru(t, rt)


def test_max_push_rejects_non_mru_tree():
    p = Policy("max-push", 7)
    p.tree = TreeState(7, guests=[6, 1, 2, 3, 4, 5, 0])
    p.ranks = RankTable(7)
    with pytest.raises(ValueError, match="MRU"):
        p.serve(3)


def test_max_push_keeps_mru_under_fuzz():
    rng = np.random.default_rng(11)
    p = Policy("max-push", 15)
    for v in rng.integers(0, 15, size=1000):
        p.serve(int(v))
        assert is_mru(p.tree, p.ranks)
    check_bijection(p.tree)


def argsort_max_push_serve(p, u):
    """Max-push's serve as it was before the per-level minima: a full rank order per request,
    the MRU check on it, and the item of rank 2^(i+1)-1 demoted from each level i < k."""
    t, ledger = p.tree, p.ledger
    order = rank_order(p.ranks)
    if not (t.depths[t.host[order]] == t.depths).all():
        raise ValueError("max-push requires an MRU tree")
    k = depth(t.host[u])
    adjust = 0
    if k > 0:
        demoted = [int(order[(1 << (i + 1)) - 2]) for i in range(k)]
        dests = [int(t.host[u])] + [int(t.host[w]) for w in demoted[:0:-1]]
        moves = list(zip(demoted[::-1], dests)) + [(u, int(t.host[demoted[0]]))]
        # every hop is measured before any item moves, then each move is one guest/host store
        adjust = sum(tree_distance(t.host[v], dest) for v, dest in moves)
        for v, dest in moves:
            t.guest[dest] = v
            t.host[v] = dest
    r = record(p.ranks, u)
    ledger.access_total += k
    ledger.adjust_total += adjust
    p.ws.total += math.log2(r)
    return k, adjust, r, None


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_max_push_matches_argsort_rule(d, seed, data):
    n = (1 << d) - 1
    fast, slow = Policy("max-push", n), Policy("max-push", n)
    # start both from the same random MRU layout: ranks 2^i .. 2^(i+1)-1 in any order at depth i
    rng = np.random.default_rng(seed)
    stamps = rng.permutation(n)
    order = np.argsort(-stamps)
    guests = np.concatenate([rng.permutation(order[(1 << i) - 1:(1 << (i + 1)) - 1]) for i in range(d)])
    for p in (fast, slow):
        p.tree, p.ranks = TreeState(n, guests=guests), RankTable(n, stamps=stamps)
    for u in data.draw(st.lists(st.integers(0, n - 1), max_size=150)):
        assert fast.serve(u) == argsort_max_push_serve(slow, u)
    assert fast.tree.guest.tolist() == slow.tree.guest.tolist()
    assert fast.ws.total == slow.ws.total and fast.ledger.cost_total == slow.ledger.cost_total


def level_minima_max_push_serve(p, u):
    """Max-push's serve as it was before the Fenwick descents: the per-level stamp minima and
    the MRU check on every request, and each level's minimum-stamp server as the push chain."""
    t = p.tree
    k = depth(t.host[u])
    stamps = p.ranks.stamps[t.guest]
    mins, mru = _level_minima(t, stamps)
    if not mru:
        raise ValueError("max-push requires an MRU tree")
    adjust = 0
    if k > 0:
        top = (1 << k) - 1
        lru = np.flatnonzero(stamps[:top] == mins[t.depths[:top]]).tolist()
        s = int(t.host[u])
        _push_down(t, u, lru)
        adjust = k + sum(map(tree_distance, lru, lru[1:] + [s]))
    r = record(p.ranks, u)
    p.ledger.access_total += k
    p.ledger.adjust_total += adjust
    p.ws.total += math.log2(r)
    return k, adjust, r, None


def random_mru_layout(n, rng):
    """Distinct stamps and a tree with ranks 2^i .. 2^(i+1)-1 in random order at each depth i."""
    stamps = rng.permutation(n)
    order = np.argsort(-stamps)
    guests = np.concatenate([rng.permutation(order[(1 << i) - 1:(1 << (i + 1)) - 1])
                             for i in range(n.bit_length())])
    return TreeState(n, guests=guests), RankTable(n, stamps=stamps)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_max_push_matches_level_minima_rule(d, seed, data):
    # the slot map must survive at least three renumberings, one every n//4 + 1 requests
    n = (1 << d) - 1
    laps = 3 * (n // 4 + 1)
    fast, slow = Policy("max-push", n), Policy("max-push", n)
    rng = np.random.default_rng(seed)
    fast.tree, fast.ranks = random_mru_layout(n, rng)
    slow.tree, slow.ranks = TreeState(n, guests=fast.tree.guest), RankTable(n, stamps=fast.ranks.stamps)
    for u in data.draw(st.lists(st.integers(0, n - 1), min_size=laps, max_size=laps + 60)):
        assert fast.serve(u) == level_minima_max_push_serve(slow, u)
    assert fast.tree.guest.tolist() == slow.tree.guest.tolist()
    assert fast.tree.host.tolist() == slow.tree.host.tolist()
    assert fast.ranks.stamps.tolist() == slow.ranks.stamps.tolist()
    assert (fast.ledger.access_total, fast.ledger.adjust_total) == \
        (slow.ledger.access_total, slow.ledger.adjust_total)
    assert fast.ws.total == slow.ws.total


def non_mru_rebinding(p, what):
    """Rebind max-push's tree, rank table, guest and host arrays or stamps to a state that is not MRU."""
    t, rt = p.tree, p.ranks
    root, leaf = int(t.guest[0]), int(t.guest[-1])
    if what == "tree":
        guests = t.guest.copy()
        guests[0], guests[-1] = leaf, root
        p.tree = TreeState(t.n, guests=guests)
    elif what == "ranks":
        p.ranks = RankTable(t.n, stamps=np.arange(t.n))  # item 0 the least recent, at the root
    elif what == "guest-host":
        guests = t.guest.copy()
        guests[0], guests[-1] = leaf, root
        t.guest, t.host = guests, np.argsort(guests)
    else:
        stamps = rt.stamps.copy()
        stamps[root], stamps[leaf] = stamps[leaf], stamps[root]
        rt.stamps = stamps


@pytest.mark.parametrize("what", ["tree", "ranks", "guest-host", "stamps"])
def test_max_push_rejects_a_non_mru_rebinding_every_time(what):
    p = Policy("max-push", 15)
    for v in (9, 3, 14, 0, 9):
        p.serve(v)
    non_mru_rebinding(p, what)
    before = snapshot(p)
    for v in (5, 5, 11):
        with pytest.raises(ValueError, match="MRU"):
            p.serve(v)
        assert snapshot(p) == before


@pytest.mark.parametrize("kind", ["move-half", "random-push", "max-push"])
def test_in_place_edit_of_guest_and_host_is_seen_by_the_next_serve(kind):
    # numpy writes swap leaves 7 and 14, which keeps the identity layout MRU; the request
    # for item 14 must start from server 7, and item 14's vacated server 7 must be refilled
    p = Policy(kind, 15, seed=3)
    t = p.tree
    t.guest[[7, 14]] = [14, 7]
    t.host[[7, 14]] = [14, 7]
    k, adjust, r, path = p.serve(14)
    assert (k, r) == (3, 15)
    if kind == "move-half":  # partner item 2, the least recent at depth 1
        assert adjust == 2 * tree_distance(7, 2) - 1 and (int(t.guest[7]), int(t.host[14])) == (2, 2)
    elif kind == "max-push":  # items 0, 2, 6 pushed down from servers 0, 2, 6 to 2, 6, 7
        assert adjust == 3 + 1 + 1 + tree_distance(6, 7) and int(t.guest[7]) == 6
    else:
        assert adjust == 6 + (0 if path[3] == 7 else tree_distance(path[3], 7))
        assert int(t.host[14]) == 0 and int(t.guest[7]) != 14
    check_bijection(t)


def test_max_push_rejects_a_moved_least_recent_item_before_moving():
    p = Policy("max-push", 15)
    p.serve(0)  # binds the fresh identity layout, where item i has rank i + 1
    interchange(p.tree, 2, 3)  # level 1's least recent item (rank 3) down to depth 2
    before = snapshot(p)
    with pytest.raises(ValueError, match="MRU"):
        p.serve(14)
    assert snapshot(p) == before


def test_max_push_rejects_a_requested_item_off_its_mru_depth():
    p = Policy("max-push", 15)
    p.serve(0)
    record(p.ranks, 14)  # item 14 becomes rank 1 at depth 3, so the root's item 0 has rank 2
    before = snapshot(p)
    with pytest.raises(ValueError, match="MRU"):
        p.serve(0)
    assert snapshot(p) == before


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_only_max_push_allocates_the_slot_map(kind):
    n = 15
    p = make_policy(kind, n)
    for v in np.random.default_rng(3).integers(0, n, size=4 * (n // 4 + 1)):
        p.serve(int(v))
    assert (p.ranks._item is not None) == (kind == "max-push")


def test_fixed_policy_never_adjusts():
    p = Policy("fixed", 7)
    for v in np.random.default_rng(1).integers(0, 7, size=300):
        p.serve(int(v))
    assert p.ledger.adjust_total == 0
    assert p.tree.guest.tolist() == list(range(7))


def test_static_mfu_uniform_keeps_identity_order():
    t = build_static_mfu(np.full(7, 1 / 7))
    assert t.guest.tolist() == list(range(7))


def test_static_mfu_small_example():
    t = build_static_mfu([0.5, 0.3, 0.2])
    assert int(t.host[0]) == 0
    assert expected_path_length(t, [0.5, 0.3, 0.2]) == pytest.approx(0.5)


def test_static_mfu_matches_exhaustive_minimum():
    rng = np.random.default_rng(13)
    for _ in range(5):
        freq = rng.random(7)
        freq /= freq.sum()
        built = expected_path_length(build_static_mfu(freq), freq)
        depths = [0, 1, 1, 2, 2, 2, 2]
        best = min(
            sum(freq[perm[s]] * depths[s] for s in range(7))
            for perm in itertools.permutations(range(7))
        )
        assert built == pytest.approx(best, abs=1e-12)
        # higher frequency never sits deeper
        t = build_static_mfu(freq)
        for a in range(7):
            for b in range(7):
                if freq[a] > freq[b]:
                    assert depth(t.host[a]) <= depth(t.host[b])


def test_static_mfu_validation():
    with pytest.raises(ValueError):
        build_static_mfu([0.5, 0.4])  # n = 2 is not a complete size
    with pytest.raises(ValueError):
        build_static_mfu([0.5, 0.4, 0.2])  # sums above 1
    with pytest.raises(ValueError):
        build_static_mfu([1.5, -0.3, -0.2])


@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [1.0, np.nan, 0.0]])
def test_static_mfu_rejects_non_finite_frequencies(bad):
    # a NaN sum compares false against the 1e-9 tolerance, so the sum test alone let NaN in
    with pytest.raises(ValueError, match="finite"):
        build_static_mfu(bad)
    with pytest.raises(ValueError, match="finite"):
        Policy("static-mfu", 3, freq=bad)
    with pytest.raises(ValueError, match="finite"):
        expected_path_length(TreeState(3), bad)


def test_static_mfu_order_matches_sort_rule():
    # descending frequency, ties by item id: the Python sort the stable argsort replaced
    rng = np.random.default_rng(29)
    for n in (1, 3, 15, 255):
        for levels in (1, 2, 4, n):
            freq = rng.integers(0, levels, size=n).astype(np.float64)
            if freq.sum() == 0:
                freq[:] = 1.0
            freq /= freq.sum()
            order = sorted(range(n), key=lambda v: (-freq[v], v))
            assert build_static_mfu(freq).guest.tolist() == order


def test_expected_path_length_examples():
    t = TreeState(3)
    assert expected_path_length(t, [1.0, 0.0, 0.0]) == 0.0
    assert expected_path_length(t, np.full(3, 1 / 3)) == pytest.approx(2 / 3)
    assert expected_path_length(TreeState(7), np.full(7, 1 / 7)) == pytest.approx(10 / 7)


def generator_expected_path_length(t, freq):
    """expected_path_length as a Python sum over the items, in item order."""
    return float(sum(freq[v] * depth(t.host[v]) for v in range(t.n)))


def test_expected_path_length_matches_sequential_sum():
    rng = np.random.default_rng(31)
    for n in (1, 3, 7, 255, 16383):
        for _ in range(3):
            freq = rng.random(n)
            freq /= freq.sum()
            t = TreeState(n, guests=rng.permutation(n))
            assert expected_path_length(t, freq) == generator_expected_path_length(t, freq)


def test_policy_requires_known_kind_and_mfu_frequencies():
    with pytest.raises(ValueError):
        Policy("mystery", 7)
    with pytest.raises(ValueError):
        Policy("static-mfu", 7)
    p = Policy("static-mfu", 7, freq=np.full(7, 1 / 7))
    for v in (3, 5, 3):
        p.serve(v)
    assert p.ledger.adjust_total == 0


def make_policy(kind, n):
    return Policy(kind, n, seed=1, freq=np.full(n, 1 / n) if kind == "static-mfu" else None)


def snapshot(p):
    return (p.tree.guest.tolist(), p.tree.host.tolist(), p.ranks.stamps.tolist(), p.ranks.clock,
            p.ledger.access_total, p.ledger.adjust_total, p.ws.total)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_rejected_request_changes_nothing(kind):
    n = 15
    p = make_policy(kind, n)
    for v in (7, 3, 12, 7, 0):
        p.serve(v)
    before = snapshot(p)
    for bad in (3.7, -1, n, "3"):
        with pytest.raises(ValueError):
            p.serve(bad)
        assert snapshot(p) == before, bad
    p.serve(np.int64(3))  # numpy integers are exact integers
    assert snapshot(p) != before


@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_bool_requests_are_refused_and_change_nothing(kind, flag):
    # bool is an int subclass in Python, but no item id: both kinds of bool are refused alike
    p = make_policy(kind, 15)
    for v in (7, 3, 12):
        p.serve(v)
    before = snapshot(p)
    with pytest.raises(ValueError, match="item id must be an integer"):
        p.serve(flag)
    assert snapshot(p) == before


def test_max_push_rejection_changes_nothing():
    p = Policy("max-push", 7)
    p.tree = TreeState(7, guests=[6, 1, 2, 3, 4, 5, 0])
    before = snapshot(p)
    with pytest.raises(ValueError, match="MRU"):
        p.serve(3)
    assert snapshot(p) == before


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([7, 15, 255]), data=st.data())
def test_max_push_after_a_record_outside_serve_serves_as_fresh_or_rejects(n, data):
    p = Policy("max-push", n)
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * (n // 4 + 1))):
        p.serve(v)
    # stamping the root's item changes no rank; any other item leaves the tree out of MRU order
    record(p.ranks, int(p.tree.guest[0]) if data.draw(st.booleans()) else data.draw(st.integers(0, n - 1)))
    fresh = Policy("max-push", n)
    fresh.tree = TreeState(n, guests=p.tree.guest)
    fresh.ranks = RankTable(n, stamps=p.ranks.stamps)
    u = data.draw(st.integers(0, n - 1))
    before = (snapshot(p), list(p.ranks._bnd))
    try:
        served = p.serve(u)
    except ValueError as exc:
        assert "MRU" in str(exc)
        assert (snapshot(p), p.ranks._bnd) == before
        with pytest.raises(ValueError, match="MRU"):
            fresh.serve(u)
    else:
        assert served == fresh.serve(u)
        assert p.tree.guest.tolist() == fresh.tree.guest.tolist()
        assert rank_order(p.ranks).tolist() == rank_order(fresh.ranks).tolist()
        assert p.ranks._bnd == fresh.ranks._bnd


INVALID = st.sampled_from([3.7, -1, 15, 99, "3", None, 2.0])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(POLICY_KINDS),
       requests=st.lists(st.one_of(st.integers(0, 14), INVALID), max_size=60))
def test_invalid_requests_leave_no_trace(kind, requests):
    mixed, valid = make_policy(kind, 15), make_policy(kind, 15)
    for v in requests:
        if isinstance(v, int) and 0 <= v < 15:
            assert mixed.serve(v) == valid.serve(v)
        else:
            with pytest.raises(ValueError):
                mixed.serve(v)
    assert snapshot(mixed) == snapshot(valid)


def test_cost_bound_is_checked_on_every_request(monkeypatch):
    # an end-of-path trip charged 100 hops breaks random-push's 5x bound
    monkeypatch.setattr("satree.policies.tree_distance", lambda a, b: 100)
    p = Policy("random-push", 15, seed=0)
    with pytest.raises(RuntimeError, match="5x"):
        for v in range(7, 15):
            p.serve(v)


ASSERT_FREE_CHECKS = """
import sys
import satree.policies
from satree import Policy, TreeState

def snapshot(p):
    return (p.tree.guest.tolist(), p.tree.host.tolist(), p.ranks.stamps.tolist(),
            p.ledger.access_total, p.ledger.adjust_total, p.ws.total)

def expect_raise(exc, fn, what):
    try:
        fn()
    except exc:
        return
    sys.exit(f"{what} did not raise {exc.__name__}")

assert False, "assert statements must be stripped under -O"
p = Policy("move-half", 15)
for v in (7, 3, 12):
    p.serve(v)
before = snapshot(p)
expect_raise(ValueError, lambda: p.serve(3.7), "serve(3.7)")
if snapshot(p) != before:
    sys.exit("serve(3.7) changed the policy state")

p = Policy("max-push", 7)
p.tree = TreeState(7, guests=[6, 1, 2, 3, 4, 5, 0])
expect_raise(ValueError, lambda: p.serve(3), "max-push on a non-MRU tree")

satree.policies.tree_distance = lambda a, b: 100
p = Policy("random-push", 15, seed=0)
expect_raise(RuntimeError, lambda: [p.serve(v) for v in range(7, 15)], "an overcharged random-push")
print("ok")
"""


def test_invariants_hold_without_assert():
    # python -O strips assert statements, so no invariant may rest on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", ASSERT_FREE_CHECKS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")
