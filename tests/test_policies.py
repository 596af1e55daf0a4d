"""The four relocation policies and the static tree builder."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checkers import bit_path, check_bijection, lay_out, recency
from satree import (
    Policy,
    RankTable,
    TreeState,
    build_static_mfu,
    expected_path_length,
    interchange,
    is_mru,
    record,
    tree_distance,
)
from satree.policies import POLICY_KINDS
from satree.tree import depth


def word_of(bits):
    """A 64-bit push word whose top bits are the given child bits, first bit highest."""
    return sum(int(b) << (63 - i) for i, b in enumerate(bits))


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


def test_random_push_is_deterministic_given_seed():
    def final_state(seed):
        p = Policy("random-push", 15, seed=seed)
        per_request = [p.serve(int(v)) for v in np.random.default_rng(4).integers(0, 15, size=500)]
        return p.tree.guest.tolist(), per_request

    assert final_state(123) == final_state(123)
    assert final_state(123) != final_state(124)


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
    # items 1 and 2 trade ranks, so level 1's max rank is at server 1, and items 3 and 6
    # trade theirs, so level 2's is at server 3
    recency(rt, [*range(14, 6, -1), 3, 5, 4, 6, 1, 2, 0])
    assert is_mru(t, rt)
    a, j, _, _ = p.serve(14)  # max-rank leaf, k = 3
    assert a == 3
    assert j == 10  # dist(3,14) + dist(1,3) + dist(0,1) + dist(14,0)
    assert j >= 3 * (3 - 1) / 2
    assert is_mru(t, rt)


def test_max_push_rejects_non_mru_tree():
    p = Policy("max-push", 7)
    lay_out(p.tree, [6, 1, 2, 3, 4, 5, 0])
    with pytest.raises(ValueError, match="MRU"):
        p.serve(3)


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
    with pytest.raises(ValueError, match="one frequency per item"):
        build_static_mfu(0.5)
    with pytest.raises(ValueError, match="one frequency per item"):
        Policy("static-mfu", 3, freq=0.5)


@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [1.0, np.nan, 0.0]])
def test_static_mfu_rejects_non_finite_frequencies(bad):
    # a NaN sum compares false against the 1e-9 tolerance, so the sum test alone let NaN in
    with pytest.raises(ValueError, match="finite"):
        build_static_mfu(bad)
    with pytest.raises(ValueError, match="finite"):
        Policy("static-mfu", 3, freq=bad)
    with pytest.raises(ValueError, match="finite"):
        expected_path_length(TreeState(3), bad)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed -1 out of range"), (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
])
def test_policy_seed_is_an_exact_non_negative_integer(seed, message):
    with pytest.raises(ValueError) as exc:
        Policy("random-push", 7, seed=seed)
    assert str(exc.value) == message


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
def test_tree_and_ranks_cannot_be_rebound(kind):
    p = make_policy(kind, 15)
    for v in (7, 3, 12):
        p.serve(v)
    t, rt, before = p.tree, p.ranks, snapshot(p)
    with pytest.raises(AttributeError):
        p.tree = TreeState(15)
    with pytest.raises(AttributeError):
        p.ranks = RankTable(15)
    assert p.tree is t and p.ranks is rt and snapshot(p) == before


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
from checkers import lay_out
from satree import Policy

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
lay_out(p.tree, [6, 1, 2, 3, 4, 5, 0])
before = snapshot(p)
expect_raise(ValueError, lambda: p.serve(3), "max-push on a non-MRU tree")
if snapshot(p) != before:
    sys.exit("max-push on a non-MRU tree changed the policy state")

satree.policies.tree_distance = lambda a, b: 100
p = Policy("random-push", 15, seed=0)
expect_raise(RuntimeError, lambda: [p.serve(v) for v in range(7, 15)], "an overcharged random-push")
print("ok")
"""


def test_invariants_hold_without_assert():
    # python -O strips assert statements, so no invariant may rest on one
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-O", "-c", ASSERT_FREE_CHECKS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")
