"""The four relocation policies and the static tree builder."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satree import (
    Policy,
    RankTable,
    TreeState,
    build_static_mfu,
    expected_path_length,
    is_mru,
    rank,
)
from satree.policies import POLICY_KINDS


class ScriptedRng:
    """Feeds predetermined child bits into the push-path sampler."""

    def __init__(self, bits):
        self.bits = list(bits)

    def integers(self, low, high, size=None):
        assert (low, high) == (0, 2)
        out = np.array([self.bits.pop(0) for _ in range(size)], dtype=np.int64)
        return out


def scripted(bits, n=7):
    """A random-push policy whose push paths follow the given child bits."""
    p = Policy("random-push", n)
    p.rng = ScriptedRng(bits)
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
    t.check_bijection()


def test_move_half_per_request_bound_fuzz():
    rng = np.random.default_rng(2)
    p = Policy("move-half", 31)
    per_request = [p.serve(int(v))[:2] for v in rng.integers(0, 31, size=3000)]
    assert all(a + j <= 4 * a for a, j in per_request if a)
    assert all((a, j) == (0, 0) for a, j in per_request if not a)
    p.tree.check_bijection()


def test_random_push_root_request_is_free():
    p = scripted([])
    assert p.serve(0) == (0, 0, 1, None)
    assert p.tree.guest.tolist() == list(range(7))


def test_random_push_path_hits_accessed_server():
    # u = item 2 at depth 1; the scripted path lands on u's own server
    p = scripted([1])
    a, j, _, path = p.serve(2)
    assert path == [0, 2]
    assert (a, j) == (1, 2)
    assert p.tree.guest.tolist() == [2, 1, 0, 3, 4, 5, 6]


def test_random_push_path_lands_on_sibling():
    # u = item 2 at depth 1; the path ends at server 1, so three items rotate
    p = scripted([0])
    a, j, _, path = p.serve(2)
    assert path == [0, 1]
    assert (a, j) == (1, 4)  # 1 up + 1 cascade + 2 for the end-of-path trip
    assert p.tree.guest.tolist() == [2, 0, 1, 3, 4, 5, 6]
    assert a + j <= 5 * 1


def test_random_push_depths_never_decrease_except_requested():
    rng = np.random.default_rng(9)
    p = Policy("random-push", 31)
    p.rng = rng
    t = p.tree
    per_request = []
    for v in rng.integers(0, 31, size=2000):
        before = t.depths[t.host].copy()
        per_request.append(p.serve(int(v))[:2])
        after = t.depths[t.host]
        others = np.arange(31) != int(v)
        assert (after[others] >= before[others]).all()
    assert all(a + j <= 5 * a for a, j in per_request if a)
    t.check_bijection()


def test_random_push_is_deterministic_given_seed():
    def final_state(seed):
        p = Policy("random-push", 15, seed=seed)
        per_request = [p.serve(int(v)) for v in np.random.default_rng(4).integers(0, 15, size=500)]
        return p.tree.guest.tolist(), per_request

    assert final_state(123) == final_state(123)
    assert final_state(123) != final_state(124)


def test_max_push_root_request_only_updates_rank():
    p = Policy("max-push", 7)
    assert p.serve(0)[:2] == (0, 0)
    assert rank(p.ranks, 0) == 1


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
    p.tree.check_bijection()


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
                    assert t.item_depth(a) <= t.item_depth(b)


def test_static_mfu_validation():
    with pytest.raises(ValueError):
        build_static_mfu([0.5, 0.4])  # n = 2 is not a complete size
    with pytest.raises(ValueError):
        build_static_mfu([0.5, 0.4, 0.2])  # sums above 1
    with pytest.raises(ValueError):
        build_static_mfu([1.5, -0.3, -0.2])


def test_expected_path_length_examples():
    t = TreeState(3)
    assert expected_path_length(t, [1.0, 0.0, 0.0]) == 0.0
    assert expected_path_length(t, np.full(3, 1 / 3)) == pytest.approx(2 / 3)
    assert expected_path_length(TreeState(7), np.full(7, 1 / 7)) == pytest.approx(10 / 7)


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


def test_max_push_rejection_changes_nothing():
    p = Policy("max-push", 7)
    p.tree = TreeState(7, guests=[6, 1, 2, 3, 4, 5, 0])
    before = snapshot(p)
    with pytest.raises(ValueError, match="MRU"):
        p.serve(3)
    assert snapshot(p) == before


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
