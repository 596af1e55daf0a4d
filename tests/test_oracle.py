"""Exact offline optimum and the swap metric on tiny configuration graphs."""

import collections
import itertools

import numpy as np
import pytest

from satree import Policy, opt_cost, swap_distance
from satree.oracle import _INF, _ConfigSpace, check_supported
from satree.tree import depth, parent


class ReferenceSpace:
    """The layout tables built one layout at a time, one row per layout, and their row-wise sweep.

    Layouts are numbered in the order itertools.permutations yields them.
    neighbors[i, s-1] is the layout reached from layout i by swapping
    server s with its parent, and item_depth[i, v] is item v's depth there.
    """

    def __init__(self, n):
        self.perms = list(itertools.permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        P = len(self.perms)
        self.neighbors = np.empty((P, n - 1), dtype=np.int64)
        depths = [depth(s) for s in range(n)]
        edges = [(s, parent(s)) for s in range(1, n)]
        self.item_depth = np.empty((P, n), dtype=np.int64)
        for i, p in enumerate(self.perms):
            for s, ps in edges:
                q = list(p)
                q[s], q[ps] = q[ps], q[s]
                self.neighbors[i, s - 1] = self.index[tuple(q)]
            for s, item in enumerate(p):
                self.item_depth[i, item] = depths[s]

    def relax(self, f):
        g = f
        while True:
            h = np.minimum(g, g[self.neighbors].min(axis=1) + 1)
            if np.array_equal(h, g):
                return h
            g = h


def oracle_swap_distance(n, start, goal):
    """Independent BFS over layouts with explicit parent-child swap edges."""
    start, goal = tuple(start), tuple(goal)
    seen = {start: 0}
    queue = collections.deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            return seen[cur]
        for s in range(1, n):
            nxt = list(cur)
            nxt[s], nxt[(s - 1) // 2] = nxt[(s - 1) // 2], nxt[s]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    raise AssertionError("unreachable layout")


@pytest.mark.parametrize("n", [3, 7])
def test_row_tables_match_the_reference_tables(n):
    space, ref = _ConfigSpace(n), ReferenceSpace(n)
    assert np.array_equal(space.neighbors, ref.neighbors.T)
    assert np.array_equal(space.item_depth, ref.item_depth.T)
    for i, p in enumerate(ref.perms):
        assert space.index(p) == i


@pytest.mark.parametrize("n", [3, 7])
def test_relax_matches_the_reference_sweep(n):
    space, ref = _ConfigSpace(n), ReferenceSpace(n)
    rng = np.random.default_rng(n)
    P = len(ref.perms)
    for out_of_reach in (0.0, 0.5, 0.99):
        for _ in range(5):
            f = rng.integers(0, 3 * n, size=P)
            f[rng.random(P) < out_of_reach] = _INF
            f[rng.integers(P)] = rng.integers(0, 3 * n)
            assert np.array_equal(space.relax(f), ref.relax(f))
    f = np.full(P, _INF, dtype=np.int64)
    assert np.array_equal(space.relax(f), ref.relax(f))


@pytest.mark.parametrize("n, m", [(3, -1), (7, -2)])
def test_check_supported_refuses_a_negative_request_count(n, m):
    with pytest.raises(ValueError, match="request count must be >= 0"):
        check_supported(n, m)


# opt_cost of move-half's acceptance gate (c03): 200 sequences of 6 requests at n = 7 from default_rng(33)
C03_OPT_N7 = [
    9, 7, 9, 8, 3, 8, 7, 7, 7, 5, 9, 8, 7, 7, 5, 7, 6, 6, 7, 9, 7, 7, 8, 6, 8,
    5, 7, 5, 8, 10, 7, 7, 5, 7, 7, 7, 8, 5, 9, 9, 9, 8, 8, 5, 6, 5, 8, 7, 9, 8,
    6, 7, 8, 5, 5, 6, 9, 7, 6, 7, 6, 7, 7, 6, 8, 7, 7, 7, 8, 6, 3, 8, 8, 8, 8,
    7, 7, 5, 6, 5, 7, 7, 8, 6, 5, 7, 7, 8, 7, 7, 6, 8, 7, 5, 8, 9, 7, 7, 6, 8,
    7, 7, 5, 6, 7, 8, 8, 8, 8, 6, 8, 6, 5, 7, 9, 7, 7, 5, 7, 7, 7, 6, 8, 5, 5,
    7, 6, 6, 7, 6, 7, 7, 7, 4, 6, 9, 7, 8, 7, 6, 8, 7, 7, 8, 6, 9, 7, 6, 6, 6,
    4, 6, 4, 9, 7, 7, 5, 9, 6, 7, 8, 9, 8, 7, 7, 8, 8, 7, 6, 9, 6, 8, 5, 7, 8,
    7, 8, 9, 6, 7, 8, 9, 7, 7, 7, 8, 10, 8, 5, 8, 7, 8, 8, 5, 7, 4, 9, 8, 5, 9,
]


def test_opt_cost_is_pinned_on_the_c03_sequences():
    rng = np.random.default_rng(33)
    costs = [opt_cost(rng.integers(0, 7, size=6).tolist(), tuple(range(7))) for _ in range(200)]
    assert costs == C03_OPT_N7


def test_swap_distance_examples():
    assert swap_distance((0, 1, 2), (0, 1, 2)) == 0
    assert swap_distance((0, 1, 2), (1, 0, 2)) == 1
    assert swap_distance((0, 1, 2), (0, 2, 1)) == 3  # exchanging the two leaf guests
    assert oracle_swap_distance(3, (0, 1, 2), (0, 2, 1)) == 3


def test_swap_distance_matches_bfs_oracle_n3():
    for a in itertools.permutations(range(3)):
        for b in itertools.permutations(range(3)):
            assert swap_distance(a, b) == oracle_swap_distance(3, a, b)
    rng = np.random.default_rng(6)
    for _ in range(12):
        a, b = tuple(rng.permutation(7).tolist()), tuple(rng.permutation(7).tolist())
        assert swap_distance(a, b) == oracle_swap_distance(7, a, b)


def test_swap_distance_validation():
    with pytest.raises(ValueError):
        swap_distance((0, 1, 2), (0, 1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        swap_distance((0, 1, 2, 3), (0, 1, 2, 3))  # n=4 unsupported


def test_opt_cost_base_cases():
    init = (0, 1, 2)
    assert opt_cost([], init) == 0
    assert opt_cost([0], init) == 0  # already at the root
    assert opt_cost([2, 2, 2], init) == 1  # one swap to the root, then free


def test_opt_cost_limits():
    with pytest.raises(ValueError):
        opt_cost([0] * 13, (0, 1, 2))
    with pytest.raises(ValueError):
        opt_cost([0] * 9, tuple(range(7)))
    with pytest.raises(ValueError):
        opt_cost([5], (0, 1, 2))  # unknown item


def test_opt_cost_is_monotone_in_the_sequence():
    rng = np.random.default_rng(4)
    init = (0, 1, 2)
    for _ in range(20):
        seq = rng.integers(0, 3, size=5).tolist()
        costs = [opt_cost(seq[:k], init) for k in range(len(seq) + 1)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_opt_cost_floors_every_policy():
    rng = np.random.default_rng(8)
    for _ in range(15):
        seq = rng.integers(0, 3, size=6).tolist()
        opt = opt_cost(seq, (0, 1, 2))
        for kind in ("move-half", "random-push", "max-push", "fixed"):
            p = Policy(kind, 3, seed=1)
            for v in seq:
                p.serve(v)
            assert p.ledger.cost_total >= opt


def test_opt_cost_rejects_a_fractional_item():
    with pytest.raises(ValueError, match="integer"):
        opt_cost([1.7, 2], (0, 1, 2))


def test_opt_cost_rejects_a_fractional_layout():
    with pytest.raises(ValueError, match="integer"):
        opt_cost([1], (0.2, 1, 2))


def test_swap_distance_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        swap_distance((0, 0, 1), (0, 1, 2))
