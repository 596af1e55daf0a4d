"""Exact offline optimum and the swap metric on tiny configuration graphs."""

import collections
import itertools

import numpy as np
import pytest

from satree import Policy, opt_cost, swap_distance


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
