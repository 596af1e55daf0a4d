"""Tree-state primitives: geometry, routing, swap costs, relocation chains."""

import collections

import numpy as np
import pytest

from satree import (
    CostLedger,
    Policy,
    TreeState,
    access,
    depth,
    interchange,
    relocate_chain,
    routing_header,
    swap,
    tree_distance,
    tree_path,
)
from satree.tree import follow_header


def bfs_distance(n, a, b):
    """Independent oracle: BFS over explicit parent-child edges."""
    adj = collections.defaultdict(list)
    for s in range(1, n):
        p = (s - 1) // 2
        adj[s].append(p)
        adj[p].append(s)
    seen = {a: 0}
    queue = collections.deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return seen[cur]
        for nxt in adj[cur]:
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    raise AssertionError("disconnected tree")


def test_depth_examples():
    assert depth(0) == 0
    assert depth(2) == 1
    assert depth(6) == 2
    with pytest.raises(ValueError):
        depth(-1)


def test_depths_table_matches_depth():
    for d in range(1, 15):
        n = (1 << d) - 1
        t = TreeState(n)
        assert t.num_levels == d
        assert t.depths.tolist() == [depth(s) for s in range(n)]


def test_tree_size_validation():
    for bad in (0, 2, 4, 6, 8, 12):
        with pytest.raises(ValueError):
            TreeState(bad)
    for good in (1, 3, 7, 15, 31):
        TreeState(good)
    with pytest.raises(ValueError):
        TreeState(3, guests=[0, 0, 2])


def test_tree_distance_examples():
    assert tree_distance(5, 5) == 0
    assert tree_distance(1, 2) == 2
    assert tree_distance(3, 2) == 3  # 3 -> 1 -> 0 -> 2
    assert tree_path(3, 2) == [3, 1, 0, 2]


def test_tree_distance_matches_bfs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.integers(0, 31, size=2)
        assert tree_distance(a, b) == bfs_distance(31, int(a), int(b))


def test_routing_header_examples():
    t = TreeState(7)
    assert routing_header(t, 0) == ""
    assert routing_header(t, 2) == "1"
    assert routing_header(t, 5) == "10"  # 0 -> 2 -> 5


def test_routing_header_round_trip():
    t = TreeState(15, guests=np.random.default_rng(3).permutation(15))
    for v in range(15):
        assert follow_header(t, routing_header(t, v)) == int(t.host[v])


def test_access_charges_depth_and_leaves_tree_alone():
    t = TreeState(15)
    led = CostLedger()
    assert access(t, 0, led) == 0
    assert access(t, 7, led) == 3
    before = t.guest.copy()
    access(t, 4, led)
    assert (t.guest == before).all()
    assert led.access_total == 0 + 3 + 2
    with pytest.raises(ValueError):
        access(t, 99, led)


def test_swap_exchanges_with_parent():
    t = TreeState(3)
    led = CostLedger()
    swap(t, 1, led)
    assert t.guest.tolist() == [1, 0, 2]
    assert led.adjust_total == 1
    swap(t, 1, led)  # involution
    assert t.guest.tolist() == [0, 1, 2]
    assert led.adjust_total == 2
    with pytest.raises(ValueError):
        swap(t, 0, led)


def test_interchange_common_branch():
    # u at depth 3 (server 7), v its grandparent's guest at depth 1 (server 1): d = 2
    t = TreeState(15)
    led = CostLedger()
    charged = interchange(t, 7, 1, led)
    assert charged == 3 and led.adjust_total == 3
    assert int(t.host[7]) == 1 and int(t.host[1]) == 7
    for other in range(15):
        if other not in (1, 7):
            assert int(t.host[other]) == other


def test_interchange_parent_child_and_self():
    t = TreeState(7)
    led = CostLedger()
    assert interchange(t, 1, 0, led) == 1
    assert led.adjust_total == 1
    assert interchange(t, 3, 3, led) == 0
    assert led.adjust_total == 1


def test_interchange_cost_matches_distance_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = TreeState(31, guests=rng.permutation(31))
        led = CostLedger()
        u, v = rng.choice(31, size=2, replace=False)
        d = bfs_distance(31, int(t.host[u]), int(t.host[v]))
        charged = interchange(t, u, v, led)
        assert charged == 2 * d - 1 <= 2 * d
        t.check_bijection()


def test_relocate_chain_empty():
    t = TreeState(7)
    led = CostLedger()
    assert relocate_chain(t, [], led) == 0
    assert led.adjust_total == 0


def test_relocate_chain_filler_link_cost():
    # hole opens at server 1; item 7 slides in across two hops, closing at server 7
    t = TreeState(15)
    led = CostLedger()
    cost = relocate_chain(t, [(1, 7), (7, 1)], led)
    assert cost == 4  # each leg of the two-cycle is a 2-hop trip
    assert int(t.host[1]) == 7 and int(t.host[7]) == 1
    t.check_bijection()


def test_relocate_chain_three_cycle_cost_from_oracle():
    t = TreeState(3)
    led = CostLedger()
    moves = [(0, 2), (1, 0), (2, 1)]
    expect = sum(bfs_distance(3, src, dst) for src, dst in ((0, 2), (1, 0), (2, 1)))
    assert relocate_chain(t, moves, led) == expect == 4
    assert t.guest.tolist() == [1, 2, 0]
    t.check_bijection()


def test_relocate_chain_rejects_occupied_destination():
    t = TreeState(7)
    led = CostLedger()
    with pytest.raises(ValueError, match="occupied"):
        relocate_chain(t, [(0, 3), (5, 6)], led)  # 6 was never vacated
    with pytest.raises(ValueError, match="occupied"):
        relocate_chain(t, [(0, 3), (5, 0)], led)  # chain never frees server 3
    # failed chains must not mutate the tree
    assert t.guest.tolist() == list(range(7))


def test_ledger_totals_are_monotone_sums():
    p = Policy("move-half", 7)
    per_request = [p.serve(v)[:2] for v in (5, 6, 0, 5, 3)]
    led = p.ledger
    assert led.access_total == sum(a for a, _ in per_request)
    assert led.adjust_total == sum(j for _, j in per_request)
    assert all(a >= 0 and j >= 0 for a, j in per_request)
    assert led.cost_total == led.access_total + led.adjust_total
