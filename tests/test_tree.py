"""Tree-state primitives: geometry, routing, swap costs, interchange."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satree import (
    Policy,
    TreeState,
    depth,
    interchange,
    routing_header,
    tree_distance,
    tree_path,
)
from satree.tree import follow_header, parent


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
    for bad in ([0, 1.9, 2], [0.0, 1.0, 2.0], [0, 1, 3], [-1, 0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="integer permutation"):
            TreeState(3, guests=bad)
    assert TreeState(3, guests=np.array([2, 0, 1], dtype=np.uint8)).guest.tolist() == [2, 0, 1]


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


def parent_walk_distance(a, b):
    """The parent-walking tree_distance that LCA arithmetic replaced."""
    hops = 0
    da, db = depth(a), depth(b)
    while da > db:
        a, da, hops = (a - 1) // 2, da - 1, hops + 1
    while db > da:
        b, db, hops = (b - 1) // 2, db - 1, hops + 1
    while a != b:
        a, b, hops = (a - 1) // 2, (b - 1) // 2, hops + 2
    return hops


def test_tree_distance_matches_path_on_every_pair():
    for a in range(127):
        for b in range(127):
            assert tree_distance(a, b) == len(tree_path(a, b)) - 1 == parent_walk_distance(a, b)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(0, (1 << 17) - 2), b=st.integers(0, (1 << 17) - 2))
def test_tree_distance_matches_path_on_a_large_tree(a, b):
    assert tree_distance(a, b) == len(tree_path(a, b)) - 1 == parent_walk_distance(a, b)
    assert tree_distance(np.int64(a), b) == tree_distance(b, a)


def test_tree_distance_rejects_negative_servers():
    with pytest.raises(ValueError):
        tree_distance(-1, 3)
    with pytest.raises(ValueError):
        tree_distance(3, -2)


def test_parent_refuses_negative_servers_and_the_root():
    for bad in (-5, -1, 0):
        with pytest.raises(ValueError):
            parent(bad)
    assert [parent(s) for s in range(1, 7)] == [0, 0, 1, 1, 2, 2]


FRACTIONAL = (1.9, 2.5, 2.0, np.float64(3.0), "3", None)


@pytest.mark.parametrize("bad", FRACTIONAL)
def test_depth_takes_integer_server_ids_only(bad):
    with pytest.raises(ValueError, match="server id must be an integer"):
        depth(bad)
    assert depth(np.int64(2)) == depth(np.int32(2)) == 1


@pytest.mark.parametrize("bad", FRACTIONAL)
def test_parent_takes_integer_server_ids_only(bad):
    with pytest.raises(ValueError, match="server id must be an integer"):
        parent(bad)
    assert parent(np.int64(2)) == parent(np.uint8(2)) == 0


@pytest.mark.parametrize("bad", FRACTIONAL)
def test_tree_path_takes_integer_server_ids_only(bad):
    for a, b in ((bad, 2), (1, bad)):
        with pytest.raises(ValueError, match="server id must be an integer"):
            tree_path(a, b)
    assert tree_path(np.int64(1), np.int32(2)) == [1, 0, 2]


@pytest.mark.parametrize("bad", FRACTIONAL)
def test_tree_distance_takes_integer_server_ids_only(bad):
    for a, b in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match="server id must be an integer"):
            tree_distance(a, b)
    assert tree_distance(np.int64(1), np.int16(2)) == 2


def test_routing_header_examples():
    t = TreeState(7)
    assert routing_header(t, 0) == ""
    assert routing_header(t, 2) == "1"
    assert routing_header(t, 5) == "10"  # 0 -> 2 -> 5


def test_routing_header_round_trip():
    t = TreeState(15, guests=np.random.default_rng(3).permutation(15))
    for v in range(15):
        assert follow_header(t, routing_header(t, v)) == int(t.host[v])
    for bad in ("2x", "1 ", "01b"):
        with pytest.raises(ValueError, match="bits"):
            follow_header(t, bad)


def test_access_charges_depth_and_leaves_tree_alone():
    p = Policy("fixed", 15)
    t, led = p.tree, p.ledger
    assert p.serve(0)[0] == 0
    assert p.serve(7)[0] == 3
    before = t.guest.copy()
    p.serve(4)
    assert (t.guest == before).all()
    assert led.access_total == 0 + 3 + 2
    with pytest.raises(ValueError):
        p.serve(99)


def test_check_bijection_raises_on_broken_state():
    t = TreeState(7)
    t.check_bijection()
    t.host[3] = 4  # item 3 now claims item 4's server
    with pytest.raises(RuntimeError):
        t.check_bijection()


def test_rebinding_guest_and_host_rebuilds_their_views():
    t = TreeState(15)
    guests = np.random.default_rng(5).permutation(15).astype(np.int64)
    hosts = np.argsort(guests)
    t.guest, t.host = guests, hosts
    assert t.guest is guests and t.host is hosts  # C-contiguous int64 arrays are kept as given
    assert list(t._gv) == guests.tolist() and list(t._hv) == hosts.tolist()
    t.check_bijection()
    for v in range(15):
        assert t.item_depth(v) == depth(int(hosts[v]))
        assert follow_header(t, routing_header(t, v)) == int(hosts[v])
    a, b = int(hosts[0]), int(hosts[1])
    assert interchange(t, 0, 1) == 2 * tree_distance(a, b) - 1
    # interchange stores through the views, into the rebound arrays
    assert (int(guests[a]), int(guests[b]), int(hosts[0]), int(hosts[1])) == (1, 0, b, a)


def test_views_see_in_place_numpy_writes():
    t = TreeState(7)
    t.guest[[0, 6]] = [6, 0]
    t.host[[0, 6]] = [6, 0]
    assert (t._gv[0], t._gv[6], t._hv[0], t._hv[6]) == (6, 0, 6, 0)
    assert t.item_depth(0) == 2 and routing_header(t, 6) == ""


@pytest.mark.parametrize("what", ["guest", "host"])
def test_rebinding_copies_other_integer_arrays_to_contiguous_int64(what):
    t = TreeState(15)
    strided = np.repeat(np.arange(15), 2)[::2]
    read_only = np.arange(15)
    read_only.flags.writeable = False
    for a in (np.arange(15, dtype=np.int32), np.arange(15, dtype=np.uint8), strided, read_only):
        setattr(t, what, a)
        got = getattr(t, what)
        assert got is not a and got.dtype == np.int64 and got.flags.c_contiguous and got.flags.writeable
        assert got.tolist() == a.tolist()
        assert list(getattr(t, f"_{what[0]}v")) == a.tolist()


@pytest.mark.parametrize("what", ["guest", "host"])
def test_refused_rebinding_keeps_the_old_array_and_view(what):
    t = TreeState(7)
    old, old_view = getattr(t, what), getattr(t, f"_{what[0]}v")
    for bad in (np.arange(7.0), np.arange(7) == 0, np.arange(6), np.arange(14).reshape(2, 7),
                [0, 0, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 7], [-1, 1, 2, 3, 4, 5, 6],
                np.array([2**63, 1, 2, 3, 4, 5, 6], dtype=np.uint64)):
        with pytest.raises(ValueError, match="integer permutation"):
            setattr(t, what, bad)
        assert getattr(t, what) is old and getattr(t, f"_{what[0]}v") is old_view
    assert old.tolist() == list(old_view) == list(range(7))


def test_interchange_common_branch():
    # u at depth 3 (server 7), v its grandparent's guest at depth 1 (server 1): d = 2
    t = TreeState(15)
    charged = interchange(t, 7, 1)
    assert charged == 3
    assert int(t.host[7]) == 1 and int(t.host[1]) == 7
    for other in range(15):
        if other not in (1, 7):
            assert int(t.host[other]) == other


def test_interchange_parent_child_and_self():
    t = TreeState(7)
    assert interchange(t, 1, 0) == 1
    assert interchange(t, 3, 3) == 0
    assert t.guest.tolist() == [1, 0, 2, 3, 4, 5, 6]


def test_interchange_cost_matches_distance_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = TreeState(31, guests=rng.permutation(31))
        u, v = rng.choice(31, size=2, replace=False)
        d = bfs_distance(31, int(t.host[u]), int(t.host[v]))
        charged = interchange(t, u, v)
        assert charged == 2 * d - 1 <= 2 * d
        t.check_bijection()


def test_ledger_totals_are_monotone_sums():
    p = Policy("move-half", 7)
    per_request = [p.serve(v)[:2] for v in (5, 6, 0, 5, 3)]
    led = p.ledger
    assert led.access_total == sum(a for a, _ in per_request)
    assert led.adjust_total == sum(j for _, j in per_request)
    assert all(a >= 0 and j >= 0 for a, j in per_request)
    assert led.cost_total == led.access_total + led.adjust_total
