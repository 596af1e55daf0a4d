"""Tree-state primitives: geometry, routing, swap costs, interchange."""

import collections
import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkers import check_bijection
from satree import (
    Policy,
    TreeState,
    depth,
    interchange,
    routing_header,
    tree_distance,
)
from satree.tree import _exact_int, parent


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
    # numpy reads a bool in a list as 0 or 1, so [True, 0, 2] would pass for [1, 0, 2]
    for bad in ([0, 1.9, 2], [0.0, 1.0, 2.0], [0, 1, 3], [-1, 0, 1], [[0, 1, 2]],
                [True, 0, 2], [np.True_, 0, 2], [True, False, 2], (0, 1, np.False_)):
        with pytest.raises(ValueError, match="integer permutation"):
            TreeState(3, guests=bad)
    assert TreeState(3, guests=np.array([2, 0, 1], dtype=np.uint8)).guest.tolist() == [2, 0, 1]


def test_tree_distance_examples():
    assert tree_distance(5, 5) == 0
    assert tree_distance(1, 2) == 2
    assert tree_distance(3, 2) == 3  # 3 -> 1 -> 0 -> 2


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
            assert tree_distance(a, b) == parent_walk_distance(a, b)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(0, (1 << 17) - 2), b=st.integers(0, (1 << 17) - 2))
def test_tree_distance_matches_path_on_a_large_tree(a, b):
    assert tree_distance(a, b) == parent_walk_distance(a, b)
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


# Python's bool is an int subclass, but no id: bools are refused like the rest
NOT_INTEGERS = (1.9, 2.5, 2.0, np.float64(3.0), "3", None, True, np.True_)


class Three(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("x, n, expected", [
    # plain ints, which skip the type tests, and the other integer types, which do not
    (3, None, 3), (3, 4, 3), (3, 3, "id 3 out of range"), (7, None, 7), (-1, None, "id -1 out of range"),
    (Three.THREE, None, 3), (Three.THREE, 4, 3), (Three.THREE, 3, "id 3 out of range"),
    (np.int64(3), 4, 3), (np.int64(3), 3, "id 3 out of range"), (np.int64(-1), None, "id -1 out of range"),
    (np.uint8(3), None, 3), (np.uint8(255), None, 255), (np.uint8(255), 4, "id 255 out of range"),
    # refused whatever the bound, with the value's repr
    (True, None, "id must be an integer, got True"), (False, 4, "id must be an integer, got False"),
    (np.True_, None, f"id must be an integer, got {np.True_!r}"),
    (np.False_, 4, f"id must be an integer, got {np.False_!r}"),
    (3.0, None, "id must be an integer, got 3.0"), (3.0, 4, "id must be an integer, got 3.0"),
    ("3", 4, "id must be an integer, got '3'"), (None, None, "id must be an integer, got None"),
])
def test_exact_int_accepts_integers_in_range_and_refuses_the_rest(x, n, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            _exact_int(x, "id", n)
        assert str(err.value) == expected
    else:
        got = _exact_int(x, "id", n)
        assert type(got) is int and got == expected


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_depth_takes_integer_server_ids_only(bad):
    with pytest.raises(ValueError, match="server id must be an integer"):
        depth(bad)
    assert depth(np.int64(2)) == depth(np.int32(2)) == 1


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_parent_takes_integer_server_ids_only(bad):
    with pytest.raises(ValueError, match="server id must be an integer"):
        parent(bad)
    assert parent(np.int64(2)) == parent(np.uint8(2)) == 0


@pytest.mark.parametrize("bad", NOT_INTEGERS)
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


def header_server(bits):
    """The server reached by walking routing-header bits down from the root."""
    s = 0
    for b in bits:
        s = 2 * s + 1 + (b == "1")
    return s


def test_routing_header_round_trip():
    t = TreeState(15, guests=np.random.default_rng(3).permutation(15))
    for v in range(15):
        assert header_server(routing_header(t, v)) == int(t.host[v])


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
    check_bijection(t)
    t.host[3] = 4  # item 3 now claims item 4's server
    with pytest.raises(RuntimeError):
        check_bijection(t)


def test_guest_and_host_are_fixed_for_the_trees_lifetime():
    guests = np.random.default_rng(5).permutation(15).astype(np.int64)
    t = TreeState(15, guests=guests)
    guest, host = t.guest, t.host
    for what in ("guest", "host"):
        with pytest.raises(AttributeError):
            setattr(t, what, np.arange(15))
    assert t.guest is guest and t.host is host and guest is not guests  # the tree keeps a copy
    assert list(t._gv) == guests.tolist() and list(t._hv) == np.argsort(guests).tolist()
    check_bijection(t)
    a, b = int(host[0]), int(host[1])
    assert interchange(t, 0, 1) == 2 * tree_distance(a, b) - 1
    # interchange stores through the views, into the tree's own arrays
    assert (int(guest[a]), int(guest[b]), int(host[0]), int(host[1])) == (1, 0, b, a)
    assert guests[a] == 0  # and never into the caller's


def test_views_see_in_place_numpy_writes():
    t = TreeState(7)
    t.guest[[0, 6]] = [6, 0]
    t.host[[0, 6]] = [6, 0]
    assert (t._gv[0], t._gv[6], t._hv[0], t._hv[6]) == (6, 0, 6, 0)
    assert routing_header(t, 0) == "11" and routing_header(t, 6) == ""


@pytest.mark.parametrize("what", ["guest", "host"])
def test_rebinding_copies_other_integer_arrays_to_contiguous_int64(what):
    # a layout is rebound by building a new tree, whose constructor makes the copy
    strided = np.repeat(np.arange(15), 2)[::2]
    read_only = np.arange(15)
    read_only.flags.writeable = False
    for a in (np.arange(15, dtype=np.int32), np.arange(15, dtype=np.uint8), strided, read_only,
              np.arange(15, dtype=np.int64), list(range(15))):
        t = TreeState(15, guests=a)
        got, view = getattr(t, what), getattr(t, f"_{what[0]}v")
        assert got is not a and got.dtype == np.int64 and got.flags.c_contiguous and got.flags.writeable
        assert got.tolist() == list(view) == list(range(15))


@pytest.mark.parametrize("what", ["guest", "host"])
def test_refused_rebinding_keeps_the_old_array_and_view(what):
    t = TreeState(7)
    old, old_view = getattr(t, what), getattr(t, f"_{what[0]}v")
    for bad in (np.arange(7.0), np.arange(7) == 0, np.arange(6), np.arange(14).reshape(2, 7),
                [0, 0, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 7], [-1, 1, 2, 3, 4, 5, 6],
                np.array([2**63, 1, 2, 3, 4, 5, 6], dtype=np.uint64)):
        with pytest.raises(ValueError, match="integer permutation"):
            TreeState(7, guests=bad)
        with pytest.raises(AttributeError):
            setattr(t, what, bad)
        assert getattr(t, what) is old and getattr(t, f"_{what[0]}v") is old_view
    assert old.tolist() == list(old_view) == list(range(7))


def test_item_count_is_an_exact_integer_of_the_form_2_pow_d_minus_1():
    for bad in (7.0, 7.9, "7", None, True, np.True_):
        with pytest.raises(ValueError, match="item count must be an integer"):
            TreeState(bad)
    for bad in (0, 2, 6, 8):
        with pytest.raises(ValueError, match=r"2\^d - 1"):
            TreeState(bad)
    with pytest.raises(ValueError, match="item count -3 out of range"):
        TreeState(-3)
    for kind, freq in (("fixed", None), ("static-mfu", [1.0])):
        with pytest.raises(ValueError, match="item count must be an integer"):
            Policy(kind, np.True_, freq=freq)
    for n in (1, 7, np.int64(7), np.uint8(15)):
        t = TreeState(n)
        assert type(t.n) is int and t.n == n and t.guest.tolist() == list(range(n))


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
        check_bijection(t)


def test_ledger_totals_are_monotone_sums():
    p = Policy("move-half", 7)
    per_request = [p.serve(v)[:2] for v in (5, 6, 0, 5, 3)]
    led = p.ledger
    assert led.access_total == sum(a for a, _ in per_request)
    assert led.adjust_total == sum(j for _, j in per_request)
    assert all(a >= 0 and j >= 0 for a, j in per_request)
    assert led.cost_total == led.access_total + led.adjust_total
