"""Array-backed complete binary tree of servers and the swap-cost primitives."""

from __future__ import annotations

import operator

import numpy as np


def is_complete_size(n) -> bool:
    """True iff n = 2^d - 1 for some integer d >= 1."""
    return n >= 1 and (n & (n + 1)) == 0


def depth(s) -> int:
    """Depth of server s in heap layout; the root (s=0) has depth 0."""
    s = int(s)
    if s < 0:
        raise ValueError(f"server index {s} out of range")
    return (s + 1).bit_length() - 1


def _check_index(v, n) -> int:
    """v as a Python int, for an exact integer item id in 0..n-1; ValueError otherwise."""
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"item id must be an integer, got {v!r}") from None
    if not 0 <= v < n:
        raise ValueError(f"unknown item {v}")
    return v


def parent(s) -> int:
    return (int(s) - 1) // 2


def tree_path(a, b) -> list[int]:
    """Servers on the unique a-b path, endpoints included."""
    a, b = int(a), int(b)
    up_a, up_b = [a], [b]
    while depth(up_a[-1]) > depth(up_b[-1]):
        up_a.append(parent(up_a[-1]))
    while depth(up_b[-1]) > depth(up_a[-1]):
        up_b.append(parent(up_b[-1]))
    while up_a[-1] != up_b[-1]:
        up_a.append(parent(up_a[-1]))
        up_b.append(parent(up_b[-1]))
    return up_a + up_b[-2::-1]


def tree_distance(a, b) -> int:
    """Number of edges on the unique path between servers a and b."""
    a, b = int(a), int(b)
    da, db = depth(a), depth(b)
    hops = 0
    while da > db:
        a, da, hops = parent(a), da - 1, hops + 1
    while db > da:
        b, db, hops = parent(b), db - 1, hops + 1
    while a != b:
        a, b, hops = parent(a), parent(b), hops + 2
    return hops


class CostLedger:
    """Running access/adjustment swap totals; Policy.serve returns each request's share."""

    def __init__(self):
        self.access_total = 0
        self.adjust_total = 0
        # never appended to; kept because perfbench/suite.py reads len(ledger.per_request)
        self.per_request = []

    @property
    def cost_total(self):
        return self.access_total + self.adjust_total


class TreeState:
    """Bijection between n items and the n servers of a perfect binary tree.

    guest[s] is the item hosted at server s; host[v] is the server hosting
    item v.  Server indices use heap layout (children of s are 2s+1, 2s+2).
    """

    def __init__(self, n, guests=None):
        if not is_complete_size(n):
            raise ValueError(f"item count must be 2^d - 1 for d >= 1, got {n}")
        self.n = int(n)
        if guests is None:
            self.guest = np.arange(self.n, dtype=np.int64)
        else:
            self.guest = np.asarray(guests, dtype=np.int64).copy()
            if self.guest.shape != (self.n,) or sorted(self.guest.tolist()) != list(range(self.n)):
                raise ValueError("guests must be a permutation of 0..n-1")
        self.host = np.empty(self.n, dtype=np.int64)
        self.host[self.guest] = np.arange(self.n, dtype=np.int64)
        self.num_levels = self.n.bit_length()
        # per-server depths floor(log2(s+1)), fixed for the lifetime of the tree; level i
        # holds 2^i servers, so the same array is floor(log2(r)) for ranks r = 1..n
        levels = np.arange(self.num_levels, dtype=np.int64)
        self.depths = np.repeat(levels, 1 << levels)

    def level_slice(self, lvl) -> slice:
        """Index range of the servers at a given depth."""
        lo = (1 << lvl) - 1
        return slice(lo, min(2 * lo + 1, self.n))

    def item_depth(self, v) -> int:
        return depth(self.host[self._check_item(v)])

    def _check_item(self, v):
        return _check_index(v, self.n)

    def _check_server(self, s):
        s = int(s)
        if not 0 <= s < self.n:
            raise ValueError(f"server index {s} out of range for n={self.n}")
        return s

    def check_bijection(self):
        assert (self.guest[self.host] == np.arange(self.n)).all()
        assert (self.host[self.guest] == np.arange(self.n)).all()


def routing_header(t: TreeState, v) -> str:
    """Child-choice bits from the root to the host of v ('0' left, '1' right)."""
    s = int(t.host[t._check_item(v)])
    # the binary expansion of s+1 below its leading bit is exactly the path
    return bin(s + 1)[3:]


def follow_header(t: TreeState, bits) -> int:
    """Server reached by walking the given bits down from the root."""
    s = 0
    for b in bits:
        s = 2 * s + 1 + (b == "1")
    return t._check_server(s)


def access(t: TreeState, v, ledger: CostLedger) -> int:
    """Charge the depth of v's host as access cost; the tree is unchanged."""
    d = depth(t.host[t._check_item(v)])
    ledger.access_total += d
    return d


def swap(t: TreeState, s, ledger: CostLedger):
    """Exchange the guests of server s and its parent at unit cost."""
    s = t._check_server(s)
    if s == 0:
        raise ValueError("cannot swap the root with its parent")
    p = parent(s)
    u, w = t.guest[s], t.guest[p]
    t.guest[s], t.guest[p] = w, u
    t.host[u], t.host[w] = p, s
    ledger.adjust_total += 1


def interchange(t: TreeState, u, v, ledger: CostLedger) -> int:
    """Exchange the hosts of items u and v via a chain of swaps along their path.

    u walks the whole path (d swaps) and v walks back (d-1 swaps), which
    puts every in-between item back where it started, so only the final
    u/v exchange is materialized here; the ledger is charged the 2d-1
    swaps the walk costs, one below the 2d worst case.
    """
    u, v = t._check_item(u), t._check_item(v)
    if u == v:
        return 0
    a, b = int(t.host[u]), int(t.host[v])
    d = tree_distance(a, b)
    t.guest[a], t.guest[b] = v, u
    t.host[u], t.host[v] = b, a
    charged = 2 * d - 1
    ledger.adjust_total += charged
    return charged


def relocate_chain(t: TreeState, moves, ledger: CostLedger) -> int:
    """Apply an ordered chain of (item, destination-server) relocations.

    The first item is lifted out, leaving a hole at its source; every later
    move must slide its item into the current hole, and the chain must close
    by leaving the final hole at the first item's destination.  Each move is
    charged the hop count from its source to its destination.
    """
    if not moves:
        return 0
    plan = []
    hole = None
    cost = 0
    for i, (v, dest) in enumerate(moves):
        v = t._check_item(v)
        dest = t._check_server(dest)
        src = int(t.host[v])
        if i == 0:
            hole = src
        else:
            if dest != hole:
                raise ValueError(f"destination {dest} occupied when relocating item {v}")
            hole = src
        cost += tree_distance(src, dest)
        plan.append((v, dest))
    first_dest = plan[0][1]
    if first_dest != hole:
        raise ValueError(f"destination {first_dest} occupied when relocating item {plan[0][0]}")
    for v, dest in plan:
        t.guest[dest] = v
        t.host[v] = dest
    ledger.adjust_total += cost
    return cost
