"""Array-backed complete binary tree of servers and the swap-cost primitives."""

from __future__ import annotations

import operator

import numpy as np


def is_complete_size(n) -> bool:
    """True iff n = 2^d - 1 for some integer d >= 1."""
    return n >= 1 and (n & (n + 1)) == 0


def _server_id(s) -> int:
    """s as a Python int, for an exact non-negative integer server id; ValueError otherwise."""
    try:
        s = operator.index(s)
    except TypeError:
        raise ValueError(f"server id must be an integer, got {s!r}") from None
    if s < 0:
        raise ValueError(f"server index {s} out of range")
    return s


def depth(s) -> int:
    """Depth of server s in heap layout; the root (s=0) has depth 0."""
    return (_server_id(s) + 1).bit_length() - 1


def _check_index(v, n, what="item") -> int:
    """v as a Python int, for an exact integer id in 0..n-1; ValueError otherwise."""
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"{what} id must be an integer, got {v!r}") from None
    if not 0 <= v < n:
        raise ValueError(f"unknown {what} {v}")
    return v


def parent(s) -> int:
    """Parent of server s in heap layout; the root (s=0) has none."""
    s = _server_id(s)
    if s == 0:
        raise ValueError("the root server 0 has no parent")
    return (s - 1) // 2


def tree_path(a, b) -> list[int]:
    """Servers on the unique a-b path, endpoints included."""
    a, b = _server_id(a), _server_id(b)
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
    """Number of edges on the unique path between servers a and b.

    In s+1 the bits below the leading one spell the root-to-s path, so the
    deeper end is lifted to the shallower one's depth by a shift, and the
    lowest common ancestor sits as many levels above both as the bit length
    of their XOR.
    """
    x, y = _server_id(a) + 1, _server_id(b) + 1
    lift = x.bit_length() - y.bit_length()
    if lift > 0:
        x >>= lift
    else:
        y >>= -lift
    return abs(lift) + 2 * (x ^ y).bit_length()


def _permutation(a, n, what) -> np.ndarray:
    """a as a C-contiguous writable int64 array, if it is an integer permutation of 0..n-1.

    An array that already is one is returned as is, anything else is copied; ValueError
    when a is not such a permutation.
    """
    a = np.asarray(a)
    if a.dtype.kind in "iu" and a.shape == (n,) and a.min() >= 0 and a.max() < n:
        a = np.require(a, np.int64, "CAW")
        if np.bincount(a, minlength=n).min() == 1:
            return a
    raise ValueError(f"{what} must be an integer permutation of 0..n-1")


def _int64_view(a: np.ndarray) -> memoryview:
    """An int64 memoryview over the buffer of a C-contiguous int64 array; its elements are ints."""
    return memoryview(a).cast("B").cast("q")


class CostLedger:
    """Running access/adjustment swap totals, charged by Policy.serve alone."""

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
    Both are C-contiguous int64 numpy arrays for vector work, and each has
    an int64 memoryview over the same buffer, _gv and _hv, through which
    the per-request scalar reads and stores go: a memoryview element costs
    less than a numpy one.  In-place numpy writes are seen through the
    views.  Rebinding t.guest or t.host checks that the new array is an
    integer permutation of 0..n-1 (ValueError otherwise, with the old array
    and view kept), copies it to C-contiguous int64 if it is not already,
    and rebuilds the view; keeping the two inverse to each other is the
    caller's part.
    """

    def __init__(self, n, guests=None):
        if not is_complete_size(n):
            raise ValueError(f"item count must be 2^d - 1 for d >= 1, got {n}")
        self.n = int(n)
        if guests is None:
            guest = np.arange(self.n, dtype=np.int64)
        else:
            # a copy, so that the tree never shares the caller's array
            guest = _permutation(guests, self.n, "guests").copy()
        host = np.empty(self.n, dtype=np.int64)
        host[guest] = np.arange(self.n, dtype=np.int64)
        self._guest, self._gv = guest, _int64_view(guest)
        self._host, self._hv = host, _int64_view(host)
        self.num_levels = self.n.bit_length()
        # per-server depths floor(log2(s+1)), fixed for the lifetime of the tree; level i
        # holds 2^i servers, so the same array is floor(log2(r)) for ranks r = 1..n; int8,
        # as every tree keeps its own copy and no depth reaches 127
        levels = np.arange(self.num_levels, dtype=np.int64)
        self.depths = np.repeat(levels.astype(np.int8), 1 << levels)
        # first server of each level, the segment starts for per-level reductions
        self.level_starts = (1 << levels) - 1

    @property
    def guest(self) -> np.ndarray:
        """guest[s], the item at server s; rebinding checks the array and rebuilds _gv."""
        return self._guest

    @guest.setter
    def guest(self, a):
        a = _permutation(a, self.n, "guest")
        self._guest, self._gv = a, _int64_view(a)

    @property
    def host(self) -> np.ndarray:
        """host[v], the server of item v; rebinding checks the array and rebuilds _hv."""
        return self._host

    @host.setter
    def host(self, a):
        a = _permutation(a, self.n, "host")
        self._host, self._hv = a, _int64_view(a)

    def level_slice(self, lvl) -> slice:
        """Index range of the servers at a given depth."""
        lo = (1 << lvl) - 1
        return slice(lo, min(2 * lo + 1, self.n))

    def item_depth(self, v) -> int:
        return depth(self._hv[_check_index(v, self.n)])

    def check_bijection(self):
        """Raise RuntimeError unless guest and host are inverse permutations."""
        ids = np.arange(self.n)
        if not ((self.guest[self.host] == ids).all() and (self.host[self.guest] == ids).all()):
            raise RuntimeError("guest and host are not inverse permutations")


def routing_header(t: TreeState, v) -> str:
    """Child-choice bits from the root to the host of v ('0' left, '1' right)."""
    s = t._hv[_check_index(v, t.n)]
    # the binary expansion of s+1 below its leading bit is exactly the path
    return bin(s + 1)[3:]


def follow_header(t: TreeState, bits) -> int:
    """Server reached by walking the given bits down from the root."""
    s = 0
    for b in bits:
        if b not in ("0", "1"):
            raise ValueError(f"routing header bits must be '0' or '1', got {b!r}")
        s = 2 * s + 1 + (b == "1")
    return _check_index(s, t.n, "server")


def interchange(t: TreeState, u, v) -> int:
    """Exchange the hosts of items u and v via a chain of swaps along their path.

    u walks the whole path (d swaps) and v walks back (d-1 swaps), which
    puts every in-between item back where it started, so only the final
    u/v exchange is materialized here; returns the 2d-1 swaps the walk
    costs, one below the 2d worst case.
    """
    u, v = _check_index(u, t.n), _check_index(v, t.n)
    if u == v:
        return 0
    guest, host = t._gv, t._hv
    a, b = host[u], host[v]
    d = tree_distance(a, b)
    guest[a], guest[b] = v, u
    host[u], host[v] = b, a
    return 2 * d - 1

