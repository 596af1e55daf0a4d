"""Array-backed complete binary tree of servers and the swap-cost primitives."""

from __future__ import annotations

import operator

import numpy as np


def is_complete_size(n) -> bool:
    """True iff n = 2^d - 1 for some integer d >= 1."""
    return n >= 1 and (n & (n + 1)) == 0


_NP_BOOL = np.bool_


def _exact_int(x, what, n=None) -> int:
    """x as a Python int, for an exact integer in 0..n-1, or any x >= 0 when n is None.

    bool and numpy.bool_ are refused, although Python counts bool as an int;
    ValueError for anything refused.  A plain int, what the memoryviews hand
    out, goes straight to the range test; any other type is tested for the
    two bools by identity, which costs less per call than an isinstance and
    misses only subclasses of numpy.bool_ (numpy itself makes none, bool has
    none), and then converted by operator.index.
    """
    cls = type(x)
    if cls is not int:
        try:
            if cls is bool or cls is _NP_BOOL:
                raise TypeError
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if x >= 0 and (n is None or x < n):
        return x
    raise ValueError(f"{what} {x} out of range")


def depth(s) -> int:
    """Depth of server s in heap layout; the root (s=0) has depth 0."""
    return (_exact_int(s, "server id") + 1).bit_length() - 1


def parent(s) -> int:
    """Parent of server s in heap layout; the root (s=0) has none."""
    s = _exact_int(s, "server id")
    if s == 0:
        raise ValueError("the root server 0 has no parent")
    return (s - 1) // 2


def tree_distance(a, b) -> int:
    """Number of edges on the unique path between servers a and b.

    In s+1 the bits below the leading one spell the root-to-s path, so the
    deeper end is lifted to the shallower one's depth by a shift, and the
    lowest common ancestor sits as many levels above both as the bit length
    of their XOR.
    """
    x, y = _exact_int(a, "server id") + 1, _exact_int(b, "server id") + 1
    lift = x.bit_length() - y.bit_length()
    if lift > 0:
        x >>= lift
    else:
        y >>= -lift
    return abs(lift) + 2 * (x ^ y).bit_length()


def _permutation(a, n, what) -> np.ndarray:
    """A fresh C-contiguous int64 copy of a, if it is an integer permutation of 0..n-1; else ValueError.

    n None is a's own size.  An empty a is refused, and so are a ragged nesting, which numpy refuses
    in its own words, and a list or tuple with a bool or numpy.bool_ element, which numpy reads as 0 or 1.
    """
    bools = isinstance(a, (list, tuple)) and not {bool, _NP_BOOL}.isdisjoint(map(type, a))
    try:
        a = np.asarray(a)
    except ValueError:  # ragged: numpy's message would not name the rule
        a = np.empty(0)  # refused below, as any empty a is
    n = a.size if n is None else n
    if not bools and a.size and a.dtype.kind in "iu" and a.shape == (n,) and a.min() >= 0 and a.max() < n:
        a = np.array(a, dtype=np.int64)
        if np.bincount(a, minlength=n).min() == 1:
            return a
    raise ValueError(f"{what} must be an integer permutation of 0..n-1")


def _int_view(a: np.ndarray, code: str) -> memoryview:
    """A memoryview over the buffer of a C-contiguous integer array, of the struct code of a's dtype
    ("q" int64, "i" int32); its elements are ints."""
    return memoryview(a).cast("B").cast(code)


# the largest value an int32 holds: a host, a stamp or a slot must not exceed it
_INT32_MAX = 2**31 - 1


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
    Both are C-contiguous numpy arrays for vector work: guest int64, as
    max_rank_item_at_depth gathers stamps with it and an int32 index array
    makes that gather slower, and host int32, half the memory, so every id
    must fit an int32 and a larger n is refused before anything is
    allocated.  Each has a memoryview over the same buffer, _gv ("q") and
    _hv ("i"), through which the per-request scalar reads and stores go: a
    memoryview element costs less than a numpy one.  The constructor makes
    both arrays, from a copy of guests when one is given, and they stay the
    tree's for its lifetime: t.guest and t.host cannot be rebound.  In-place
    numpy writes are seen through the views; keeping the two inverse to
    each other is the writer's part.
    """

    def __init__(self, n, guests=None):
        n = _exact_int(n, "item count")
        if not is_complete_size(n):
            raise ValueError(f"item count must be 2^d - 1 for d >= 1, got {n}")
        if n - 1 > _INT32_MAX:
            raise ValueError(f"item count {n} too large: ids must fit an int32")
        self.n = n
        guest = np.arange(n, dtype=np.int64) if guests is None else _permutation(guests, n, "guests")
        host = np.empty(n, dtype=np.int32)
        host[guest] = np.arange(n, dtype=np.int32)
        self._guest, self._gv = guest, _int_view(guest, "q")
        self._host, self._hv = host, _int_view(host, "i")
        self.num_levels = n.bit_length()
        # per-server depths floor(log2(s+1)), fixed for the lifetime of the tree; level i
        # holds 2^i servers, so the same array is floor(log2(r)) for ranks r = 1..n; int8,
        # as every tree keeps its own copy and no depth reaches 127
        levels = np.arange(self.num_levels, dtype=np.int64)
        self.depths = np.repeat(levels.astype(np.int8), 1 << levels)
        # first server of each level, the segment starts for per-level reductions
        self.level_starts = (1 << levels) - 1

    @property
    def guest(self) -> np.ndarray:
        """guest[s], the item at server s."""
        return self._guest

    @property
    def host(self) -> np.ndarray:
        """host[v], the server of item v."""
        return self._host


def routing_header(t: TreeState, v) -> str:
    """Child-choice bits from the root to the host of v ('0' left, '1' right)."""
    s = t._hv[_exact_int(v, "item id", t.n)]
    # the binary expansion of s+1 below its leading bit is exactly the path
    return bin(s + 1)[3:]


def interchange(t: TreeState, u, v) -> int:
    """Exchange the hosts of items u and v via a chain of swaps along their path.

    u walks the whole path (d swaps) and v walks back (d-1 swaps), which
    puts every in-between item back where it started, so only the final
    u/v exchange is materialized here; returns the 2d-1 swaps the walk
    costs, one below the 2d worst case.
    """
    u, v = _exact_int(u, "item id", t.n), _exact_int(v, "item id", t.n)
    if u == v:
        return 0
    guest, host = t._gv, t._hv
    a, b = host[u], host[v]
    d = tree_distance(a, b)
    guest[a], guest[b] = v, u
    host[u], host[v] = b, a
    return 2 * d - 1

