"""Recency ranks, the working-set bound, and the MRU-layout predicate."""

from __future__ import annotations

import operator

import numpy as np

from .tree import _INT32_MAX, TreeState, _exact_int, _int_view

_LEAF = 10  # 2**10 slots a dead-mask leaf: of 2**6, 2**8, 2**10 and 2**12, fastest at n = 131071
_SLOT = (1 << _LEAF) - 1  # slot i is bit i & _SLOT of leaf i >> _LEAF


class WsAccumulator:
    """Sum of log2(rank at request time) over the requests served so far."""

    def __init__(self):
        self.total = 0.0


def _window(n: int) -> int:
    """The slot count n + n//4 + 1 of a rank table of n items; ValueError, before anything is
    allocated, if that count does not fit an int32."""
    size = n + n // 4 + 1
    if size > _INT32_MAX:
        raise ValueError(f"item count {n} too large: a window of {size} rank slots does not fit an int32")
    return size


class RankTable:
    """Last-access stamps per item; rank(v) = 1 + #items stamped more recently.

    Stamps are int32 slots in a window of n + n//4 + 1: stamps[v] is the
    slot of v's last access, and clock the slot the next access takes.  The
    slots items have left below the clock are dead, one bit each in a dead
    mask kept as a list of Python-int leaves of 1024 slots (slot i is bit
    i & 1023 of leaf i >> 10), and a Fenwick tree (Fenwick 1994), a plain
    list over the leaves, counts the dead bits of each leaf prefix.  Every
    slot below stamps[v] is live or dead, so rank(v) = n - stamps[v] +
    (dead slots below stamps[v]): the popcount of the masked leaf of
    stamps[v] plus one Fenwick prefix over the leaves before it.  A record
    sets one bit and makes one Fenwick update, at the leaf of the slot it
    kills; both take O(log(n/1024)) list steps, and the clock's new slot
    was live and stays so.  When the clock reaches the end of the window
    the stamps are renumbered 0..n-1 in recency order, O(n) once every
    n//4 + 1 records, and with no dead slot the leaves and the tree start
    again from zeros.  An n whose window does not fit an int32 is refused.

    Before any access, RankTable(n) ranks item i as i + 1 and from_tree
    ranks the item at server i as i + 1, both with stamps 0..n-1.  So a
    fresh layout is an MRU tree and every argmax over ranks is tie-free.
    The stamps array is the table's for its lifetime; rank and record read
    and store it through _sv, an int32 memoryview over its buffer, and
    rt.stamps is a read-only view of it, since a write from outside would
    bypass the dead mask, the slot map and the boundaries below.

    Max-push also needs the item of some ranks, so a table it uses keeps a
    slot -> item map (int32, one entry per slot), allocated by _map_slots
    while the table is fresh; from then on each record stores one entry
    and each renumbering rewrites it.  Alongside the map the table keeps _bnd[j],
    the item of rank 2^(j+1) - 1, for every level j: the least recent item
    of level j in an MRU tree.  A record of an item of rank r adds one to
    every rank below r, so each boundary of rank at most r steps to the
    next live slot of the map; a boundary only ever moves to newer slots,
    so each dead slot is skipped at most once per boundary between
    renumberings, amortised O(1) per level and record.
    """

    def __init__(self, n):
        self.n = _exact_int(n, "item count")
        if self.n < 1:
            raise ValueError(f"item count must be at least 1, got {n}")
        self._size = _window(self.n)
        self._leaves = (self._size + _SLOT) >> _LEAF  # of the dead mask, 2**_LEAF slots each
        self._item = None  # the slot -> item map, allocated by _map_slots
        self._bnd = None  # _bnd[j], the item of rank 2^(j+1) - 1, kept with the map
        self._stamps = np.arange(self.n - 1, -1, -1, dtype=np.int32)
        self._reset_dead()
        self._sv = _int_view(self._stamps, "i")
        self._ro_stamps = self._stamps.view()
        self._ro_stamps.flags.writeable = False

    @property
    def stamps(self) -> np.ndarray:
        """stamps[v], the slot of item v's last access, as a read-only view."""
        return self._ro_stamps

    @classmethod
    def from_tree(cls, t: TreeState):
        """Stamps matching the current placement: the item at server i has rank i+1."""
        rt = cls(t.n)
        np.subtract(t.n - 1, t.host, out=rt._stamps)
        return rt

    def _renumber(self):
        """Restamp the items 0..n-1 from least to most recent."""
        order = np.argsort(self._stamps)
        self._stamps[order] = np.arange(self.n, dtype=np.int32)
        self._reset_dead()
        if self._item is not None:
            self._map_slots()

    def _map_slots(self):
        """Fill the slot -> item map, allocating it if there is none, and the level boundaries.

        Called only while the stamps are exactly 0..n-1, when the table is
        fresh or just renumbered, so the item of rank r sits in slot n - r.
        """
        if self._item is None:
            self._item = memoryview(bytearray(4 * self._size)).cast("i")
        item = np.frombuffer(self._item, dtype=np.int32)
        item[self._stamps] = np.arange(self.n, dtype=np.int32)
        self._bnd = item[self.n + 1 - (2 << np.arange(self.n.bit_length()))].tolist()

    def _reset_dead(self):
        """No dead slot: a list of zero leaves and a zero Fenwick tree over them (a list of
        counts, indexed from 1); the clock at n."""
        self._dead = [0] * self._leaves
        self._fen = [0] * (self._leaves + 1)
        self.clock = self.n

    def rank(self, v) -> int:
        """Rank of item v: n - its slot + the dead slots below it; ValueError for a non-item."""
        fen, n = self._fen, self.n
        i = self._sv[_exact_int(v, "item id", n)]
        w = i >> _LEAF
        r = n - i + (self._dead[w] & ((1 << (i & _SLOT)) - 1)).bit_count()
        while w:
            r += fen[w]
            w &= w - 1
        return r

    def _touch(self, v, r):
        """Move item v, of rank r, to the clock slot, the most recent one, and mark its old slot dead."""
        fen, leaves, stamps = self._fen, self._leaves, self._sv
        old = stamps[v]
        w = old >> _LEAF
        self._dead[w] |= 1 << (old & _SLOT)
        w += 1
        while w <= leaves:
            fen[w] += 1
            w += w & -w
        stamps[v] = self.clock
        item = self._item
        if item is not None:
            item[self.clock] = v
            bnd = self._bnd
            # each boundary of rank 2^(j+1) - 1 <= r steps up; v's own, if r is one, from v's old slot
            for j in range((r + 1).bit_length() - 1):
                w = bnd[j]
                i = (old if w == v else stamps[w]) + 1
                while stamps[item[i]] != i:
                    i += 1
                bnd[j] = item[i]
        self.clock += 1
        if self.clock == self._size:
            self._renumber()


def record(rt: RankTable, v) -> int:
    """Stamp v as the most recent item; returns its rank before the update."""
    r = rt.rank(v)  # the one id check
    rt._touch(operator.index(v), r)
    return r


def max_rank_item_at_depth(rt: RankTable, t: TreeState, lvl) -> int:
    """The least recently used item among those hosted at the given depth.

    One gather of the level's stamps and the ndarray.argmin method, on the
    private arrays: the public properties and np.argmin's dispatch wrapper
    cost more per call than the scan itself on levels of a few items.
    """
    lo = (1 << _exact_int(lvl, "depth", t.num_levels)) - 1
    return t._gv[lo + int(rt._stamps[t._guest[lo:2 * lo + 1]].argmin())]


def is_mru(t: TreeState, rt: RankTable) -> bool:
    """True iff every item sits at depth floor(log2(rank)).

    With distinct stamps that holds exactly when each level's oldest stamp
    is newer than the newest one level deeper.
    """
    st = rt.stamps[t.guest]
    mins = np.minimum.reduceat(st, t.level_starts)
    return bool((mins[:-1] > np.maximum.reduceat(st, t.level_starts[1:])).all())
