"""Recency ranks, the working-set bound, and MRU-layout diagnostics."""

from __future__ import annotations

import functools

import numpy as np

from .tree import TreeState, _check_index, _int64_view


class WsAccumulator:
    """Sum of log2(rank at request time) over the requests served so far."""

    def __init__(self):
        self.total = 0.0


class RankTable:
    """Last-access stamps per item; rank(v) = 1 + #items stamped more recently.

    Stamps are slots in a window of n + n//4 + 1: stamps[v] is the slot of
    v's last access, and clock the slot the next access takes.  A Fenwick
    tree (Fenwick 1994) over the slots marks the n live ones, so a rank is
    one prefix count and a record two point updates, both O(log n).  When
    the clock reaches the end of the window the stamps are renumbered
    0..n-1 in recency order, O(n) once every n//4 + 1 records.

    Before any access, RankTable(n) ranks item i as i + 1, from_tree ranks
    the item at server i as i + 1, and given stamps, which must be
    distinct, keep their order.  So a fresh identity layout is an MRU tree
    and every argmax over ranks is tie-free.  Stamps are given to the
    constructor or by rebinding rt.stamps, and either way rebuild the table.
    The stamps stay an int64 numpy array for vector work; rank and record
    read and store them through _sv, an int64 memoryview over the same
    buffer, which every binding of the array rebuilds.

    The item of a given rank is a Fenwick descent to its slot plus a
    slot -> item map (int32, one entry per slot).  Only max-push reads it,
    so the map is allocated by _map_slots on first use; from then on each
    record stores one entry and each renumbering rewrites it.  Alongside
    the map the table keeps _bnd[j], the item of rank 2^(j+1) - 1, for
    every level j: the least recent item of level j in an MRU tree.  A
    record of an item of rank r adds one to every rank below r, so each
    boundary of rank at most r steps to the next live slot of the map;
    a boundary only ever moves to newer slots, so each dead slot is
    skipped at most once per boundary between renumberings, amortised
    O(1) per level and record.  Writing into the stamps array in place
    bypasses the Fenwick tree, the map and the boundaries and leaves the
    table inconsistent.
    """

    def __init__(self, n, stamps=None):
        self.n = int(n)
        self._size = self.n + self.n // 4 + 1
        self._item = None  # the slot -> item map, allocated by _map_slots
        self._bnd = None  # _bnd[j], the item of rank 2^(j+1) - 1, kept with the map
        if stamps is None:
            self._bind(np.arange(self.n - 1, -1, -1, dtype=np.int64))
            self._reset_fenwick()
        else:
            self.stamps = stamps

    @property
    def stamps(self) -> np.ndarray:
        """stamps[v], the slot of item v's last access; rebinding checks a copy and renumbers it."""
        return self._stamps

    @stamps.setter
    def stamps(self, stamps):
        stamps = np.array(stamps, dtype=np.int64)
        if stamps.shape != (self.n,):
            raise ValueError(f"need one stamp per item, got shape {stamps.shape} for n={self.n}")
        # the Fenwick tree and the MRU predicate both rely on distinct stamps
        if len(np.unique(stamps)) != self.n:
            raise ValueError("stamps must be distinct")
        self._bind(stamps)
        self._renumber()

    def _bind(self, stamps):
        """Hold a C-contiguous int64 stamps array and an int64 memoryview over its buffer."""
        self._stamps, self._sv = stamps, _int64_view(stamps)

    @classmethod
    def from_tree(cls, t: TreeState):
        """Stamps matching the current placement: the item at server i has rank i+1."""
        rt = cls(t.n)
        np.subtract(t.n - 1, t.host, out=rt._stamps)
        return rt

    def _renumber(self):
        """Restamp the items 0..n-1 from least to most recent."""
        order = np.argsort(self._stamps)
        self._stamps[order] = np.arange(self.n)
        self._reset_fenwick()
        if self._item is not None:
            self._map_slots()

    def _map_slots(self):
        """Allocate the slot -> item map if there is none; fill it and the level boundaries from the stamps."""
        if self._item is None:
            self._item = memoryview(bytearray(4 * self._size)).cast("i")
        np.frombuffer(self._item, dtype=np.int32)[self._stamps] = np.arange(self.n, dtype=np.int32)
        self._bnd = [self._item_of_rank((2 << j) - 1) for j in range(self.n.bit_length())]

    def _reset_fenwick(self):
        """Fenwick tree (int32 counts, indexed from 1) with slots 0..n-1 live; the clock at n."""
        self._fen = memoryview(bytearray(_fresh_fenwick(self.n, self._size))).cast("i")
        self.clock = self.n

    def rank(self, v) -> int:
        """Rank of item v, by one Fenwick prefix count over the older slots.

        v must be an item id already checked: the module-level rank() and
        record() check it, and Policy.serve checks its request once.
        """
        fen, i, older = self._fen, self._sv[v] + 1, 0
        while i:
            older += fen[i]
            i &= i - 1
        return self.n - older + 1

    def _item_of_rank(self, r) -> int:
        """The item of rank r in 1..n, by a Fenwick descent; needs the slot map.

        The item sits at the (n - r + 1)-th live slot: the descent finds the
        last slot whose prefix count stays below that, and it is the next one.
        """
        fen, size, slot, left = self._fen, self._size, 0, self.n - r + 1
        step = 1 << (size.bit_length() - 1)
        while step:
            i = slot + step
            if i <= size and fen[i] < left:
                slot = i
                left -= fen[i]
            step >>= 1
        return self._item[slot]

    def _touch(self, v, r):
        """Move item v, of rank r, to the clock slot, the most recent one."""
        fen, size, stamps = self._fen, self._size, self._sv
        old = stamps[v]
        i = old + 1
        while i <= size:
            fen[i] -= 1
            i += i & -i
        i = self.clock + 1
        while i <= size:
            fen[i] += 1
            i += i & -i
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
        if self.clock == size:
            self._renumber()


@functools.lru_cache(maxsize=8)
def _fresh_fenwick(n, size) -> bytes:
    """Fenwick counts over `size` slots of which 0..n-1 are live, as int32 bytes.

    Node i covers slots i - lowbit(i) .. i-1, so it counts lowbit(i) minus
    the max(i - n, 0) dead slots at its top, floored at 0.  Every table of n
    items starts from, and renumbers to, this same tree.
    """
    i = np.arange(size + 1, dtype=np.int32)
    counts = i & -i
    counts -= np.maximum(i - n, 0)
    return np.maximum(counts, 0).tobytes()


def rank(rt: RankTable, v) -> int:
    """1 + number of items accessed strictly more recently than v."""
    return rt.rank(_check_index(v, rt.n))


def rank_order(rt: RankTable) -> np.ndarray:
    """Item ids sorted from most to least recently accessed (rank 1 first)."""
    return np.argsort(-rt.stamps)


def ranks(rt: RankTable) -> np.ndarray:
    """All ranks at once: a permutation of 1..n indexed by item id."""
    out = np.empty(rt.n, dtype=np.int64)
    out[rank_order(rt)] = np.arange(1, rt.n + 1)
    return out


def record(rt: RankTable, v) -> int:
    """Stamp v as the most recent item; returns its rank before the update."""
    v = _check_index(v, rt.n)
    r = rt.rank(v)
    rt._touch(v, r)
    return r


def max_rank_item_at_depth(rt: RankTable, t: TreeState, lvl) -> int:
    """The least recently used item among those hosted at the given depth."""
    guests = t.guest[t.level_slice(lvl)]
    return int(guests[np.argmin(rt.stamps[guests])])


def _level_minima(t: TreeState, st) -> tuple[np.ndarray, bool]:
    """Per-level minima of st (stamps by server) and whether the layout is MRU.

    With distinct stamps every item sits at depth floor(log2(rank)) exactly
    when each level's oldest stamp is newer than the newest one level deeper.
    """
    mins = np.minimum.reduceat(st, t.level_starts)
    deeper_max = np.maximum.reduceat(st, t.level_starts[1:])
    return mins, bool((mins[:-1] > deeper_max).all())


def is_mru(t: TreeState, rt: RankTable) -> bool:
    """True iff every item sits at depth floor(log2(rank))."""
    return _level_minima(t, rt.stamps[t.guest])[1]


def is_mru_beta(t: TreeState, rt: RankTable, beta) -> bool:
    """True iff every item sits at most beta levels below its MRU depth."""
    return bool((t.depths[t.host] - t.depths[ranks(rt) - 1] <= int(beta)).all())


def bad_pairs(t: TreeState, rt: RankTable):
    """Depth-order inversions against recency, and the product potential built on them.

    alpha[i] counts servers strictly deeper than server i whose guests were
    accessed more recently than i's guest.  Returns (alpha, B, phi) with
    B = prod_i (1 + alpha[i] / 2^depth(i)) and phi = log2(B).
    """
    guest_rank = ranks(rt)[t.guest]
    deeper = t.depths[:, None] < t.depths[None, :]
    staler = guest_rank[:, None] > guest_rank[None, :]
    alpha = (deeper & staler).sum(axis=1).astype(np.int64)
    factors = 1.0 + alpha / np.exp2(t.depths.astype(np.float64))
    return alpha, float(factors.prod()), float(np.log2(factors).sum())
