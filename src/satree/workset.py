"""Recency ranks, the working-set bound, and MRU-layout diagnostics."""

from __future__ import annotations

import math

import numpy as np

from .tree import TreeState, _check_index


class WsAccumulator:
    """Sum of log2(rank at request time) over the requests served so far."""

    def __init__(self):
        self.total = 0.0
        self.terms = 0


class RankTable:
    """Last-access stamps per item; rank(v) = 1 + #items stamped more recently.

    Items that were never accessed carry virtual stamps -(i+1) taken from
    their initial server index i, so a fresh identity layout is an MRU tree
    and every argmax over ranks is tie-free.
    """

    def __init__(self, n, stamps=None, clock=0):
        self.n = int(n)
        if stamps is None:
            self.stamps = -np.arange(1, self.n + 1, dtype=np.int64)
        else:
            self.stamps = np.asarray(stamps, dtype=np.int64).copy()
        self.clock = int(clock)

    @classmethod
    def from_tree(cls, t: TreeState):
        """Virtual stamps matching the current placement: the item at server i gets -(i+1)."""
        rt = cls(t.n)
        rt.stamps[t.guest] = -np.arange(1, t.n + 1, dtype=np.int64)
        return rt

    def _check_item(self, v):
        return _check_index(v, self.n)


def rank(rt: RankTable, v) -> int:
    """1 + number of items accessed strictly more recently than v."""
    v = rt._check_item(v)
    return int((rt.stamps > rt.stamps[v]).sum()) + 1


def rank_order(rt: RankTable) -> np.ndarray:
    """Item ids sorted from most to least recently accessed (rank 1 first)."""
    return np.argsort(-rt.stamps)


def ranks(rt: RankTable) -> np.ndarray:
    """All ranks at once: a permutation of 1..n indexed by item id."""
    out = np.empty(rt.n, dtype=np.int64)
    out[rank_order(rt)] = np.arange(1, rt.n + 1)
    return out


def record(rt: RankTable, acc, v) -> int:
    """Serve one request for v: add log2(rank) to acc, then stamp v as most recent.

    Returns the pre-update rank.  Pass acc=None to skip working-set accounting.
    """
    r = rank(rt, v)
    if acc is not None:
        acc.total += math.log2(r)
        acc.terms += 1
    rt.stamps[v] = rt.clock
    rt.clock += 1
    return r


def max_rank_item_at_depth(rt: RankTable, t: TreeState, lvl) -> int:
    """The least recently used item among those hosted at the given depth."""
    guests = t.guest[t.level_slice(lvl)]
    return int(guests[np.argmin(rt.stamps[guests])])


def is_mru(t: TreeState, rt: RankTable) -> bool:
    """True iff every item sits at depth floor(log2(rank)); t.depths[r-1] is floor(log2(r))."""
    order = rank_order(rt)
    return bool((t.depths[t.host[order]] == t.depths).all())


def is_mru_beta(t: TreeState, rt: RankTable, beta) -> bool:
    """True iff every item sits at most beta levels below its MRU depth."""
    return bool((t.depths[t.host] <= t.depths[ranks(rt) - 1] + int(beta)).all())


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
