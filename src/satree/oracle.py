"""Exact offline optimum on tiny trees by dynamic programming over all layouts."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .tree import _check_index, depth, parent

ORACLE_SIZES = (3, 7)
MAX_REQUESTS = {3: 12, 7: 8}

_INF = np.int64(1) << 40


def check_supported(n, m):
    """Refuse an oracle run the exact optimum cannot handle: n items, m requests."""
    if n not in ORACLE_SIZES:
        raise ValueError(f"offline oracle refused for n={n}; supported sizes: {ORACLE_SIZES}")
    if m > MAX_REQUESTS[n]:
        raise ValueError(f"at most {MAX_REQUESTS[n]} requests supported for n={n}")


class _ConfigSpace:
    """All layouts of an n-server tree with the single-swap adjacency between them."""

    def __init__(self, n):
        self.n = n
        self.perms = list(itertools.permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        P = len(self.perms)
        self.neighbors = np.empty((P, n - 1), dtype=np.int64)
        depths = [depth(s) for s in range(n)]
        self.item_depth = np.empty((P, n), dtype=np.int64)
        for i, p in enumerate(self.perms):
            for s in range(1, n):
                q = list(p)
                q[s], q[parent(s)] = q[parent(s)], q[s]
                self.neighbors[i, s - 1] = self.index[tuple(q)]
            for s, item in enumerate(p):
                self.item_depth[i, item] = depths[s]
        self._dist_memo = {}

    def relax(self, f):
        """g(c) = min over c' of f(c') + swap distance from c' to c."""
        g = f
        while True:
            h = np.minimum(g, g[self.neighbors].min(axis=1) + 1)
            if np.array_equal(h, g):
                return h
            g = h

    def distances_from(self, idx):
        d = self._dist_memo.get(idx)
        if d is None:
            f = np.full(len(self.perms), _INF, dtype=np.int64)
            f[idx] = 0
            d = self.relax(f)
            self._dist_memo[idx] = d
        return d


@lru_cache(maxsize=None)
def _space(n) -> _ConfigSpace:
    if n not in ORACLE_SIZES:
        raise ValueError(f"oracle supports n in {ORACLE_SIZES}, got {n}")
    return _ConfigSpace(n)


def _as_config(layout):
    """The layout as a tuple, for an exact-integer permutation of 0..n-1; ValueError otherwise."""
    n = len(layout)
    config = tuple(_check_index(g, n) for g in layout)
    if len(set(config)) != n:
        raise ValueError(f"layout {config} is not a permutation of 0..{n - 1}")
    return config


def swap_distance(a, b) -> int:
    """Minimum number of parent-child swaps turning layout a into layout b."""
    a, b = _as_config(a), _as_config(b)
    if len(a) != len(b):
        raise ValueError("layouts have different sizes")
    space = _space(len(a))
    return int(space.distances_from(space.index[a])[space.index[b]])


def opt_cost(seq, init) -> int:
    """Exact offline optimum: swaps plus access depths, rearranging freely between requests.

    The adversary may also rearrange before the first access, which only
    strengthens it.  Tractable for n=3 (up to 12 requests) and n=7 (up to 8).
    """
    init = _as_config(init)
    n = len(init)
    space = _space(n)
    check_supported(n, len(seq))
    f = np.full(len(space.perms), _INF, dtype=np.int64)
    f[space.index[init]] = 0
    for v in seq:
        f = space.relax(f) + space.item_depth[:, _check_index(v, n)]
    return int(f.min())
