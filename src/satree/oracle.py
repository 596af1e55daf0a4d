"""Exact offline optimum on tiny trees by dynamic programming over all layouts.

opt_cost relaxes one layout's cost vector over the swap graph of all n!
layouts; check_supported is the one rule on n and the request count, and
the start layout takes the tree's permutation rule.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .tree import _exact_int, _permutation, depth, parent

ORACLE_SIZES = (3, 7)
MAX_REQUESTS = {3: 12, 7: 8}

_INF = np.int64(1) << 40


def check_supported(n, m):
    """Refuse an oracle run the exact optimum cannot handle: n items, m >= 0 requests."""
    if n not in ORACLE_SIZES:
        raise ValueError(f"offline oracle refused for n={n}; supported sizes: {ORACLE_SIZES}")
    if m > MAX_REQUESTS[n]:
        raise ValueError(f"at most {MAX_REQUESTS[n]} requests supported for n={n}")


class _ConfigSpace:
    """All layouts of an n-server tree with the single-swap adjacency between them.

    Layouts are numbered lexicographically: layout p has the base-n key
    sum(p[s] * n**(n-1-s)), and keys holds the keys in ascending order.
    Each table has one row per server or per item: neighbors[s-1] is the
    layout reached by swapping server s with its parent, and item_depth[v]
    is the depth of item v in every layout.
    """

    def __init__(self, n):
        perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                            dtype=np.int64).reshape(-1, n)
        self.weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.keys = perms @ self.weights
        servers = np.arange(1, n)
        parents = np.array([parent(s) for s in range(1, n)])
        # swapping servers s and ps moves the key by (p[ps] - p[s]) * (w[s] - w[ps])
        shift = (perms[:, parents] - perms[:, servers]) * (self.weights[servers] - self.weights[parents])
        self.neighbors = np.searchsorted(self.keys, self.keys[None, :] + shift.T)
        depths = np.array([depth(s) for s in range(n)], dtype=np.int64)
        self.item_depth = np.ascontiguousarray(depths[np.argsort(perms, axis=1)].T)

    def index(self, layout):
        """The number of a layout, a permutation of 0..n-1."""
        return int(np.searchsorted(self.keys, np.dot(layout, self.weights)))

    def start(self, layout):
        """Costs before any move: 0 at the given layout, out of reach everywhere else."""
        f = np.full(len(self.keys), _INF, dtype=np.int64)
        f[self.index(layout)] = 0
        return f

    def relax(self, f):
        """g(c) = min over c' of f(c') + swap distance from c' to c."""
        g = f
        while True:
            h = np.minimum(g, g[self.neighbors].min(axis=0) + 1)
            if np.array_equal(h, g):
                return h
            g = h


# one configuration space per size, built on first use; callers run check_supported first
_space = lru_cache(maxsize=None)(_ConfigSpace)


def opt_cost(seq, init) -> int:
    """Exact offline optimum: swaps plus access depths, rearranging freely between requests.

    The adversary may also rearrange before the first access, which only
    strengthens it.  Tractable for n=3 (up to 12 requests) and n=7 (up to 8).
    """
    init = _permutation(init, None, "start layout")
    n = len(init)
    check_supported(n, len(seq))
    space = _space(n)
    f = space.start(init)
    for v in seq:
        f = space.relax(f) + space.item_depth[_exact_int(v, "item id", n)]
    return int(f.min())
