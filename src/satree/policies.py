"""Online relocation policies sharing one serve interface."""

from __future__ import annotations

import numpy as np

from .tree import CostLedger, TreeState, access, depth, interchange, relocate_chain, tree_distance
from .workset import RankTable, WsAccumulator, max_rank_item_at_depth, rank_order, record

POLICY_KINDS = ("move-half", "random-push", "max-push", "static-mfu", "fixed")
# the paper's per-request cost bounds, as multiples of the request's access cost
_COST_FACTOR = {"move-half": 4, "random-push": 5}


def sample_push_path(rng, k) -> list[int]:
    """Root-to-depth-k server path with uniformly random child choices."""
    path = [0]
    for bit in rng.integers(0, 2, size=k):
        path.append(2 * path[-1] + 1 + int(bit))
    return path


def _check_freq(freq, n):
    freq = np.asarray(freq, dtype=np.float64)
    if freq.shape != (n,):
        raise ValueError(f"need one frequency per item, got shape {freq.shape} for n={n}")
    if (freq < 0).any():
        raise ValueError("frequencies must be non-negative")
    if abs(float(freq.sum()) - 1.0) > 1e-9:
        raise ValueError(f"frequencies must sum to 1, got {float(freq.sum())!r}")
    return freq


def build_static_mfu(freq) -> TreeState:
    """Place items top-down, left-to-right in descending frequency (ties by item id)."""
    freq = np.asarray(freq, dtype=np.float64)
    n = freq.shape[0]
    if not (n >= 1 and (n & (n + 1)) == 0):
        raise ValueError(f"item count must be 2^d - 1 for d >= 1, got {n}")
    freq = _check_freq(freq, n)
    order = sorted(range(n), key=lambda v: (-freq[v], v))
    return TreeState(n, guests=order)


def expected_path_length(t: TreeState, freq) -> float:
    """Mean access depth under the given item frequencies."""
    freq = _check_freq(freq, t.n)
    return float(sum(freq[v] * depth(t.host[v]) for v in range(t.n)))


class Policy:
    """One policy instance bound to its own tree, rank table and ledger."""

    def __init__(self, kind, n, seed=None, freq=None):
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}")
        self.kind = kind
        if kind == "static-mfu":
            if freq is None:
                raise ValueError("static-mfu needs an item frequency vector")
            self.tree = build_static_mfu(freq)
            if self.tree.n != n:
                raise ValueError("frequency vector length does not match n")
        else:
            self.tree = TreeState(n)
        self.ranks = RankTable.from_tree(self.tree)
        self.ledger = CostLedger()
        self.ws = WsAccumulator()
        self.rng = np.random.default_rng(seed) if kind == "random-push" else None

    def serve(self, u):
        """Serve one request for item u; returns (access, adjust, rank, path).

        access is u's depth and rank its recency rank when the request
        arrives, adjust the swaps spent relocating, and path random-push's
        sampled push path (None for the other kinds, or when u is at the
        root).  A rejected request (an item that is not an integer in
        0..n-1, or max-push on a tree that is not MRU) raises ValueError
        and changes nothing.
        """
        t, ledger = self.tree, self.ledger
        u = t._check_item(u)
        if self.kind == "max-push":
            order = rank_order(self.ranks)
            # on an MRU tree the item of rank r sits at depth floor(log2(r)) = depths[r-1]
            if not (t.depths[t.host[order]] == t.depths).all():
                raise ValueError("max-push requires an MRU tree")
        adjust0 = ledger.adjust_total
        k = access(t, u, ledger)
        path = None
        if k > 0 and self.kind == "move-half":
            # interchange u with the max-rank item at depth k//2
            v = max_rank_item_at_depth(self.ranks, t, k // 2)
            if v == u:
                raise RuntimeError(f"move-half chose the requested item {u} as its partner")
            interchange(t, u, v, ledger)
        elif k > 0 and self.kind == "random-push":
            # promote u to the root and push one random root-to-depth-k path down one
            # level; the item displaced off the end of the path fills u's vacated server
            s = int(t.host[u])
            path = sample_push_path(self.rng, k)
            old = [int(t.guest[p]) for p in path]
            t.guest[0] = u
            t.host[u] = 0
            for j in range(k):
                t.guest[path[j + 1]] = old[j]
                t.host[old[j]] = path[j + 1]
            extra = 0
            if path[k] != s:
                w = old[k]
                t.guest[s] = w
                t.host[w] = s
                extra = tree_distance(path[k], s)
            # u up to the root, the path pushed down, plus the end-of-path item's trip
            ledger.adjust_total += k + k + extra
        elif k > 0 and self.kind == "max-push":
            # demote each level's max-rank item one level, restoring the exact MRU layout;
            # each relocation may cross the whole tree, so the cost grows like k^2/2.
            # On an MRU tree the max-rank item of level i is the item of rank 2^(i+1)-1
            demoted = [int(order[(1 << (i + 1)) - 2]) for i in range(k)]
            dests = [int(t.host[u])] + [int(t.host[w]) for w in demoted[:0:-1]]
            moves = list(zip(demoted[::-1], dests)) + [(u, int(t.host[demoted[0]]))]
            relocate_chain(t, moves, ledger)
        adjust = ledger.adjust_total - adjust0
        factor = _COST_FACTOR.get(self.kind)
        if factor is not None and k + adjust > factor * k:
            raise RuntimeError(f"{self.kind} request for item {u} cost {k + adjust}, "
                               f"above {factor}x its access {k}")
        return k, adjust, record(self.ranks, self.ws, u), path
