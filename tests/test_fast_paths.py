"""The policies' memoryview fast paths against a reference that indexes numpy arrays only."""

import math

import numpy as np
import pytest

from satree import Policy, WorkloadSpec, generate, tree_distance
from satree.tree import depth


class NumpyReference:
    """Move-half, random-push and max-push on plain numpy arrays.

    Every read and store of guest, host and the stamps is one numpy index
    or slice.  A rank counts the newer stamps, the stamps come from a clock
    that is never renumbered, and each level's least recently used item is
    an argmin over the level's stamps.  Random-push reads one word at a
    time from the child of the seed that Policy draws its push words from.
    """

    def __init__(self, kind, n, seed):
        self.kind = kind
        self.guest = np.arange(n, dtype=np.int64)
        self.host = np.arange(n, dtype=np.int64)
        self.stamps = np.arange(n - 1, -1, -1, dtype=np.int64)  # item i has rank i + 1
        self.clock = n
        self.words = np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0])
        self.access_total = self.adjust_total = 0
        self.ws_total = 0.0

    def _place(self, v, s):
        self.guest[s] = v
        self.host[v] = s

    def _lru_at(self, lvl):
        level = self.guest[(1 << lvl) - 1:(2 << lvl) - 1]
        return int(level[np.argmin(self.stamps[level])])

    def _move_half(self, u, k):
        v = self._lru_at(k // 2)
        a, b = int(self.host[u]), int(self.host[v])
        self._place(v, a)
        self._place(u, b)
        return 2 * tree_distance(a, b) - 1, None

    def _random_push(self, u, k):
        word = int(self.words.random_raw())
        path = [0]
        for i in range(k):
            path.append(2 * path[-1] + 1 + ((word >> (63 - i)) & 1))
        s = int(self.host[u])
        old = [int(self.guest[q]) for q in path]
        self._place(u, 0)
        for j in range(k):
            self._place(old[j], path[j + 1])
        if path[k] == s:
            return 2 * k, path
        self._place(old[k], s)
        return 2 * k + tree_distance(path[k], s), path

    def _max_push(self, u, k):
        demoted = [self._lru_at(j) for j in range(k)]
        chain = [int(self.host[w]) for w in demoted]
        dests = chain[1:] + [int(self.host[u])]
        adjust = k + sum(map(tree_distance, chain, dests))
        self._place(u, 0)
        for w, q in zip(demoted, dests):
            self._place(w, q)
        return adjust, None

    def serve(self, u):
        k = depth(int(self.host[u]))
        r = 1 + int((self.stamps > self.stamps[u]).sum())
        adjust, path = (0, None) if k == 0 else getattr(self, "_" + self.kind.replace("-", "_"))(u, k)
        self.stamps[u] = self.clock
        self.clock += 1
        self.access_total += k
        self.adjust_total += adjust
        self.ws_total += math.log2(r)
        return k, adjust, r, path


@pytest.mark.parametrize("workload", ["zipf", "uniform"])
@pytest.mark.parametrize("n", [255, 16383])
@pytest.mark.parametrize("kind", ["move-half", "random-push", "max-push"])
def test_fast_paths_match_numpy_indexing(kind, n, workload):
    # 5 000 requests pass at least one renumbering of the rank table's slots at both sizes
    seed = 13
    items = generate(WorkloadSpec(kind=workload, n=n, m=5000, seed=seed))
    fast, ref = Policy(kind, n, seed=seed), NumpyReference(kind, n, seed)
    for v in items:  # numpy int64 scalars, as bench.run serves them
        assert fast.serve(v) == ref.serve(v)
    assert fast.tree.guest.tolist() == ref.guest.tolist()
    assert fast.tree.host.tolist() == ref.host.tolist()
    assert (fast.ledger.access_total, fast.ledger.adjust_total) == (ref.access_total, ref.adjust_total)
    assert fast.ws.total == ref.ws_total


@pytest.mark.parametrize("subset", [7, 15])
def test_max_push_cycle_demotes_the_requested_items_own_boundary(subset):
    # after the first lap each request is for the cycle's least recent item, of rank
    # subset = 2^(k+1) - 1 at depth k, so the rank table steps that item's own level boundary
    n, seed = 255, 13
    items = generate(WorkloadSpec(kind="cyclic", n=n, m=1000, subset_size=subset, seed=seed))
    fast, ref = Policy("max-push", n, seed=seed), NumpyReference("max-push", n, seed)
    for i, v in enumerate(items):
        served = fast.serve(v)
        assert served == ref.serve(v)
        if i >= subset:
            assert served[2] == subset == (2 << served[0]) - 1
    assert fast.tree.guest.tolist() == ref.guest.tolist()
    assert (fast.ledger.access_total, fast.ledger.adjust_total) == (ref.access_total, ref.adjust_total)
