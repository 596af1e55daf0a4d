"""Online relocation policies sharing one serve interface."""

from __future__ import annotations

import math
import operator

import numpy as np

from .tree import CostLedger, TreeState, _exact_int, interchange, tree_distance
from .workset import RankTable, WsAccumulator, _window, max_rank_item_at_depth

POLICY_KINDS = ("move-half", "random-push", "max-push", "static-mfu", "fixed")
# the paper's per-request cost bounds, as multiples of the request's access cost
_COST_FACTOR = {"move-half": 4, "random-push": 5}
# random-push draws its push words from its bit generator this many at a time
_WORD_BLOCK = 4096


def _check_freq(freq, n):
    freq = np.asarray(freq, dtype=np.float64)
    if freq.shape != (n,):
        raise ValueError(f"need one frequency per item, got shape {freq.shape} for n={n}")
    if not np.isfinite(freq).all():
        raise ValueError("frequencies must be finite")
    if (freq < 0).any():
        raise ValueError("frequencies must be non-negative")
    if abs(float(freq.sum()) - 1.0) > 1e-9:
        raise ValueError(f"frequencies must sum to 1, got {float(freq.sum())!r}")
    return freq


def build_static_mfu(freq) -> TreeState:
    """Place items top-down, left-to-right in descending frequency (ties by item id)."""
    freq = _check_freq(freq, np.size(freq))
    # a stable sort keeps equal frequencies in item id order; TreeState checks the size
    return TreeState(len(freq), guests=np.argsort(-freq, kind="stable"))


def expected_path_length(t: TreeState, freq) -> float:
    """Mean access depth under the given item frequencies."""
    freq = _check_freq(freq, t.n)
    # accumulate adds in item order, so the float equals the sequential sum bit for bit
    return float(np.add.accumulate(freq * t.depths[t.host])[-1])


def _move_half(p, u, k, r):
    """Interchange u with the max-rank item at depth k//2."""
    if k == 0:
        return 0, None
    v = max_rank_item_at_depth(p._ranks, p._tree, k // 2)
    if v == u:
        raise RuntimeError(f"move-half chose the requested item {u} as its partner")
    return interchange(p._tree, u, v), None


def _push_down(t, u, chain):
    """Put u at the root and push the item at each chain server to the next chain server.

    chain lists one server per level, from the root down, and never holds
    u's server.  One pass carries the displaced item down: at each chain
    server it reads the item there, stores the carried one (u at the root)
    and carries the item it read on; the last one fills the server u left.
    """
    guest, host = t._gv, t._hv
    s, v = host[u], u
    for q in chain:
        w = guest[q]
        guest[q] = v
        host[v] = q
        v = w
    guest[s] = v
    host[v] = s


def _random_push(p, u, k, r):
    """Promote u to the root and push one random root-to-depth-k path down one level.

    The path's child choices are the top k bits of the next raw 64-bit word
    of p's push bit generator, most significant first (1 = right child).
    The item displaced off the end of the path fills u's vacated server.
    """
    if k == 0:
        return 0, None
    t = p._tree
    s = t._hv[u]
    words = p._push_words
    if not words:
        # reversed, so that pop() hands the block out in draw order
        words += p._push_bits.random_raw(_WORD_BLOCK)[::-1].tolist()
    x = words.pop() >> (64 - k)
    # level j starts at server 2^j - 1, and x's top j bits pick the path's server in it
    path = [(1 << j) - 1 + (x >> (k - j)) for j in range(k + 1)]
    if path[k] == s:
        # u's move empties the path's last server, so the push stops one level above it
        _push_down(t, u, path[:k])
        return k + k, path
    _push_down(t, u, path)
    # u up to the root, the path pushed down, plus the end-of-path item's trip
    return k + k + tree_distance(path[k], s), path


def _max_push(p, u, k, r):
    """Demote each level's max-rank item one level, restoring the exact MRU layout.

    In an MRU tree level j holds ranks 2^j .. 2^(j+1)-1, so the item
    demoted from level j is the one of rank 2^(j+1)-1, which the rank
    table keeps for every level (RankTable._bnd): a request costs O(log n)
    rank upkeep plus O(k), and the table's boundary steps skip amortised
    O(1) dead slots per level.  The policy's fresh tree is MRU, so no
    whole-tree check runs here.  Every request checks that u and the items
    it demotes sit at their MRU depths, which also makes the chain one
    server per level and keeps u's server out of it.  An in-place change
    made outside serve that leaves other parts of the tree out of MRU order
    is not caught here; bench.run(check_mru=True) checks the whole tree
    after every request.  Each relocation may cross the whole tree, so the
    cost grows like k^2/2.  Raises ValueError, before anything moves, when
    a check fails.
    """
    t, rt = p._tree, p._ranks
    # depth j holds the servers s with j + 1 bits in s + 1, and in an MRU tree the ranks with j + 1 bits
    if r.bit_length() != k + 1:
        raise ValueError("max-push requires an MRU tree")
    if k == 0:
        return 0, None
    host = t._hv
    chain = [host[v] for v in rt._bnd[:k]]
    # u's k hops to the root, then each demoted item's hop to the server one level deeper (the
    # next chain server, or u's), from the deepest level up.  With a and b those servers plus
    # one, as in tree_distance, the hop is one to lift b to a's depth and twice the bit length
    # of their xor to the common ancestor; a must have one bit more than its level's depth.
    adjust, b, bits = k + k, host[u] + 1, k
    for a in reversed(chain):
        a += 1
        if a.bit_length() != bits:
            raise ValueError("max-push requires an MRU tree")
        adjust += 2 * (a ^ (b >> 1)).bit_length()
        b = a
        bits -= 1
    _push_down(t, u, chain)
    return adjust, None


def _stay(p, u, k, r):
    return 0, None


_ADJUST = {"move-half": _move_half, "random-push": _random_push, "max-push": _max_push,
           "static-mfu": _stay, "fixed": _stay}


class Policy:
    """One policy instance bound to its own tree, rank table and ledger.

    The constructor builds the tree and the table, in MRU order; neither can be rebound.
    """

    def __init__(self, kind, n, seed=None, freq=None):
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}")
        if seed is not None:
            seed = _exact_int(seed, "seed")
        self.kind = kind
        self._adjust = _ADJUST[kind]
        self._factor = _COST_FACTOR.get(kind)
        if kind == "static-mfu":
            if freq is None:
                raise ValueError("static-mfu needs an item frequency vector")
            self._tree = build_static_mfu(freq)
            if self._tree.n != _exact_int(n, "item count"):
                raise ValueError("frequency vector length does not match n")
        else:
            _window(_exact_int(n, "item count"))  # a too-large n is refused before the tree is built
            self._tree = TreeState(n)
        self._ranks = RankTable.from_tree(self._tree)
        if kind == "max-push":
            self._ranks._map_slots()
        self.ledger = CostLedger()
        self.ws = WsAccumulator()
        self.rng = None
        if kind == "random-push":
            # the push words come from a child of the seed, so they are independent of
            # default_rng(seed), which is both self.rng and generate's workload stream
            seq = np.random.SeedSequence(seed)
            self.rng = np.random.default_rng(seq)
            self._push_bits = np.random.PCG64(seq.spawn(1)[0])
            self._push_words = []

    @property
    def tree(self) -> TreeState:
        """The policy's tree."""
        return self._tree

    @property
    def ranks(self) -> RankTable:
        """The policy's rank table."""
        return self._ranks

    def serve(self, u):
        """Serve one request for item u; returns (access, adjust, rank, path).

        access is u's depth and rank its recency rank when the request
        arrives, adjust the swaps spent relocating, and path random-push's
        sampled push path (None for the other kinds, or when u is at the
        root).  This is the only place that charges the ledger and the
        working-set total.  A rejected request raises ValueError and
        changes nothing: an item that is not an integer in 0..n-1, or, for
        max-push, a tree with u or an item it would demote off its MRU
        depth.
        A request over its kind's cost bound raises RuntimeError with the
        tree moved but nothing charged.
        """
        r = self._ranks.rank(u)  # the request's one id check; the adjustment leaves ranks as they are
        if type(u) is not int:
            u = operator.index(u)  # an id rank accepted, as the plain int the memoryviews store
        k = (self._tree._hv[u] + 1).bit_length() - 1  # u's depth; the tree's own server id needs no check
        adjust, path = self._adjust(self, u, k, r)
        factor = self._factor
        if factor is not None and k + adjust > factor * k:
            raise RuntimeError(f"{self.kind} request for item {u} cost {k + adjust}, "
                               f"above {factor}x its access {k}")
        self._ranks._touch(u, r)
        self.ledger.access_total += k
        self.ledger.adjust_total += adjust
        self.ws.total += math.log2(r)
        return k, adjust, r, path
