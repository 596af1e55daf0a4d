"""Reference computations the benchmark checks the program against.

Nothing here imports satree.  Each function follows the model as the
README and the docstrings of `interchange` and `relocate_chain` state it:
an item at server s (heap layout, root 0) pays depth(s) to be accessed,
one parent-child swap costs 1, interchanging two items d hops apart costs
2d - 1, and a relocation chain costs the hop count of each move.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def depth(s: int) -> int:
    return (s + 1).bit_length() - 1


def distance(a: int, b: int) -> int:
    """Hops between servers a and b, from the lowest common ancestor of their heap labels."""
    x, y = a + 1, b + 1
    dx, dy = x.bit_length() - 1, y.bit_length() - 1
    if dx < dy:
        x, y, dx, dy = y, x, dy, dx
    x >>= dx - dy
    # labels of equal depth agree on the bits above their common ancestor
    up = (x ^ y).bit_length()
    return (dx - dy) + 2 * up


class RecencyRanks:
    """Recency ranks over a Fenwick tree of access slots.

    The tree starts in the identity layout, item i at server i.  Slot
    n - 1 - i holds item i, which is the initial order of
    `RankTable.from_tree`: the root item has rank 1.  The t-th access moves
    its item to slot n + t.  rank(v) = 1 + live slots above v's slot.
    """

    def __init__(self, n: int, capacity: int):
        self.n = n
        self.size = n + capacity
        self.tree = [0] * (self.size + 1)
        self.slot = [0] * n
        self.item_at = [-1] * self.size
        self.clock = n
        for item in range(n):
            s = n - 1 - item
            self.slot[item] = s
            self.item_at[s] = item
            self._add(s, 1)

    def _add(self, s: int, delta: int):
        i = s + 1
        while i <= self.size:
            self.tree[i] += delta
            i += i & -i

    def _count_upto(self, s: int) -> int:
        i, total = s + 1, 0
        while i:
            total += self.tree[i]
            i -= i & -i
        return total

    def rank(self, v: int) -> int:
        return 1 + self.n - self._count_upto(self.slot[v])

    def item_of_rank(self, r: int) -> int:
        """The r-th most recently used item."""
        k = self.n - r + 1  # its position counted from the least recent
        pos, step = 0, 1 << self.size.bit_length()
        while step:
            nxt = pos + step
            if nxt <= self.size and self.tree[nxt] < k:
                pos = nxt
                k -= self.tree[nxt]
            step >>= 1
        return self.item_at[pos]

    def touch(self, v: int) -> int:
        """Serve v: return its rank, then make it the most recent item."""
        r = self.rank(v)
        self._add(self.slot[v], -1)
        self.item_at[self.slot[v]] = -1
        self.slot[v] = self.clock
        self.item_at[self.clock] = v
        self._add(self.clock, 1)
        self.clock += 1
        return r


def ranks_of(n: int, items) -> list[int]:
    """Recency rank of each request, from the identity layout."""
    rr = RecencyRanks(n, len(items))
    return [rr.touch(v) for v in items]


def ws_prefix(ranks) -> list[float]:
    """out[t] = sum of log2(rank) over the first t requests."""
    out = [0.0]
    for r in ranks:
        out.append(out[-1] + math.log2(r))
    return out


def simulate(kind: str, n: int, items) -> tuple[list[int], list[int]]:
    """Cumulative (access, adjust) swap totals after each prefix of the requests.

    kind is 'fixed', 'move-half' or 'max-push'; the tree starts in the
    identity layout.  Returns two lists of length len(items) + 1.
    """
    if kind not in ("fixed", "move-half", "max-push"):
        raise ValueError(f"no reference simulation for {kind!r}")
    guest = list(range(n))
    host = list(range(n))
    # last-access time per item; never-accessed items rank by initial server
    stamp = [-(s + 1) for s in range(n)]
    rr = RecencyRanks(n, len(items)) if kind == "max-push" else None
    acc, adj = [0], [0]
    a_tot = j_tot = 0
    for t, u in enumerate(items):
        s = host[u]
        k = depth(s)
        a_tot += k
        if kind == "move-half" and k >= 1:
            lo = (1 << (k // 2)) - 1
            level = guest[lo:2 * lo + 1]
            v = min(level, key=stamp.__getitem__)
            sv = host[v]
            j_tot += 2 * distance(s, sv) - 1
            guest[s], guest[sv] = v, u
            host[u], host[v] = sv, s
        elif kind == "max-push" and k >= 1:
            # on an MRU tree level i holds ranks 2^i .. 2^(i+1) - 1
            demoted = [rr.item_of_rank((1 << (i + 1)) - 1) for i in range(k)]
            src = [host[w] for w in demoted]
            dest = src[1:] + [s]
            for w, a, b in zip(demoted, src, dest):
                j_tot += distance(a, b)
                guest[b] = w
                host[w] = b
            j_tot += k
            guest[0] = u
            host[u] = 0
        stamp[u] = t
        if rr is not None:
            rr.touch(u)
        acc.append(a_tot)
        adj.append(j_tot)
    return acc, adj


def _layouts3():
    """The six layouts of a 3-server tree and the swap distance between every pair."""
    layouts = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(layouts)}
    dist = []
    for p in layouts:
        # breadth-first search over single parent-child swaps (servers 0-1 and 0-2)
        d = {p: 0}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for c in (1, 2):
                    r = list(q)
                    r[0], r[c] = r[c], r[0]
                    r = tuple(r)
                    if r not in d:
                        d[r] = d[q] + 1
                        nxt.append(r)
            frontier = nxt
        dist.append([d[q] for q in layouts])
    return layouts, index, dist


_L3, _I3, _D3 = _layouts3()


def opt_cost_n3(seq) -> int:
    """Offline optimum at n = 3 from the identity layout: rearrange freely before each access, pay swaps plus depth."""
    inf = float("inf")
    f = [inf] * 6
    f[_I3[(0, 1, 2)]] = 0
    for v in seq:
        f = [
            min(f[p] + _D3[p][q] for p in range(6)) + depth(_L3[q].index(v))
            for q in range(6)
        ]
    return int(min(f))


def chain_expectation(i: int, w: int) -> Fraction:
    """Exact mean state of the push-down chain after w steps from state 0.

    From state j < i - 1 the chain moves to j + 1 with probability 2^-j;
    state i - 1 absorbs.
    """
    probs = [Fraction(0)] * i
    probs[0] = Fraction(1)
    for _ in range(w):
        nxt = probs[:]
        for j in range(i - 1):
            move = probs[j] / (1 << j)
            nxt[j] -= move
            nxt[j + 1] += move
        probs = nxt
    return sum(j * p for j, p in enumerate(probs))
