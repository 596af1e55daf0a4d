"""Reference checkers the tests share: the tree's bijection and the full recency order, the
layouts the tests start from, made through the public operations, one reference for every
policy kind, and a per-line reader of traces.  Each check raises explicitly, as python -O strips assert statements here."""

import math
import re

import numpy as np

from satree import record, tree_distance
from satree.tree import depth


def check_bijection(t):
    """Raise RuntimeError unless t.guest and t.host are inverse permutations."""
    ids = np.arange(t.n)
    if not ((t.guest[t.host] == ids).all() and (t.host[t.guest] == ids).all()):
        raise RuntimeError("guest and host are not inverse permutations")


def rank_order(rt):
    """Item ids sorted from most to least recently accessed (rank 1 first)."""
    return np.argsort(-rt.stamps)


def ranks(rt):
    """All ranks at once: a permutation of 1..n indexed by item id."""
    out = np.empty(rt.n, dtype=np.int64)
    out[rank_order(rt)] = np.arange(1, rt.n + 1)
    return out


def lay_out(t, guests):
    """Put item guests[s] at server s of t, in place: write guest, then host as its inverse."""
    t.guest[:] = guests
    t.host[t.guest] = np.arange(t.n)


def recency(rt, oldest_first):
    """Record the given items from least to most recent; all n of them set the whole rank order."""
    for v in oldest_first:
        record(rt, int(v))


def random_mru_layout(p, rng):
    """Lay p's tree and rank table out with ranks 2^i .. 2^(i+1)-1 in random order at each depth i."""
    n = p.tree.n
    order = rng.permutation(n)  # most recent first
    lay_out(p.tree, np.concatenate([rng.permutation(order[(1 << i) - 1:(2 << i) - 1])
                                    for i in range(n.bit_length())]))
    recency(p.ranks, order[::-1])


def bit_path(word, k):
    """Random-push's path built one child at a time from the word's top k bits (1 = right)."""
    path = [0]
    for i in range(k):
        path.append(2 * path[-1] + 1 + ((word >> (63 - i)) & 1))
    return path


class NumpyReference:
    """Every policy kind on plain numpy arrays, started from a copy of a policy's state.

    Every read and store of guest, host and the stamps is one numpy index
    or slice.  A rank counts the newer stamps, the stamps come from a clock
    that is never renumbered, and move-half's partner is an argmin over its
    level's stamps.  Max-push follows the paper's rank rule: it demotes the
    item of rank 2^(j+1)-1 from each level j above u, and refuses, moving
    nothing, when u or a demoted item is off its MRU depth.  Random-push
    reads one word at a time from a copy of the policy's push bit generator,
    after the words it has drawn and not used.
    """

    def __init__(self, p):
        self.n = p.tree.n
        # fixed and static-mfu never adjust; max-push checks its layout at the root too
        self._adjust = getattr(self, "_" + p.kind.replace("-", "_"), self._stay)
        self._adjust_at_root = p.kind == "max-push"
        self.guest, self.host = p.tree.guest.copy(), p.tree.host.copy()
        self.stamps, self.clock = p.ranks.stamps.copy(), p.ranks.clock
        if p.kind == "random-push":
            self.pending = list(p._push_words)
            self.bits = np.random.PCG64()
            self.bits.state = p._push_bits.state
        self.access_total, self.adjust_total = p.ledger.access_total, p.ledger.adjust_total
        self.ws_total = p.ws.total

    def rank(self, v):
        return 1 + int((self.stamps > self.stamps[v]).sum())

    def boundaries(self):
        """The item of rank 2^(j+1) - 1 for every level j: the least recent of level j in an MRU tree."""
        order = rank_order(self)
        return [int(order[(2 << j) - 2]) for j in range(self.n.bit_length())]

    def record(self, v):
        self.stamps[v] = self.clock
        self.clock += 1

    def swap(self, a, b):
        """Exchange the items at servers a and b."""
        x, y = int(self.guest[a]), int(self.guest[b])
        self._place(x, b)
        self._place(y, a)

    def _place(self, v, s):
        self.guest[s] = v
        self.host[v] = s

    def _move_half(self, u, k, r):
        lo = (1 << (k // 2)) - 1
        level = self.guest[lo:2 * lo + 1]
        v = int(level[np.argmin(self.stamps[level])])
        a, b = int(self.host[u]), int(self.host[v])
        self._place(v, a)
        self._place(u, b)
        return 2 * tree_distance(a, b) - 1, None

    def _random_push(self, u, k, r):
        word = self.pending.pop() if self.pending else int(self.bits.random_raw())
        path = bit_path(word, k)
        s = int(self.host[u])
        old = [int(self.guest[q]) for q in path]
        self._place(u, 0)
        for j in range(k):
            self._place(old[j], path[j + 1])
        if path[k] == s:
            return 2 * k, path
        self._place(old[k], s)
        return 2 * k + tree_distance(path[k], s), path

    def _max_push(self, u, k, r):
        demoted = self.boundaries()[:k]
        chain = [int(self.host[w]) for w in demoted]
        if k != r.bit_length() - 1 or list(map(depth, chain)) != list(range(k)):
            raise ValueError("max-push requires an MRU tree")
        dests = chain[1:] + [int(self.host[u])]
        adjust = k + sum(map(tree_distance, chain, dests))
        self._place(u, 0)
        for w, q in zip(demoted, dests):
            self._place(w, q)
        return adjust, None

    def _stay(self, u, k, r):
        return 0, None

    def serve(self, u):
        k, r = depth(self.host[u]), self.rank(u)
        adjust, path = self._adjust(u, k, r) if k or self._adjust_at_root else (0, None)
        self.record(u)
        self.access_total += k
        self.adjust_total += adjust
        self.ws_total += math.log2(r)
        return k, adjust, r, path


def trace_reference(data, path, n, chunk):
    """What a trace stream of the bytes data yields, read line by line: (chunks, error).

    chunks are the id lists of the blocks that hold an id, up to the block of
    the first bad line; error is (exception type, message) for that line, or
    None.  A block runs from where the last one ended through its first chunk
    bytes, and on to the first newline after them, or to the end of the file.
    A line stripped of ASCII whitespace is skipped when empty or a '#' comment;
    otherwise it is ASCII digits, for an id below n.  An id below n that no
    int64 holds raises OverflowError, worded by the interpreter: its message
    is None here.
    """
    lines = data.split(b"\n")
    if data.endswith(b"\n"):
        lines.pop()
    chunks, ids, start, end = [], [], 0, 0
    for lineno, line in enumerate(lines, start=1):
        if start >= end:  # this line opens a block
            chunks.append(ids := [])
            end = data.find(b"\n", start + chunk) + 1 or len(data)
        start += len(line) + 1
        body = line.strip(b" \t\n\r\x0b\x0c")
        if not body or body.startswith(b"#"):
            continue
        if not re.fullmatch(rb"[0-9]+", body):
            error = ValueError, f"{path}:{lineno}: not a decimal item id: {body.decode(errors='replace')!r}"
        elif int(body) >= n:
            error = ValueError, f"{path}:{lineno}: item id {int(body)} out of range for n={n}"
        elif int(body) >= 1 << 63:
            error = OverflowError, None
        else:
            ids.append(int(body))
            continue
        chunks.pop()
        return [c for c in chunks if c], error
    return [c for c in chunks if c], None
