"""Reference checkers the tests share: the tree's bijection and the full recency order,
and the layouts the tests start from, made through the public operations."""

import numpy as np

from satree import record


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
