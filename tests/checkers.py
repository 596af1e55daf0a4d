"""Reference checkers the tests share: the tree's bijection and the full recency order."""

import numpy as np


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
