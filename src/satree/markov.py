"""Exact analysis of the push-down depth chain.

The chain models the depth drift of the item of recency rank i between its
own accesses: from depth j it is pushed to j+1 with probability 2^-j and
stays otherwise; depth i-1 absorbs.  Everything here is exact dynamic
programming over the state vector, no simulation: walk_distribution and
expected_state_curve read one walk, whose i and w must be exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tree import _exact_int


@dataclass
class DepthDistribution:
    """Finite probability vector over depths/states 0..len-1."""

    probs: np.ndarray = field()

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        if not np.isfinite(self.probs).all():
            raise ValueError("probs must be finite")
        if (self.probs < 0).any() or abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must be non-negative and sum to 1")

    def mean(self) -> float:
        return float(self.probs @ np.arange(self.probs.size))

    def survival(self, padded_len=None) -> np.ndarray:
        """P[X > z] for z = 0..padded_len-1."""
        p = self.probs
        if padded_len is not None and padded_len > p.size:
            p = np.concatenate([p, np.zeros(padded_len - p.size)])
        return 1.0 - p.cumsum()


def _walk(i, w):
    """Yield the state distribution after 0, 1, ..., w steps from state 0 on the i-state chain."""
    i, w = _exact_int(i, "i"), _exact_int(w, "w")
    if i < 1 or w < 0:
        raise ValueError("need i >= 1 and w >= 0")
    push = np.exp2(-np.arange(i, dtype=np.float64))
    push[i - 1] = 0.0  # deepest state absorbs
    stay = 1.0 - push
    probs = np.zeros(i)
    probs[0] = 1.0
    yield probs
    for _ in range(w):
        nxt = probs * stay
        nxt[1:] += probs[:-1] * push[:-1]
        probs = nxt
        yield probs


def walk_distribution(i, w) -> DepthDistribution:
    """Exact state distribution after a w-step walk from state 0 on the i-state chain."""
    for probs in _walk(i, w):
        pass
    return DepthDistribution(probs / probs.sum())


def expected_state_curve(i, w_max) -> np.ndarray:
    """The mean state of the walk after each of w = 0..w_max steps, from one walk."""
    walk = _walk(i, w_max)
    states = np.arange(next(walk).size, dtype=np.float64)  # the walk starts at state 0, mean 0
    return np.array([0.0] + [float(probs @ states) for probs in walk])


def binomial_identity(w) -> float:
    """Mean of Binomial(w, 1/w) evaluated term by term; equals 1 for every w >= 1."""
    w = _exact_int(w, "w")
    if w < 1:
        raise ValueError("need w >= 1")
    stay, total = (w - 1) / w, 0.0
    for i in range(1, w + 1):  # the i = 0 term is 0
        # 0^0 := 1 so the w = 1 endpoint is well defined
        total += math.comb(w, i) * stay ** (w - i) * (1 / w) ** i * i
    return total


# the curve's second differences are differences of float sums: where the curve is straight
# they are rounding noise around zero (4.4e-16 at i = 4), which must not fail the check
_CONCAVITY_TOL = 1e-12


def concavity_check(i, w_max) -> bool:
    """True iff the first differences of expected_state_curve are non-increasing over 1..w_max."""
    if _exact_int(w_max, "w_max") < 2:
        raise ValueError("need w_max >= 2")
    return bool((np.diff(expected_state_curve(i, w_max), 2) <= _CONCAVITY_TOL).all())
