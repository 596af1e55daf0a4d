"""One stateful model test: every policy kind against the numpy reference, request by request.

Requests, bursts that cross the rank table's renumbering, refused ids, records on the rank
table outside serve and in-place swaps of two servers' items interleave in any order.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from checkers import NumpyReference, check_bijection, random_mru_layout, ranks
from satree import Policy, is_mru, record
from satree.policies import POLICY_KINDS

# the paper's per-request bounds, as multiples of the access cost
FACTOR = {"move-half": 4, "random-push": 5}
BAD_IDS = [3.7, 2.0, math.nan, "3", None, True, np.True_, -1, -7]


class PolicyMachine(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(POLICY_KINDS), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
                mru_start=st.booleans())
    def start(self, kind, d, seed, mru_start):
        n = (1 << d) - 1
        rng = np.random.default_rng(seed)
        freq = None
        if kind == "static-mfu":  # drawn frequencies with ties, laid out by build_static_mfu
            weights = rng.integers(0, 4, size=n).astype(np.float64)
            weights[0] += 1
            freq = weights / weights.sum()
        self.p = Policy(kind, n, seed=seed, freq=freq)
        if mru_start:
            random_mru_layout(self.p, rng)
        self.n = n
        self.ref = NumpyReference(self.p)

    def snapshot(self):
        p = self.p
        return (p.tree.guest.tolist(), p.tree.host.tolist(), p.ranks.stamps.tolist(), p.ranks.clock,
                list(p.ranks._bnd or ()), p.ledger.access_total, p.ledger.adjust_total, p.ws.total,
                list(getattr(p, "_push_words", ())))

    def serve(self, u):
        p, t = self.p, self.p.tree
        before, depths = self.snapshot(), t.depths[t.host]
        was_mru = p.kind == "max-push" and is_mru(t, p.ranks)
        try:
            want = self.ref.serve(int(u))
        except ValueError:  # max-push's refusal: u or an item it would demote is off its MRU depth
            with pytest.raises(ValueError, match="MRU"):
                p.serve(u)
            assert self.snapshot() == before
            return
        k, adjust, r, path = p.serve(u)
        assert (k, adjust, r, path) == want
        if p.kind in FACTOR:
            assert k + adjust <= FACTOR[p.kind] * k
        if p.kind in ("random-push", "max-push"):
            others = np.arange(self.n) != int(u)
            assert (t.depths[t.host] >= depths)[others].all()
        if was_mru:
            assert is_mru(t, p.ranks)

    @rule(u=st.integers(0, 254), as_numpy=st.booleans())
    def request(self, u, as_numpy):
        u %= self.n
        self.serve(np.int64(u) if as_numpy else u)

    @rule(us=st.lists(st.integers(0, 254), min_size=1, max_size=40))
    def burst(self, us):
        # more than n//4 + 1 requests in all renumber the rank table's slots
        for u in us:
            self.serve(u % self.n)

    @rule(bad=st.sampled_from(BAD_IDS) | st.integers(0, 3))
    def refused(self, bad):
        if type(bad) is int and bad >= 0:
            bad += self.n  # past the last item
        before = self.snapshot()
        with pytest.raises(ValueError, match="item id"):
            self.p.serve(bad)
        assert self.snapshot() == before

    @rule(v=st.integers(0, 254))
    def record_outside_serve(self, v):
        v %= self.n
        assert record(self.p.ranks, v) == self.ref.rank(v)
        self.ref.record(v)

    @rule(a=st.integers(0, 254), b=st.integers(0, 254))
    def swap_in_place(self, a, b):
        a, b = a % self.n, b % self.n
        t = self.p.tree
        x, y = t.guest[[a, b]]
        t.guest[[a, b]] = y, x
        t.host[[x, y]] = b, a
        self.ref.swap(a, b)

    @invariant()
    def matches_the_reference(self):
        p, ref = self.p, self.ref
        check_bijection(p.tree)
        assert p.tree.guest.tolist() == ref.guest.tolist()
        assert [p.ranks.rank(v) for v in range(self.n)] == ranks(ref).tolist()
        assert (p.ledger.access_total, p.ledger.adjust_total, p.ws.total) == \
            (ref.access_total, ref.adjust_total, ref.ws_total)
        if p.kind == "max-push":
            assert p.ranks._bnd == ref.boundaries()


TestPolicyMachine = PolicyMachine.TestCase
TestPolicyMachine.settings = settings(max_examples=200, stateful_step_count=40, deadline=None)
