"""The policies' memoryview fast paths against a reference that indexes numpy arrays only."""

import pytest

from checkers import NumpyReference
from satree import Policy, WorkloadSpec, generate


@pytest.mark.parametrize("workload", ["zipf", "uniform"])
@pytest.mark.parametrize("n", [255, 16383])
@pytest.mark.parametrize("kind", ["move-half", "random-push", "max-push"])
def test_fast_paths_match_numpy_indexing(kind, n, workload):
    # 5 000 requests pass at least one renumbering of the rank table's slots at both sizes
    seed = 13
    items = generate(WorkloadSpec(kind=workload, n=n, m=5000, seed=seed))
    fast = Policy(kind, n, seed=seed)
    ref = NumpyReference(fast)
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
    fast = Policy("max-push", n, seed=seed)
    ref = NumpyReference(fast)
    for i, v in enumerate(items):
        served = fast.serve(v)
        assert served == ref.serve(v)
        if i >= subset:
            assert served[2] == subset == (2 << served[0]) - 1
    assert fast.tree.guest.tolist() == ref.guest.tolist()
    assert (fast.ledger.access_total, fast.ledger.adjust_total) == (ref.access_total, ref.adjust_total)
