"""Hand-worked cases for the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math
from fractions import Fraction

import pytest

import reference


def test_distance_hand_cases():
    # heap layout: 0 is the root, 1 and 2 its children, 3..6 the grandchildren
    assert reference.distance(0, 0) == 0
    assert reference.distance(3, 1) == 1
    assert reference.distance(3, 4) == 2
    assert reference.distance(3, 5) == 4
    assert reference.distance(6, 0) == 2
    assert reference.distance(7, 2) == 4  # 7 -> 3 -> 1 -> 0 -> 2


def test_ranks_from_initial_order():
    # identity layout: item i starts with rank i + 1
    assert reference.ranks_of(7, [3, 3, 0, 3, 6]) == [4, 1, 2, 2, 7]


def test_item_of_rank_follows_accesses():
    rr = reference.RecencyRanks(3, capacity=2)
    assert [rr.item_of_rank(r) for r in (1, 2, 3)] == [0, 1, 2]
    assert rr.touch(2) == 3
    assert [rr.item_of_rank(r) for r in (1, 2, 3)] == [2, 0, 1]
    assert rr.touch(0) == 2
    assert [rr.rank(v) for v in range(3)] == [1, 3, 2]


def test_ws_prefix():
    assert reference.ws_prefix([1, 4, 2]) == [0.0, 0.0, 2.0, 3.0]


def test_fixed_pays_depth_only():
    acc, adj = reference.simulate("fixed", 7, [0, 1, 6, 6])
    assert acc == [0, 0, 1, 3, 5]
    assert adj == [0] * 5


def test_move_half_hand_case():
    # item 3 at depth 2 interchanges with the least recent item at depth 1,
    # item 2 (server 2, three hops away): 2 * 3 - 1 = 5 swaps
    acc, adj = reference.simulate("move-half", 7, [3])
    assert (acc[-1], adj[-1]) == (2, 5)
    # then item 2, now at server 3 (depth 2), swaps with item 1, one hop away
    acc, adj = reference.simulate("move-half", 7, [3, 2])
    assert (acc[-1], adj[-1]) == (4, 6)


def test_max_push_hand_case():
    # item 3 at depth 2: the root item 0 moves to server 2 (1 hop), item 2,
    # the rank-3 item there, to server 3 (3 hops) and item 3 to the root (2 hops)
    acc, adj = reference.simulate("max-push", 7, [3])
    assert (acc[-1], adj[-1]) == (2, 6)
    # servers now hold 3 | 1 0 | 2 4 5 6; item 2 at depth 2: item 3 moves to
    # server 1, item 1 to server 3 and item 2 to the root: 1 + 1 + 2 swaps
    acc, adj = reference.simulate("max-push", 7, [3, 2])
    assert (acc[-1], adj[-1]) == (4, 10)


def test_max_push_on_root_is_free():
    assert reference.simulate("max-push", 3, [0, 0]) == ([0, 0, 0], [0, 0, 0])


def test_unknown_policy_is_refused():
    with pytest.raises(ValueError):
        reference.simulate("random-push", 3, [1])


def test_opt_n3_hand_cases():
    assert reference.opt_cost_n3([]) == 0
    assert reference.opt_cost_n3([0, 0, 0]) == 0
    # one swap brings item 1 to the root
    assert reference.opt_cost_n3([1, 1, 1, 1]) == 1
    # alternating leaves: one swap lifts item 1, then item 2 pays depth 1 twice
    assert reference.opt_cost_n3([1, 2, 1, 2]) == 3


def test_chain_closed_forms():
    # i = 2: the first step always moves to the absorbing state 1
    assert reference.chain_expectation(2, 0) == 0
    assert reference.chain_expectation(2, 5) == 1
    # i = 3: state 1 after one step, then 2 with probability 1/2 per step
    for w in range(1, 8):
        assert reference.chain_expectation(3, w) == 2 - Fraction(1, 2 ** (w - 1))


def test_chain_bound_on_a_larger_case():
    value = reference.chain_expectation(8, 64)
    assert 0 < value < math.ceil(math.log2(64)) + 1
