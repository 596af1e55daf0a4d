"""Exact push-down chain distributions and their means."""

import numpy as np
import pytest

from satree import (
    DepthDistribution,
    binomial_identity,
    concavity_check,
    expected_state_curve,
    walk_distribution,
)


def test_walk_distribution_zero_steps_is_point_mass():
    d = walk_distribution(5, 0)
    assert d.probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_walk_distribution_first_step_is_deterministic():
    for i in (2, 3, 10):
        d = walk_distribution(i, 1)
        assert d.probs[1] == 1.0


def test_walk_distribution_two_steps_hand_enumeration():
    d = walk_distribution(3, 2)
    assert d.probs == pytest.approx([0.0, 0.5, 0.5])
    assert d.mean() == pytest.approx(1.5)


def test_walk_distribution_support_and_mass():
    for i in (1, 2, 5, 9):
        for w in (0, 1, 3, 8, 20):
            d = walk_distribution(i, w)
            assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)
            assert (d.probs >= 0).all()
            reach = min(w, i - 1)
            assert float(d.probs[reach + 1 :].sum()) == 0.0


def test_expected_state_examples():
    assert expected_state_curve(2, 100)[100] == 1.0
    assert expected_state_curve(3, 2)[2] == pytest.approx(1.5) == walk_distribution(3, 2).mean()
    assert expected_state_curve(64, 1024)[1024] < 11


def test_expected_state_curve_is_increasing_then_flat():
    curve = expected_state_curve(4, 64)
    diffs = np.diff(curve)
    assert (diffs >= -1e-15).all()
    assert diffs[0] == pytest.approx(1.0)  # the first step always advances
    assert curve[-1] == pytest.approx(3.0, abs=1e-3)  # nearly absorbed


def test_binomial_identity_small_cases():
    assert binomial_identity(1) == pytest.approx(1.0)  # 0^0 taken as 1
    assert binomial_identity(2) == pytest.approx(1.0)
    assert binomial_identity(50) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        binomial_identity(0)


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", None, True])
def test_binomial_identity_takes_integers_only(bad):
    with pytest.raises(ValueError, match="integer"):
        binomial_identity(bad)


@pytest.mark.parametrize("fn, i, w", [
    (expected_state_curve, 0, 5),
    (expected_state_curve, 3, -1),
    (expected_state_curve, 4, 2.0),
    (concavity_check, 0, 5),
    (walk_distribution, 2.7, 3),
    (walk_distribution, 3, 3.9),
    (walk_distribution, 0, 3),
    (walk_distribution, 3, -1),
])
def test_walk_refuses_bad_sizes_and_step_counts(fn, i, w):
    with pytest.raises(ValueError):
        fn(i, w)


def test_concavity_small_and_medium():
    assert concavity_check(2, 16)
    assert concavity_check(16, 256)


def test_depth_distribution_validation():
    with pytest.raises(ValueError):
        DepthDistribution([0.5, 0.4])
    with pytest.raises(ValueError):
        DepthDistribution([1.5, -0.5])
    with pytest.raises(ValueError):
        DepthDistribution([])
    for bad in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            DepthDistribution(bad)


def test_survival_pads_with_zero_mass():
    d = DepthDistribution([0.25, 0.75])
    assert d.survival().tolist() == [0.75, 0.0]
    assert d.survival(4).tolist() == [0.75, 0.0, 0.0, 0.0]
