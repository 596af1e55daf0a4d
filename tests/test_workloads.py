"""Workload generation determinism and trace parsing."""

import collections

import pytest

from satree import RequestSequence, WorkloadSpec, generate, read_trace, zipf_frequencies


def test_cyclic_sequence():
    seq = generate(WorkloadSpec(kind="cyclic", n=7, m=7, subset_size=3))
    assert seq.items == [0, 1, 2, 0, 1, 2, 0]
    assert seq.n == 7


def test_uniform_is_seed_deterministic():
    spec = WorkloadSpec(kind="uniform", n=15, m=500, seed=42)
    assert generate(spec).items == generate(spec).items
    other = WorkloadSpec(kind="uniform", n=15, m=500, seed=43)
    assert generate(spec).items != generate(other).items


def test_zipf_two_item_ratio():
    seq = generate(WorkloadSpec(kind="zipf", n=2, m=50000, alpha=1.0, seed=5))
    counts = collections.Counter(seq.items)
    ratio = counts[0] / counts[1]
    assert abs(ratio - 2.0) / 2.0 < 0.05


def test_zipf_alpha_zero_is_uniform_in_distribution():
    seq = generate(WorkloadSpec(kind="zipf", n=4, m=40000, alpha=0.0, seed=6))
    counts = collections.Counter(seq.items)
    for v in range(4):
        assert abs(counts[v] / len(seq) - 0.25) < 0.02


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="bursty", n=7, m=10)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="cyclic", n=7, m=10, subset_size=9)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="zipf", n=7, m=10, alpha=-1.0)
    for alpha in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite"):
            WorkloadSpec(kind="zipf", n=7, m=10, alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            zipf_frequencies(7, alpha)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="trace", n=7, m=10)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="uniform", n=7, m=-1)


def test_read_trace_basic(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0\n2\n1\n")
    seq = read_trace(path, 3)
    assert seq.items == [0, 2, 1]


def test_read_trace_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n0\n\n1\n# tail\n")
    assert read_trace(path, 3).items == [0, 1]


def test_read_trace_reports_offending_line(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("9\n")
    with pytest.raises(ValueError, match=":1:"):
        read_trace(path, 3)
    path.write_text("0\nnope\n")
    with pytest.raises(ValueError, match=":2:"):
        read_trace(path, 3)


def test_trace_workload_through_generate(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("2\n0\n2\n")
    spec = WorkloadSpec(kind="trace", n=3, path=str(path))
    assert generate(spec).items == [2, 0, 2]


def test_request_sequence_len():
    assert len(RequestSequence([1, 2, 3], 7)) == 3
