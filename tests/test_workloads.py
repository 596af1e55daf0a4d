"""Workload generation determinism and trace parsing."""

import collections
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import satree.workloads as workloads
from satree import WorkloadSpec, generate, read_trace, zipf_frequencies
from satree.workloads import stream

from checkers import trace_reference


def test_cyclic_sequence():
    seq = generate(WorkloadSpec(kind="cyclic", n=7, m=7, subset_size=3))
    assert seq.tolist() == [0, 1, 2, 0, 1, 2, 0]


def test_uniform_is_seed_deterministic():
    spec = WorkloadSpec(kind="uniform", n=15, m=500, seed=42)
    assert np.array_equal(generate(spec), generate(spec))
    other = WorkloadSpec(kind="uniform", n=15, m=500, seed=43)
    assert not np.array_equal(generate(spec), generate(other))


def test_zipf_two_item_ratio():
    seq = generate(WorkloadSpec(kind="zipf", n=2, m=50000, alpha=1.0, seed=5))
    counts = collections.Counter(seq.tolist())
    ratio = counts[0] / counts[1]
    assert abs(ratio - 2.0) / 2.0 < 0.05


def test_zipf_alpha_zero_is_uniform_in_distribution():
    seq = generate(WorkloadSpec(kind="zipf", n=4, m=40000, alpha=0.0, seed=6))
    counts = collections.Counter(seq.tolist())
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
    # bool is a numbers.Real, and is refused as the integer fields refuse it
    for alpha in (True, np.True_):
        with pytest.raises(ValueError, match="zipf exponent"):
            WorkloadSpec(kind="zipf", n=7, m=5, alpha=alpha)
        with pytest.raises(ValueError, match="zipf exponent"):
            zipf_frequencies(7, alpha)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="trace", n=7, m=10)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="uniform", n=7, m=-1)


# every numeric field of a spec is drawn from small integers, negatives and every kind of non-integer
FIELD = st.integers(-2, 9) | st.sampled_from(
    [2.5, 3.0, math.nan, True, False, None, "3", np.int64(3), np.uint64(5), np.float64(2.0), np.True_])


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["uniform", "zipf", "cyclic"]), n=FIELD, m=FIELD, seed=FIELD,
       subset_size=FIELD, alpha=FIELD)
# a float or unsigned cyclic subset size makes `arange % size` float64; random draws rarely reach these
@example(kind="cyclic", n=7, m=4, seed=0, subset_size=2.5, alpha=1.0)
@example(kind="cyclic", n=7, m=4, seed=0, subset_size=3.0, alpha=1.0)
@example(kind="cyclic", n=7, m=4, seed=0, subset_size=np.uint64(5), alpha=1.0)
def test_a_spec_is_refused_or_streams_item_ids(kind, n, m, seed, subset_size, alpha):
    try:
        spec = WorkloadSpec(kind=kind, n=n, m=m, seed=seed, subset_size=subset_size, alpha=alpha)
    except ValueError:
        return
    chunks = list(stream(spec))
    for chunk in chunks:
        assert (chunk.ndim, chunk.dtype) == (1, np.int64)
        assert ((0 <= chunk) & (chunk < spec.n)).all()
    assert sum(map(len, chunks)) == spec.m


def test_read_trace_basic(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0\n2\n1\n")
    seq = read_trace(path, 3)
    assert seq.tolist() == [0, 2, 1]


def test_read_trace_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n0\n\n1\n# tail\n")
    assert read_trace(path, 3).tolist() == [0, 1]


def test_read_trace_reports_offending_line(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("9\n")
    with pytest.raises(ValueError, match=":1:"):
        read_trace(path, 3)
    path.write_text("0\nnope\n")
    with pytest.raises(ValueError, match=":2:"):
        read_trace(path, 3)


@pytest.mark.parametrize("line", [b"1_0", "\u0663".encode(), b"-0", b"+3", b"\xff"],
                         ids=["underscore", "arabic-indic-digit", "minus-zero", "plus-sign", "not-utf-8"])
def test_read_trace_takes_ascii_digits_only(tmp_path, line):
    # int() reads the first four as ids (10, 3, 0, 3); a trace id is plain decimal digits
    path = tmp_path / "trace.txt"
    path.write_bytes(b"0\n" + line + b"\n")
    with pytest.raises(ValueError, match=":2: not a decimal item id"):
        read_trace(path, 15)


def test_trace_workload_through_generate(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("2\n0\n2\n")
    spec = WorkloadSpec(kind="trace", n=3, path=str(path))
    assert generate(spec).tolist() == [2, 0, 2]


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("kind", ["uniform", "zipf", "cyclic", "trace"])
def test_generate_returns_an_int64_array(tmp_path, kind, m):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n" + "".join(f"{t % 7}\n" for t in range(m)))
    seq = generate(WorkloadSpec(kind=kind, n=7, m=m, subset_size=3, path=str(path)))
    assert isinstance(seq, np.ndarray)
    assert (seq.ndim, seq.dtype, len(seq)) == (1, np.int64, m)
    assert ((0 <= seq) & (seq < 7)).all()


def whole_draw(spec):
    """The workload as one array, drawn whole: the rule stream must reproduce chunk by chunk."""
    if spec.kind == "cyclic":
        return np.arange(spec.m, dtype=np.int64) % spec.subset_size
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        return rng.integers(0, spec.n, size=spec.m)
    cum = zipf_frequencies(spec.n, spec.alpha).cumsum()
    return np.minimum(np.searchsorted(cum, rng.random(spec.m), side="right"), spec.n - 1)


def trace_lines(m, seed):
    """m ids over n = 7 with comments, blank and padded lines between them, and the ids alone.

    For an odd seed the file's last line has no newline.
    """
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 7, size=m).tolist()
    junk = [b"# comment\n", b"\n", b"  \n"]
    lines = [b"# header\n"]
    for v in ids:
        if rng.random() < 0.3:
            lines.append(junk[rng.integers(3)])
        lines.append(b" %d \n" % v if rng.random() < 0.1 else b"%d\n" % v)
    text = b"".join(lines)
    return text[:-1] if seed % 2 else text, ids


@pytest.mark.parametrize("chunk", [1, 7, workloads.CHUNK])
@pytest.mark.parametrize("kind", ["uniform", "zipf", "cyclic", "trace"])
@pytest.mark.parametrize("seed", [0, 9])
def test_stream_concatenates_to_the_whole_draw(tmp_path, monkeypatch, kind, seed, chunk):
    # NEP 19 does not promise that chunked draws concatenate to the whole draw on every numpy
    monkeypatch.setattr(workloads, "CHUNK", chunk)
    path = tmp_path / "trace.txt"
    for m in (0, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        text, ids = trace_lines(m, seed)
        path.write_bytes(text)
        spec = WorkloadSpec(kind=kind, n=7, m=m, alpha=1.3, subset_size=5, path=str(path), seed=seed)
        chunks = list(stream(spec))
        for c in chunks:
            assert (type(c), c.ndim, c.dtype) == (np.ndarray, 1, np.int64)
            assert 1 <= len(c) <= chunk
        whole = np.array(ids, dtype=np.int64) if kind == "trace" else whole_draw(spec)
        assert len(whole) == m
        for seq in (np.concatenate([whole[:0], *chunks]), generate(spec)):
            assert seq.dtype == np.int64 and seq.tobytes() == whole.tobytes()
        if kind == "trace":
            assert read_trace(path, 7).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bad, message", [(b"x7", "not a decimal item id: 'x7'"),
                                          (b"7", "item id 7 out of range for n=7")])
def test_trace_error_right_after_a_chunk_boundary_names_its_line(tmp_path, monkeypatch, bad, message):
    # a block is CHUNK bytes completed to the end of their last line, so a CHUNK one byte
    # short of the prefix ends the first block exactly where the prefix ends
    prefix = b"# header\n0\n\n6\n# comments and blanks before the bad line\n   \n\n"
    path = tmp_path / "trace.txt"
    path.write_bytes(prefix + bad + b"\n2\n")
    monkeypatch.setattr(workloads, "CHUNK", len(prefix) - 1)
    chunks = stream(WorkloadSpec(kind="trace", n=7, path=str(path)))
    assert next(chunks).tolist() == [0, 6]
    lineno = prefix.count(b"\n") + 1
    with pytest.raises(ValueError) as err:
        next(chunks)
    assert str(err.value) == f"{path}:{lineno}: {message}"


def test_an_id_below_n_that_no_int64_holds_is_refused_with_its_line(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"7\n9223372036854775807\n9223372036854775808\n")
    with pytest.raises(ValueError) as err:
        read_trace(path, 10**30)
    assert str(err.value) == f"{path}:3: item id 9223372036854775808 out of range for int64"


# a drawn trace's lines: mostly ids below n, so that whole blocks take the one-call parse, then
# ids up to 300 for the small n, ids of 19 or more digits, with and without leading zeros, and
# runs of the bytes a line may hold by mistake (a "\n" among them makes a blank line or splits one)
_long_id = st.one_of(st.just(b"9223372036854775807"),
                     st.builds(lambda zeros, v: b"0" * zeros + b"%d" % v, st.integers(0, 3),
                               st.integers(10**18, 10**25)))
_junk = st.lists(st.sampled_from([bytes([c]) for c in b"0123456789\n\r \t#+-_"] + ["\u0663".encode()]),
                 max_size=5).map(b"".join)


@st.composite
def traces(draw, n):
    """A trace file's bytes for n items, with or without a newline at its end."""
    good = st.integers(0, min(n, 300) - 1).map(b"%d".__mod__)
    lines = draw(st.one_of(st.lists(good, max_size=20),
                           st.lists(st.one_of(good, good, good, _long_id), max_size=20),
                           st.lists(st.one_of(good, good, good, st.integers(0, 300).map(b"%d".__mod__),
                                              _long_id, _junk), max_size=20)))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


def read_all(chunks):
    """The id lists that chunks() yields up to its end or its first error, and that error or None."""
    got = []
    try:
        for c in chunks():
            assert (type(c), c.ndim, c.dtype) == (np.ndarray, 1, np.int64)
            got.append(c.tolist())
    except ValueError as err:
        return got, err
    return got, None


# a plain block is parsed by text-mode np.fromstring: a numpy that deprecates it fails here
@pytest.mark.filterwarnings("error::DeprecationWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# numpy saturates an id at the int64 maximum: the maximum itself is an id below n = 10**30, and
# one past it is refused by the line loop as out of range for int64, with its line
@example(n_and_data=(10**30, b"7\n9223372036854775807\n"), chunk=workloads.CHUNK)
@example(n_and_data=(10**30, b"7\n9223372036854775808\n"), chunk=workloads.CHUNK)
@example(n_and_data=(2**63 - 1, b"7\n9223372036854775807\n"), chunk=workloads.CHUNK)
@given(n_and_data=st.sampled_from([1, 7, 255, 2**63 - 1, 10**30]).flatmap(
           lambda n: st.tuples(st.just(n), traces(n))),
       chunk=st.sampled_from([1, 2, 7, workloads.CHUNK]))
def test_a_trace_streams_as_the_per_line_reference_reads_it(tmp_path, monkeypatch, n_and_data, chunk):
    n, data = n_and_data
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    monkeypatch.setattr(workloads, "CHUNK", chunk)
    want, error = trace_reference(data, str(path), n, chunk)
    chunks, raised = read_all(lambda: stream(WorkloadSpec(kind="trace", n=n, path=str(path))))
    assert chunks == want and all(len(c) <= chunk for c in chunks)
    whole, raised_whole = read_all(lambda: [read_trace(path, n)])
    assert whole == ([] if error else [sum(want, [])])
    for err in (raised, raised_whole):
        if error is None:
            assert err is None
        else:
            assert type(err) is error[0] and str(err) == error[1]
