"""Request-sequence generators and trace ingestion."""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .tree import _exact_int

WORKLOAD_KINDS = ("uniform", "zipf", "cyclic", "trace")


@dataclass
class WorkloadSpec:
    kind: str
    n: int
    m: int = 0
    alpha: float = 1.0
    subset_size: int = 1
    path: str | None = None
    seed: int = 0

    def __post_init__(self):
        """Refuse a bad field with ValueError; n, m, seed and a cyclic subset size become plain ints."""
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        self.n = _exact_int(self.n, "item count")
        if self.n < 1:
            raise ValueError(f"item count must be at least 1, got {self.n}")
        self.seed = _exact_int(self.seed, "seed")
        self.m = _exact_int(self.m, "request count")
        if self.kind == "zipf":
            _check_alpha(self.alpha)
        if self.kind == "cyclic":
            self.subset_size = _exact_int(self.subset_size, "cyclic subset size")
            if not 1 <= self.subset_size <= self.n:
                raise ValueError("cyclic subset size must lie in [1, n]")
        if self.kind == "trace" and not self.path:
            raise ValueError("trace workload needs a file path")

    def describe(self) -> str:
        if self.kind == "zipf":
            return f"zipf(alpha={self.alpha:g})"
        if self.kind == "cyclic":
            return f"cyclic(subset={self.subset_size})"
        if self.kind == "trace":
            return f"trace({self.path})"
        return "uniform"


def _check_alpha(alpha):
    # bool is a numbers.Real and numpy.bool_ is not; both are refused, as in the integer fields
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and 0 <= alpha < np.inf):
        raise ValueError(f"zipf exponent must be finite and >= 0, got {alpha!r}")


def zipf_frequencies(n, alpha) -> np.ndarray:
    """Normalized weights rank^-alpha; item id r-1 holds frequency rank r."""
    _check_alpha(alpha)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -float(alpha)
    return weights / weights.sum()


# requests per chunk of a stream: 2^14 int64 ids are 128 KiB; serving took the same time per request
# at 2^10 to 2^18, and peak RSS grew above 2^14
CHUNK = 1 << 14


def stream(spec: WorkloadSpec):
    """Realize a workload spec as int64 arrays of item ids, at most CHUNK requests each, in order.

    Only the chunk in hand is held, so memory does not grow with the request
    count.  Uniform and zipf draw each chunk from one default_rng(spec.seed),
    and the chunks concatenate to the draw of all m requests at once (a test
    checks this, as NEP 19 does not promise it across numpy versions); cyclic
    workloads and traces ignore the seed.  A trace is read a block of lines
    at a time, and a block of only comments and blanks yields nothing.
    """
    chunk = CHUNK
    if spec.kind == "trace":
        yield from _trace_chunks(spec.path, spec.n, chunk)
        return
    if spec.kind == "zipf":
        cum = zipf_frequencies(spec.n, spec.alpha).cumsum()
    if spec.kind != "cyclic":
        rng = np.random.default_rng(spec.seed)
    for lo in range(0, spec.m, chunk):
        hi = min(lo + chunk, spec.m)
        if spec.kind == "cyclic":
            yield np.arange(lo, hi, dtype=np.int64) % spec.subset_size
        elif spec.kind == "uniform":
            yield rng.integers(0, spec.n, size=hi - lo)
        else:  # zipf via inverse CDF over exact cumulative weights
            items = np.searchsorted(cum, rng.random(hi - lo), side="right")
            yield np.minimum(items, spec.n - 1).astype(np.int64, copy=False)


def _joined(chunks) -> np.ndarray:
    # grown in place and returned as a view, so the chunks and a second whole copy never coexist
    items = array("q")
    for chunk in chunks:
        items.frombytes(memoryview(chunk).cast("B"))
    return np.frombuffer(items, dtype=np.int64)


def generate(spec: WorkloadSpec) -> np.ndarray:
    """The whole of stream(spec) as one 1-d int64 array; a trace comes from read_trace.

    It holds every request, so it is for callers that need the whole
    sequence at once; a simulation that serves requests in order takes
    stream(spec) instead.
    """
    if spec.kind == "trace":
        return read_trace(spec.path, spec.n)
    return _joined(stream(spec))


def read_trace(path, n) -> np.ndarray:
    """One decimal item id per line, as one int64 array: the whole of a trace workload's stream.

    '#' lines are comments and blank lines are skipped.  An id is ASCII
    digits only: no sign, underscore or non-ASCII digit, and below both n
    and 2**63.  A bad line raises ValueError naming path:line.
    """
    return _joined(_trace_chunks(path, n, CHUNK))


def _trace_chunks(path, n, chunk):
    """The ids of a trace file, parsed a block of lines at a time, as int64 arrays of at most chunk ids.

    A block is the next chunk bytes read whole, completed to the end of their
    last line; every id line but a file's last ends in a newline, so a block
    holds at most chunk // 2 + 1 <= chunk ids with no count per line.

    A plain block, ASCII digits and newlines with no blank line, is parsed
    by one numpy call, and kept when it has one id per line, all below n
    and below the int64 maximum, at which numpy saturates a longer id.
    Any other block is parsed line by line by the same rules, and only that
    loop words an error: its lines are split off in one bytes.split, which
    costs less than reading them one by one; they are bytes, for which
    isdigit() is exactly the ASCII digit test, so nothing is decoded.
    """
    lineno = 0
    limit = min(n, 1 << 63)  # an id must be below n and fit the int64 the chunks hold
    with open(path, "rb") as fh:
        while block := fh.read(chunk) + fh.readline():
            # 10 is ord("\n"): a block that opens with a newline opens with a blank line
            if not block.translate(None, b"0123456789\n") and block[0] != 10 and b"\n\n" not in block:
                items = np.fromstring(block, dtype=np.int64, sep="\n")  # text mode, not deprecated
                count = block.count(b"\n") + (block[-1] != 10)
                if len(items) == count and items.max() < min(n, np.iinfo(np.int64).max):
                    lineno += count
                    yield items
                    continue
            lines = block.split(b"\n")
            if not lines[-1]:  # the block ends in a newline, not in a last line without one
                del lines[-1]
            # an array append costs more per call than a list's, so it is bound once
            items = array("q")
            append = items.append
            for lineno, raw in enumerate(lines, start=lineno + 1):
                line = raw.strip()
                if not line or line[0] == 35:  # ord("#")
                    continue
                if not line.isdigit():
                    raise ValueError(f"{path}:{lineno}: not a decimal item id: {line.decode(errors='replace')!r}")
                v = int(line)
                if v >= limit:
                    raise ValueError(f"{path}:{lineno}: item id {v} out of range for "
                                     + (f"n={n}" if v >= n else "int64"))
                append(v)
            if items:
                yield np.frombuffer(items, dtype=np.int64)
