"""Request-sequence generators and trace ingestion."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

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
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("request count must be >= 0")
        if self.kind == "zipf":
            _check_alpha(self.alpha)
        if self.kind == "cyclic" and not 1 <= self.subset_size <= self.n:
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
    if not 0 <= alpha < np.inf:
        raise ValueError(f"zipf exponent must be finite and >= 0, got {alpha!r}")


def zipf_frequencies(n, alpha) -> np.ndarray:
    """Normalized weights rank^-alpha; item id r-1 holds frequency rank r."""
    _check_alpha(alpha)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -float(alpha)
    return weights / weights.sum()


def generate(spec: WorkloadSpec) -> np.ndarray:
    """Realize a workload spec as a 1-d int64 array of item ids; only traces ignore the seed."""
    if spec.kind == "trace":
        return read_trace(spec.path, spec.n)
    if spec.kind == "cyclic":
        return np.arange(spec.m, dtype=np.int64) % spec.subset_size
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        return rng.integers(0, spec.n, size=spec.m)
    # zipf via inverse CDF over exact cumulative weights
    cum = zipf_frequencies(spec.n, spec.alpha).cumsum()
    items = np.searchsorted(cum, rng.random(spec.m), side="right")
    return np.minimum(items, spec.n - 1).astype(np.int64, copy=False)


def read_trace(path, n) -> np.ndarray:
    """One decimal item id per line as an int64 array; '#' lines are comments, blanks skipped.

    An id is ASCII digits only: no sign, underscore or non-ASCII digit.  The
    lines are read as bytes, for which isdigit() is exactly that test, so
    nothing is decoded.
    """
    # grown in place and returned as a view, so a list and an array never coexist in memory;
    # its append is bound once, since an array append costs more per call than a list's
    items = array("q")
    append = items.append
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == 35:  # ord("#")
                continue
            if not line.isdigit():
                raise ValueError(f"{path}:{lineno}: not a decimal item id: {line.decode(errors='replace')!r}")
            v = int(line)
            if v >= n:
                raise ValueError(f"{path}:{lineno}: item id {v} out of range for n={n}")
            append(v)
    return np.frombuffer(items, dtype=np.int64)
