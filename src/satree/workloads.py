"""Request-sequence generators and trace ingestion."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class RequestSequence:
    items: list = field(default_factory=list)
    n: int = 0

    def __len__(self):
        return len(self.items)


def _check_alpha(alpha):
    if not 0 <= alpha < np.inf:
        raise ValueError(f"zipf exponent must be finite and >= 0, got {alpha!r}")


def zipf_frequencies(n, alpha) -> np.ndarray:
    """Normalized weights rank^-alpha; item id r-1 holds frequency rank r."""
    _check_alpha(alpha)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -float(alpha)
    return weights / weights.sum()


def generate(spec: WorkloadSpec) -> RequestSequence:
    """Realize a workload spec; everything except traces is a pure function of the seed."""
    if spec.kind == "trace":
        return read_trace(spec.path, spec.n)
    if spec.kind == "cyclic":
        items = [t % spec.subset_size for t in range(spec.m)]
        return RequestSequence(items, spec.n)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        items = rng.integers(0, spec.n, size=spec.m)
    else:  # zipf via inverse CDF over exact cumulative weights
        cum = zipf_frequencies(spec.n, spec.alpha).cumsum()
        items = np.searchsorted(cum, rng.random(spec.m), side="right")
        items = np.minimum(items, spec.n - 1)
    return RequestSequence([int(v) for v in items], spec.n)


def read_trace(path, n) -> RequestSequence:
    """Parse one decimal item id per line; '#' lines are comments, blanks skipped."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a decimal item id: {line!r}") from None
            if not 0 <= v < n:
                raise ValueError(f"{path}:{lineno}: item id {v} out of range for n={n}")
            items.append(v)
    return RequestSequence(items, n)
