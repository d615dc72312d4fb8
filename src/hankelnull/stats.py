"""One-pass mergeable aggregation of ensemble Hankel correlations.

Only two aggregates are kept per ensemble: G, the running sum of H_i H_i^T
over stacked Hankel matrices, and rowsum, the running sum of the row totals
H_i 1. Every moment-corrected assembly downstream is a function of these two
plus the experiment count, which is what makes the grid search cost
independent of the ensemble size.
"""

import json
from dataclasses import dataclass

import numpy as np

from .hankel import stacked_hankel
from .lti_sim import BLOCK_SIZE, _load_json, _number_array, _positive_int

__all__ = [
    "SufficientStats",
    "FinalizedStats",
    "aggregate",
    "save_stats",
    "load_stats",
]


@dataclass(frozen=True)
class FinalizedStats:
    """Per-experiment averages Gbar = G/count and rbar = rowsum/count."""

    Gbar: np.ndarray
    rbar: np.ndarray
    d: int
    Nc: int
    count: int


class SufficientStats:
    """Running sums over absorbed experiments. Mutable, single owner."""

    __slots__ = ("d", "Nc", "count", "G", "rowsum")

    def __init__(self, d: int, Nc: int):
        self.d = int(d)
        self.Nc = int(Nc)
        self.count = 0
        self.G = np.zeros((self.d, self.d))
        self.rowsum = np.zeros(self.d)

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Componentwise sum of two aggregates over disjoint experiment sets."""
        if (self.d, self.Nc) != (other.d, other.Nc):
            raise ValueError(f"shape mismatch: ({self.d},{self.Nc}) vs ({other.d},{other.Nc})")
        out = SufficientStats(self.d, self.Nc)
        out.count = self.count + other.count
        out.G = self.G + other.G
        out.rowsum = self.rowsum + other.rowsum
        return out

    def finalize(self) -> FinalizedStats:
        if self.count < 1:
            raise ValueError("cannot finalize an empty ensemble")
        return FinalizedStats(self.G / self.count, self.rowsum / self.count, self.d, self.Nc, self.count)


def _tree_sum(arr: np.ndarray) -> np.ndarray:
    """Pairwise sum along axis 0; error grows like log of the term count."""
    while arr.shape[0] > 1:
        half = arr.shape[0] // 2
        head = arr[: 2 * half : 2] + arr[1 : 2 * half : 2]
        if arr.shape[0] % 2:
            head = np.concatenate([head, arr[-1:]], axis=0)
        arr = head
    return arr[0]


def aggregate(ds, L: int) -> SufficientStats:
    """Aggregate a dataset in canonical blocks of BLOCK_SIZE records.

    Each block's stacked Hankel matrices come from one batched Hankel
    tensor, and both the per-block and the cross-block sums are pairwise
    trees. The block plan depends only on the record count, so the result
    is bitwise reproducible.
    """
    parts = []
    for a in range(0, ds.Nt, BLOCK_SIZE):
        Hs = stacked_hankel(ds.U[a : a + BLOCK_SIZE], ds.Y[a : a + BLOCK_SIZE], L)  # (B, d, Nc)
        parts.append((_tree_sum(Hs @ Hs.transpose(0, 2, 1)), _tree_sum(Hs.sum(axis=2))))
    d, Nc = Hs.shape[1:]
    out = SufficientStats(d, Nc)
    G = _tree_sum(np.stack([g for g, _ in parts]))
    out.G = (G + G.T) / 2.0  # batched gemm output need not be exactly symmetric; G must be
    out.rowsum = _tree_sum(np.stack([r for _, r in parts]))
    out.count = ds.Nt
    return out


def save_stats(st: SufficientStats, path) -> None:
    """Write an aggregate snapshot as JSON with G in row-major order.

    json writes each float by repr, which reads back bitwise, -0.0 included.
    """
    obj = {"d": st.d, "Nc": st.Nc, "count": st.count, "G": st.G.reshape(-1).tolist(), "rowsum": st.rowsum.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_stats(path) -> SufficientStats:
    """Read a snapshot written by save_stats.

    Rejects what no aggregate can hold, naming the file and the field: a
    payload that is not a JSON object, d, Nc or count that is not a
    positive integer (an integral float such as 4.0 reads as 4), a G or
    rowsum that is not a rectangular array of numbers, non-finite entries
    and a G that is not exactly symmetric.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a stats snapshot must be a JSON object, got {type(obj).__name__}")
    for key in ("d", "Nc", "count", "G", "rowsum"):
        if key not in obj:
            raise ValueError(f"{path}: missing field {key!r}")
    d, Nc, count = (_positive_int(path, key, obj[key]) for key in ("d", "Nc", "count"))
    st = SufficientStats(d, Nc)
    G = _number_array(path, "G", obj["G"])
    if G.size != st.d * st.d:
        raise ValueError(f"{path}: G has {G.size} entries, expected {st.d * st.d}")
    st.G = G.reshape(st.d, st.d)
    st.rowsum = _number_array(path, "rowsum", obj["rowsum"])
    if st.rowsum.shape != (st.d,):
        raise ValueError(f"{path}: rowsum has shape {st.rowsum.shape}, expected ({st.d},)")
    st.count = count
    if not (np.isfinite(st.G).all() and np.isfinite(st.rowsum).all()):
        raise ValueError(f"{path}: G or rowsum has non-finite entries")
    if not np.array_equal(st.G, st.G.T):
        raise ValueError(f"{path}: G is not symmetric")
    return st
