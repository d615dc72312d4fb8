"""One-pass mergeable aggregation of ensemble Hankel correlations.

Only two aggregates are kept per ensemble: G, the running sum of H_i H_i^T
over stacked Hankel matrices, and rowsum, the running sum of the row totals
H_i 1. Every moment-corrected assembly downstream is a function of these two
plus the experiment count, which is what makes the grid search cost
independent of the ensemble size.
"""

from dataclasses import dataclass

import numpy as np

from .hankel import stacked_hankel
from .lti_sim import BLOCK_SIZE, _dump_json, _load_json, _named, _number_array, _positive_int

__all__ = [
    "SufficientStats",
    "FinalizedStats",
    "aggregate",
    "save_stats",
    "load_stats",
]


@dataclass(frozen=True, eq=False)
class FinalizedStats:
    """Per-experiment averages Gbar = G/count and rbar = rowsum/count."""

    Gbar: np.ndarray
    rbar: np.ndarray
    d: int
    Nc: int
    count: int


class SufficientStats:
    """Running sums over absorbed experiments. Mutable, single owner.

    Omitted sums are zeros. A G not of shape (d, d), a rowsum not of shape
    (d,), non-finite entries and a G that is not exactly symmetric raise
    ValueError. aggregate and merge sum with numpy's overflow warnings off,
    so sums that overflow reach this check as inf and are refused here."""

    __slots__ = ("d", "Nc", "count", "G", "rowsum")

    def __init__(self, d: int, Nc: int, count: int = 0, G=None, rowsum=None):
        self.d, self.Nc, self.count = int(d), int(Nc), int(count)
        self.G = np.zeros((self.d, self.d)) if G is None else G
        self.rowsum = np.zeros(self.d) if rowsum is None else rowsum
        if self.G.shape != (self.d, self.d):
            raise ValueError(f"G has shape {self.G.shape}, expected ({self.d}, {self.d})")
        if self.rowsum.shape != (self.d,):
            raise ValueError(f"rowsum has shape {self.rowsum.shape}, expected ({self.d},)")
        if not (np.isfinite(self.G).all() and np.isfinite(self.rowsum).all()):
            raise ValueError("G or rowsum has non-finite entries (sums that overflow a double leave them)")
        if not np.array_equal(self.G, self.G.T):
            raise ValueError("G is not symmetric")

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Componentwise sum of two aggregates over disjoint experiment sets."""
        if (self.d, self.Nc) != (other.d, other.Nc):
            raise ValueError(f"shape mismatch: ({self.d},{self.Nc}) vs ({other.d},{other.Nc})")
        return _total(np.stack([self.G, other.G]), np.stack([self.rowsum, other.rowsum]), self.Nc, self.count + other.count)

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


@np.errstate(over="ignore", invalid="ignore")
def aggregate(ds, L: int) -> SufficientStats:
    """Aggregate a dataset in canonical blocks of BLOCK_SIZE records.

    Each block's stacked Hankel matrices come from one batched Hankel
    tensor, and both the per-block and the cross-block sums are pairwise
    trees (see _total). The block plan depends only on the record count, so
    the result is bitwise reproducible, and the aggregate of one block is
    its own term of the cross-block sums: summing the blocks of a dataset
    aggregated one by one gives bitwise its aggregate.
    """
    G, rowsum = [], []
    for a in range(0, ds.Nt, BLOCK_SIZE):
        Hs = stacked_hankel(ds.U[a : a + BLOCK_SIZE], ds.Y[a : a + BLOCK_SIZE], L)  # (B, d, Nc)
        g = _tree_sum(Hs @ Hs.transpose(0, 2, 1))
        # batched gemm output need not be exactly symmetric; G must be, and a sum of symmetric matrices is.
        # Halving first keeps a finite g finite, with the bits of (g + g.T) / 2.0 for normal entries
        G.append(g / 2.0 + g.T / 2.0)
        rowsum.append(_tree_sum(Hs.sum(axis=2)))
    return _total(np.stack(G), np.stack(rowsum), Hs.shape[2], ds.Nt)


@np.errstate(over="ignore", invalid="ignore")
def _total(G: np.ndarray, rowsum: np.ndarray, Nc: int, count: int) -> SufficientStats:
    """The aggregate of count records from its blocks' G and rowsum, stacked
    in block order along axis 0: a pairwise tree over the blocks of each."""
    return SufficientStats(G.shape[1], Nc, count, _tree_sum(G), _tree_sum(rowsum))


def save_stats(st: SufficientStats, path) -> None:
    """Write an aggregate snapshot as JSON with G in row-major order.

    json writes each float by repr, which reads back bitwise, -0.0 included.
    """
    obj = {"d": st.d, "Nc": st.Nc, "count": st.count, "G": st.G.reshape(-1).tolist(), "rowsum": st.rowsum.tolist()}
    _dump_json(obj, path)


def load_stats(path) -> SufficientStats:
    """Read a snapshot written by save_stats.

    Rejects, naming the file and the field, a payload that is not a JSON
    object, a d, Nc or count that is not a positive integer (4.0 reads as
    4), a G or rowsum that is not a rectangular array of numbers, a G
    without d*d entries, and what SufficientStats refuses."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a stats snapshot must be a JSON object, got {type(obj).__name__}")
    for key in ("d", "Nc", "count", "G", "rowsum"):
        if key not in obj:
            raise ValueError(f"{path}: missing field {key!r}")
    d, Nc, count = (_positive_int(path, key, obj[key]) for key in ("d", "Nc", "count"))
    G = _number_array(path, "G", obj["G"])
    if G.size != d * d:
        raise ValueError(f"{path}: G has {G.size} entries, expected {d * d}")
    rowsum = _number_array(path, "rowsum", obj["rowsum"])
    return _named(path, SufficientStats, d, Nc, count, G.reshape(d, d), rowsum)
