"""Hankel and stacked input-output Hankel matrices, plus excitation checks.

Row convention: lag-major blocks, channel-major inside each lag block. The
row of (lag l, channel j) for a c-channel signal sits at index l*c + j, and
a stacked matrix puts all input rows above all output rows.

stacked_hankel and pe_order_check also take a batch of records, signals of
shape (..., N, c), and give one matrix or verdict per leading index, built
from one strided window view.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "hankel",
    "stacked_hankel",
    "pe_order_check",
    "row_index",
]


def _as_signal(seq, batched: bool = False) -> np.ndarray:
    sig = np.asarray(seq, dtype=float)
    if sig.ndim == 1:
        sig = sig[:, None]
    if sig.ndim < 2 or (sig.ndim > 2 and not batched):
        raise ValueError(f"signal must be 1-D or 2-D, got shape {sig.shape}")
    return sig


def _block_hankel(sig: np.ndarray, L: int) -> np.ndarray:
    """hankel over the last two axes of sig (..., N, c): (..., c*L, N - L + 1)."""
    N, c = sig.shape[-2:]
    if L < 1:
        raise ValueError("window depth L must be >= 1")
    if N < L:
        raise ValueError(f"need at least L={L} samples, got {N}")
    win = sliding_window_view(sig, L, axis=-2)  # (..., N-L+1, c, L)
    return np.swapaxes(win, -3, -1).reshape(*sig.shape[:-2], c * L, N - L + 1)


def hankel(seq, L: int) -> np.ndarray:
    """Block-Hankel matrix of a vector-valued sequence.

    Parameters
    ----------
    seq : array-like, shape (N,) or (N, c)
        Signal samples, one row per time step.
    L : int
        Window depth, the number of block rows.

    Returns
    -------
    ndarray, shape (c*L, N - L + 1)
        Column k holds samples k .. k+L-1 stacked as vectors.
    """
    return _block_hankel(_as_signal(seq), L)


def stacked_hankel(e, L: int) -> np.ndarray:
    """Stack hankel(u, L) on top of hankel(y, L): a (d, Nc) matrix.

    `e` is one record (an Experiment: u (N, m), y (N, p)) or a batch of
    them (a Dataset or a slice of one: U (Nt, N, m), Y (Nt, N, p)), which
    gives one stacked matrix per record, (Nt, d, Nc).
    """
    u, y = (e.U, e.Y) if hasattr(e, "U") else (e.u, e.y)
    Hu = _block_hankel(_as_signal(u, batched=True), L)
    Hy = _block_hankel(_as_signal(y, batched=True), L)
    return np.concatenate([Hu, Hy], axis=-2)


def pe_order_check(U, order: int, tol: float = 1e-10):
    """True iff hankel(U, order) has full row rank m*order.

    Rank is the count of singular values above tol * sigma_max, so the check
    is scale-free. A batch U of shape (..., N, m) gives a boolean array with
    one verdict per record.
    """
    sig = _as_signal(U, batched=True)
    sv = np.linalg.svd(_block_hankel(sig, order), compute_uv=False)
    rank = np.count_nonzero(sv > tol * sv[..., :1], axis=-1)
    full = rank == sig.shape[-1] * order
    return bool(full) if sig.ndim == 2 else full


def row_index(kind: str, channel: int, lag: int, m: int, p: int, L: int) -> int:
    """Flat row position of (kind, channel, lag) in a stacked Hankel matrix."""
    if kind == "input":
        width, base = m, 0
    elif kind == "output":
        width, base = p, m * L
    else:
        raise ValueError(f"kind must be 'input' or 'output', got {kind!r}")
    if not 0 <= lag < L:
        raise ValueError(f"lag {lag} out of range for L={L}")
    if not 0 <= channel < width:
        raise ValueError(f"channel {channel} out of range for {kind} width {width}")
    return base + lag * width + channel
