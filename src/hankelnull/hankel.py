"""Hankel and stacked input-output Hankel matrices, plus excitation checks.

Row convention: lag-major blocks, channel-major inside each lag block. The
row of (lag l, channel j) for a c-channel signal sits at index l*c + j, and
a stacked matrix puts all input rows above all output rows.

stacked_hankel and pe_order_check also take a batch of records, signals of
shape (..., N, c), and give one matrix or verdict per leading index, built
from one strided window view.

pe_order_check decides most records without an SVD. One batched slogdet of
the Gram matrices H H^T, with their traces and Frobenius norms, bounds
each record's singular-value ratio from below; a record whose bound clears
tol by a fixed margin is full rank. Only the records the bound cannot
certify, those that are rank deficient or nearly so, go through the SVD
rule, so every verdict is the SVD rule's.
"""

import math

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


def stacked_hankel(u, y, L: int) -> np.ndarray:
    """Stack hankel(u, L) on top of hankel(y, L): a (d, Nc) matrix.

    u (N, m) and y (N, p) are one record. A batch of records, u (..., N, m)
    and y (..., N, p) such as a Dataset's U and Y, gives one stacked matrix
    per record, (..., d, Nc).
    """
    Hu = _block_hankel(_as_signal(u, batched=True), L)
    Hy = _block_hankel(_as_signal(y, batched=True), L)
    return np.concatenate([Hu, Hy], axis=-2)


def pe_order_check(U, order: int, tol: float = 1e-10):
    """True iff hankel(U, order) has full row rank m*order.

    Rank is the count of singular values above tol * sigma_max, so the check
    is scale-free. A batch U of shape (..., N, m) gives a boolean array with
    one verdict per record. Non-finite samples raise ValueError naming the
    first record that holds one.

    Most records skip the SVD. Each record is scaled by a power of two to a
    largest magnitude in [0.5, 1), which is exact and keeps G = H H^T (d x d,
    d = m*order) clear of overflow and underflow. The other d - 1
    eigenvalues of G sum to at most trace G, so by the AM-GM inequality their
    product is at most (trace G / (d-1))^(d-1), and lambda_min(G) is at least
    det G over that product. With lambda_max <= ||G||_F,

        (sigma_min / sigma_max)^2 >= b = det G (d-1)^(d-1) / ((trace G)^(d-1) ||G||_F),

    and one batched slogdet with one batched trace gives b. A record with

        b > 4 tol^2 + 8 (Nc + d) d eps

    is full rank, and the SVD rule says so too:
    - 4 tol^2 puts sigma_min / sigma_max at 2 tol or more, so the rounding
      of the SVD itself (a few eps * sigma_max) cannot take it under tol;
    - forming G from Nc-term inner products perturbs it by at most
      Nc * eps * trace G <= Nc d eps lambda_max, and the LU factorization
      behind slogdet by about d^2 eps lambda_max more. So the determinant
      computed for an exactly singular G is that of a matrix whose
      lambda_min / lambda_max is at most about (Nc + d) d eps, and b, a
      lower bound on that ratio, is no larger; the factor 8 covers the small
      constants of both bounds, so rounding cannot lift b over the threshold
      for a record whose exact G is singular or nearly so.
    Every other record (rank deficient, nearly so, zero, more rows than
    columns) goes through the SVD rule unchanged.
    """
    sig = _as_signal(U, batched=True)
    batch = sig.reshape((math.prod(sig.shape[:-2]),) + sig.shape[-2:])
    finite = np.isfinite(batch).all(axis=(1, 2))
    if not finite.all():
        where = tuple(int(i) for i in np.unravel_index(np.argmin(finite), sig.shape[:-2]))
        name = "U" if sig.ndim == 2 else f"record {where[0] if len(where) == 1 else where} of U"
        raise ValueError(f"{name} has non-finite samples")
    exponent = np.frexp(np.abs(batch).max(axis=(1, 2), initial=0.0))[1]
    Hs = _block_hankel(np.ldexp(batch, -exponent[:, None, None]), order)
    d, Nc = Hs.shape[1:]
    G = Hs @ Hs.transpose(0, 2, 1)
    sign, logdet = np.linalg.slogdet(G)
    tol = float(tol)  # a Python float squares past 1e154 to inf without a numpy warning
    need = math.log(4 * tol * tol + 8 * (Nc + d) * d * np.finfo(float).eps)  # see the docstring
    full = sign > 0  # a zero record has det G = 0, trace G = 0 and ||G||_F = 0
    Gf = G[full]
    # at d = 1 the AM-GM factor is 0^0 = 1 and b = det G / ||G||_F = 1
    log_b = logdet[full] + (d - 1) * (math.log(max(d - 1, 1)) - np.log(np.trace(Gf, axis1=1, axis2=2)))
    full[full] = log_b - np.log(np.linalg.norm(Gf, axis=(1, 2))) > need
    rest = np.flatnonzero(~full)
    if rest.size:
        sv = np.linalg.svd(_block_hankel(batch[rest], order), compute_uv=False)
        full[rest] = np.count_nonzero(sv > tol * sv[:, :1], axis=-1) == d
    return bool(full[0]) if sig.ndim == 2 else full.reshape(sig.shape[:-2])


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
