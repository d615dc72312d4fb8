import numpy as np
import pytest

from hankelnull import StateSpace, stacked_hankel
from hankelnull.hankel import _as_signal, _block_hankel


@pytest.fixture(scope="session")
def demo_system() -> StateSpace:
    """Stable third-order plant with two inputs and full state output.

    With L=2 the stacked Hankel matrix has d=10 rows, noiseless rank
    m*L + n = 7 and left nullity p*L - n = 3.
    """
    return StateSpace(
        [[0.8, -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]],
        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        np.eye(3),
        np.zeros((3, 2)),
    )


@pytest.fixture(scope="session")
def scalar_system() -> StateSpace:
    """First-order single-input single-output plant with direct read-out."""
    return StateSpace([[0.7]], [[1.3]], [[1.0]], [[0.0]])


def noiseless_M(ds, L: int) -> np.ndarray:
    """Direct ensemble average of H_i H_i^T, bypassing the aggregates.

    Oracle for the tests: on noiseless data this equals the assembly at the
    zero-moment point.
    """
    M = 0.0
    for u, y in zip(ds.U, ds.Y):
        H = stacked_hankel(u, y, L)
        M = M + H @ H.T
    M = M / ds.Nt
    return (M + M.T) / 2.0


def svd_rule(U, order: int, tol: float = 1e-10):
    """pe_order_check's verdict by SVD of every record, its rule before the
    Gram-determinant screen: full rank iff all m*order singular values of
    hankel(U, order) exceed tol * sigma_max.

    Oracle for the tests: the screen must give the same verdict everywhere.
    """
    sig = _as_signal(U, batched=True)
    sv = np.linalg.svd(_block_hankel(sig, order), compute_uv=False)
    rank = np.count_nonzero(sv > tol * sv[..., :1], axis=-1)
    full = rank == sig.shape[-1] * order
    return bool(full) if sig.ndim == 2 else full
