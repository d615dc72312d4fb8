import numpy as np
import pytest

from hankelnull import StateSpace, stacked_hankel


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
    for e in ds:
        H = stacked_hankel(e, L).matrix
        M = M + H @ H.T
    M = M / ds.Nt
    return (M + M.T) / 2.0
