import os

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
    for u, y in zip(ds.U, ds.Y):
        H = stacked_hankel(u, y, L)
        M = M + H @ H.T
    M = M / ds.Nt
    return (M + M.T) / 2.0


def spy(monkeypatch, module, name: str) -> list:
    """Wrap module.name, which the package looks up at call time, so that
    each call in this process appends (args, result) to the returned list."""
    calls, fn = [], getattr(module, name)

    def recorded(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


def part_counts(calls: list) -> list:
    """The part count of each lti_sim._in_parts call that spy recorded."""
    return [args[1] for args, _ in calls]


def assert_no_child_left() -> None:
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
