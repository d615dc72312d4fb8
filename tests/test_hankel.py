from types import SimpleNamespace

import numpy as np
import pytest

from hankelnull import (
    generate_pe_input,
    hankel,
    pe_order_check,
    row_index,
    simulate,
    stacked_hankel,
)
from hankelnull.lti_sim import Experiment


def test_hankel_scalar():
    H = hankel([1.0, 2.0, 3.0, 4.0], 2)
    assert np.array_equal(H, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])


def test_hankel_constant_sequence_rank_one():
    H = hankel([5.0, 5.0, 5.0], 2)
    assert np.array_equal(H, [[5.0, 5.0], [5.0, 5.0]])
    assert np.linalg.matrix_rank(H) == 1


def test_hankel_two_channel():
    # hand expansion: lag blocks stacked, channels in order inside each lag
    seq = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
    H = hankel(seq, 2)
    assert np.array_equal(H, [[1.0, 2.0], [10.0, 20.0], [2.0, 3.0], [20.0, 30.0]])


def test_hankel_rejects_bad_args():
    with pytest.raises(ValueError):
        hankel([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        hankel([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        hankel(np.zeros((2, 2, 2)), 1)


def test_hankel_antidiagonal_property():
    rng = np.random.default_rng(7)
    seq = rng.standard_normal(23)
    H = hankel(seq, 6)
    rows, cols = H.shape
    for r in range(rows - 1):
        for s in range(1, cols):
            assert H[r + 1, s - 1] == H[r, s]


def test_hankel_window_content_matches_slices():
    rng = np.random.default_rng(3)
    sig = rng.standard_normal((11, 3))
    L = 4
    H = hankel(sig, L)
    for lag in range(L):
        for ch in range(3):
            assert np.array_equal(H[lag * 3 + ch], sig[lag : lag + 11 - L + 1, ch])


def test_stacked_hankel_dimensions(demo_system):
    rng = np.random.default_rng(0)
    e = simulate(demo_system, np.zeros(3), rng.standard_normal((30, 2)))
    H = stacked_hankel(e, 2)
    assert H.shape == (10, 29)


def test_stacked_hankel_block_order():
    e = Experiment(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    H = stacked_hankel(e, 2)
    assert np.array_equal(H, [[1.0, 2.0], [2.0, 3.0], [4.0, 5.0], [5.0, 6.0]])


def test_stacked_hankel_noiseless_rank(demo_system):
    # noiseless trajectories expose rank m*L + n
    rng = np.random.default_rng(1)
    e = simulate(demo_system, rng.uniform(-1, 1, 3), generate_pe_input(30, 2, 5, rng))
    H = stacked_hankel(e, 2)
    assert np.linalg.matrix_rank(H) == 7


def test_stacked_hankel_batch_matches_per_record():
    rng = np.random.default_rng(2)
    batch = SimpleNamespace(U=rng.standard_normal((7, 12, 2)), Y=rng.standard_normal((7, 12, 3)))
    H = stacked_hankel(batch, 3)
    assert H.shape == (7, 15, 10)
    for i in range(7):
        one = stacked_hankel(Experiment(batch.U[i], batch.Y[i]), 3)
        assert np.array_equal(H[i], one)


def test_row_index_corners():
    assert row_index("input", 0, 0, m=2, p=3, L=2) == 0
    assert row_index("output", 0, 0, m=2, p=3, L=2) == 4
    assert row_index("output", 2, 1, m=2, p=3, L=2) == 9


def test_row_index_is_bijection_and_matches_rows():
    rng = np.random.default_rng(5)
    for m, p, L in [(1, 1, 1), (2, 3, 2), (3, 1, 4)]:
        d = (m + p) * L
        idx = [row_index(kind, ch, lag, m, p, L)
               for kind, width in (("input", m), ("output", p))
               for lag in range(L)
               for ch in range(width)]
        assert sorted(idx) == list(range(d))

        N = L + 6
        e = Experiment(rng.standard_normal((N, m)), rng.standard_normal((N, p)))
        H = stacked_hankel(e, L)
        for lag in range(L):
            for ch in range(m):
                r = row_index("input", ch, lag, m, p, L)
                assert np.array_equal(H[r], e.u[lag : lag + H.shape[-1], ch])
            for ch in range(p):
                r = row_index("output", ch, lag, m, p, L)
                assert np.array_equal(H[r], e.y[lag : lag + H.shape[-1], ch])


def test_row_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        row_index("input", 2, 0, m=2, p=3, L=2)
    with pytest.raises(ValueError):
        row_index("output", 0, 2, m=2, p=3, L=2)
    with pytest.raises(ValueError):
        row_index("state", 0, 0, m=2, p=3, L=2)


def test_pe_order_check_random_input():
    rng = np.random.default_rng(11)
    assert pe_order_check(rng.standard_normal((30, 2)), 5)


def test_pe_order_check_constant_input_fails():
    assert not pe_order_check(np.full(12, 3.0), 2)


def test_pe_order_check_impulse():
    # an impulse excites order L once every lag row catches it, which needs
    # the spike at least L-1 steps in; at the very start all later lag rows
    # are zero and the rank collapses to 1
    for order in (2, 3, 5):
        U = np.zeros(2 * order + 2)
        U[order - 1] = 1.0
        assert pe_order_check(U, order)
        early = np.zeros(2 * order + 2)
        early[0] = 1.0
        assert not pe_order_check(early, order)


def test_pe_order_check_batch_matches_per_record():
    rng = np.random.default_rng(14)
    U = rng.standard_normal((6, 20, 2))
    U[1] = 0.0
    U[4, :, 1] = U[4, :, 0]  # two identical channels never reach full rank
    verdicts = pe_order_check(U, 4)
    assert verdicts.dtype == bool and verdicts.shape == (6,)
    assert verdicts.tolist() == [pe_order_check(u, 4) for u in U] == [True, False, True, True, False, True]


def test_pe_order_check_scale_free():
    rng = np.random.default_rng(13)
    U = rng.standard_normal((20, 2))
    assert pe_order_check(U, 3) == pe_order_check(U * 1e-8, 3)
