import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from hankelnull import (
    hankel,
    pe_order_check,
    row_index,
    simulate,
    stacked_hankel,
)


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
    u = rng.standard_normal((30, 2))
    H = stacked_hankel(u, simulate(demo_system, np.zeros(3), u), 2)
    assert H.shape == (10, 29)


def test_stacked_hankel_block_order():
    H = stacked_hankel(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), 2)
    assert np.array_equal(H, [[1.0, 2.0], [2.0, 3.0], [4.0, 5.0], [5.0, 6.0]])


def test_stacked_hankel_noiseless_rank(demo_system):
    # noiseless trajectories expose rank m*L + n
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1, 1, 3)
    u = rng.standard_normal((30, 2))
    H = stacked_hankel(u, simulate(demo_system, x0, u), 2)
    assert np.linalg.matrix_rank(H) == 7


def test_stacked_hankel_batch_matches_per_record():
    rng = np.random.default_rng(2)
    U, Y = rng.standard_normal((7, 12, 2)), rng.standard_normal((7, 12, 3))
    H = stacked_hankel(U, Y, 3)
    assert H.shape == (7, 15, 10)
    for i in range(7):
        assert np.array_equal(H[i], stacked_hankel(U[i], Y[i], 3))


def test_stacked_hankel_rejects_signals_of_different_lengths():
    with pytest.raises(ValueError):
        stacked_hankel(np.zeros((5, 1)), np.zeros((4, 1)), 2)
    with pytest.raises(ValueError):
        stacked_hankel(np.zeros((3, 5, 1)), np.zeros((2, 5, 1)), 2)


@pytest.mark.parametrize("u_shape, y_shape", [((10, 2), (12, 3)), ((4, 10, 2), (5, 10, 3))])
def test_stacked_hankel_names_both_shapes_when_records_disagree(u_shape, y_shape):
    with pytest.raises(ValueError, match=rf"u of shape \({u_shape[0]}, .*y of shape \({y_shape[0]}, .*same records of the same length"):
        stacked_hankel(np.zeros(u_shape), np.zeros(y_shape), 2)


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
        u, y = rng.standard_normal((N, m)), rng.standard_normal((N, p))
        H = stacked_hankel(u, y, L)
        for lag in range(L):
            for ch in range(m):
                r = row_index("input", ch, lag, m, p, L)
                assert np.array_equal(H[r], u[lag : lag + H.shape[-1], ch])
            for ch in range(p):
                r = row_index("output", ch, lag, m, p, L)
                assert np.array_equal(H[r], y[lag : lag + H.shape[-1], ch])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pe_order_check_rejects_non_finite_samples(bad):
    # before any factorization: an SVD would fail to converge on a NaN and
    # take an inf for a rank-deficient record
    U = np.random.default_rng(3).standard_normal((6, 30, 2))
    U[4, 7, 1] = bad
    U[5, 0, 0] = bad
    with pytest.raises(ValueError, match="record 4 of U has non-finite samples"):
        pe_order_check(U, 5)
    with pytest.raises(ValueError, match="record \\(2, 0\\) of U"):
        pe_order_check(U.reshape(3, 2, 30, 2), 5)
    with pytest.raises(ValueError, match="^U has non-finite samples"):
        pe_order_check(U[4], 5)


def svd_rule(U, order: int, tol: float = 1e-10):
    """pe_order_check's rule, one record at a time: full rank iff all
    m*order singular values of hankel(U_i, order) exceed tol * sigma_max."""
    U = np.asarray(U, dtype=float)
    if U.ndim == 2:
        sv = np.linalg.svd(hankel(U, order), compute_uv=False)
        return bool(np.count_nonzero(sv > tol * sv[0]) == U.shape[-1] * order)
    return np.array([svd_rule(u, order, tol) for u in U.reshape(-1, *U.shape[-2:])]).reshape(U.shape[:-2])


_NORMAL = np.random.default_rng(21).standard_normal((24, 30, 2))


def _second_channel(values):
    U = _NORMAL.copy()
    U[..., 1] = values
    return U


_MIXED = np.concatenate([_NORMAL[:4], _second_channel(_NORMAL[..., 0])[:4], _second_channel(_NORMAL[..., 0] + 1e-9 * _NORMAL[..., 1])[:4]])

# at order 1 a repeated channel leaves one zero singular value next to a large one
_ONE_DEFICIENT = np.concatenate([
    _second_channel(np.random.default_rng(23).standard_normal((24, 1)) * _NORMAL[..., 0]),
    _second_channel(_NORMAL[..., 0] + 1e-11 * _NORMAL[..., 1]),
])

# one (batch, order) per case; d = 2 * order rows
PE_CASES = {
    "standard-normal": (_NORMAL, 5),
    "duplicated-channel": (_second_channel(_NORMAL[..., 0]), 5),
    "scaled-channel": (_second_channel(-3.0 * _NORMAL[..., 0]), 5),
    "channel-perturbed-1e-9": (_second_channel(_NORMAL[..., 0] + 1e-9 * _NORMAL[..., 1]), 5),
    "channel-perturbed-1e-11": (_second_channel(_NORMAL[..., 0] + 1e-11 * _NORMAL[..., 1]), 5),
    "one-deficient-direction": (_ONE_DEFICIENT, 1),
    "zero-and-constant": (np.stack([np.zeros((30, 2)), np.full((30, 2), 2.5), np.tile([1.0, -4.0], (30, 1))]), 5),
    "scale-1e150": (1e150 * _MIXED, 5),
    "scale-1e-150": (1e-150 * _MIXED, 5),
    "more-rows-than-columns": (_NORMAL[:, :12], 5),  # 8 columns
    "long-record": (np.random.default_rng(22).standard_normal((2, 20_000, 2)), 5),
    "standard-normal-d20": (np.random.default_rng(24).standard_normal((24, 60, 2)), 10),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.5])
@pytest.mark.parametrize("case", sorted(PE_CASES))
def test_pe_order_check_matches_svd_rule(case, tol):
    # the batched check gives each record the verdict it gets alone
    U, order = PE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = pe_order_check(U, order, tol)
        single = pe_order_check(U[-1], order, tol)
    assert verdicts.dtype == bool and verdicts.shape == U.shape[:1]
    assert np.array_equal(verdicts, svd_rule(U, order, tol))
    assert type(single) is bool and single == svd_rule(U[-1], order, tol)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    shape=hs.tuples(hs.integers(1, 8), hs.integers(1, 3), hs.integers(1, 6)),  # records, m, order
    extra=hs.integers(-3, 40),  # samples beyond the (m + 1) * order - 1 full rank needs
    defect=hs.sampled_from(["none", "repeat-channel", "zero-record", "near-repeat", "short-impulse"]),
    scale_exp=hs.integers(-150, 150),
    tol_exp=hs.floats(-14.0, -0.3),
)
def test_pe_order_check_matches_svd_rule_on_random_batches(seed, shape, extra, defect, scale_exp, tol_exp):
    B, m, order = shape
    N = max(order, (m + 1) * order - 1 + extra)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((B, N, m))
    hit = rng.random(B) < 0.5
    if defect == "repeat-channel" and m > 1:
        U[hit, :, -1] = rng.standard_normal() * U[hit, :, 0]
    elif defect == "near-repeat" and m > 1:
        U[hit, :, -1] = U[hit, :, 0] + 10.0 ** rng.uniform(-14, -4) * U[hit, :, -1]
    elif defect == "zero-record":
        U[hit] = 0.0
    elif defect == "short-impulse":
        U[hit] = 0.0
        U[hit, rng.integers(N)] = 1.0
    U *= 10.0**scale_exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = pe_order_check(U, order, 10.0**tol_exp)
    assert np.array_equal(verdicts, svd_rule(U, order, 10.0**tol_exp))
