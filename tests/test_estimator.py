import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import hankelnull.estimator as estimator
from conftest import assert_no_child_left, noiseless_M, part_counts, spy
from hankelnull import lti_sim
from hankelnull import (
    NOISE_FAMILIES,
    Candidate,
    FinalizedStats,
    MomentPoint,
    NoiseSpec,
    SubspaceBasis,
    add_noise,
    aggregate,
    assemble_M,
    generate_dataset,
    grid_search,
    random_system,
    subspace_angle,
    write_candidate_json,
    write_landscape_csv,
)

INPUT_ROWS = 4  # m*L for the demo system at L=2

# landscape.csv parts are formatted in forked processes on Linux only
FORKS = pytest.mark.skipif(sys.platform != "linux", reason="landscape parts fork on Linux only")


def _clean(demo_system, Nt, seed=1, N=30):
    rng = np.random.default_rng(seed)
    return generate_dataset(demo_system, Nt, N, 2, "random-bounded", rng)


def _noisy(demo_system, Nt, seed=1, N=30, m1=1.0, m2=5.0):
    rng = np.random.default_rng(seed)
    ds = generate_dataset(demo_system, Nt, N, 2, "random-bounded", rng)
    spec = NoiseSpec("gaussian", m1, m2)
    return add_noise(ds, spec, spec, rng)


def _reference_assembly(fin, pt, input_rows):
    # direct transcription of the entry formulas, scalar loops only
    d, Nc = fin.d, fin.Nc
    mu = np.array([pt.m1u] * input_rows + [pt.m1y] * (d - input_rows))
    nu = np.array([pt.m2u] * input_rows + [pt.m2y] * (d - input_rows))
    G, r = fin.Gbar, fin.rbar
    M = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                M[i, i] = G[i, i] - 2 * mu[i] * r[i] + Nc * (2 * mu[i] ** 2 - nu[i])
            else:
                M[i, j] = G[i, j] - mu[i] * r[j] - mu[j] * r[i] + Nc * mu[i] * mu[j]
    return M


def _point(row):
    # a grid row as a MomentPoint; a tied grid's row (m1, m2) ties both channels
    row = row.tolist()
    return MomentPoint(*row) if len(row) == 4 else MomentPoint.identical(*row)


def _assert_same_admission(res, sv, eps_factor, nullity=3, eps_rank=1e-2, threshold_rtol=1e-12):
    """Ranks, auto threshold, admitted set and best point as an SVD landscape sv gives them."""
    d = sv.shape[1]
    threshold = eps_factor * sv[:, d - nullity].min()
    assert abs(res.threshold - threshold) <= threshold_rtol * threshold
    assert np.array_equal(res.ranks, (sv > eps_rank * sv[:, :1]).sum(axis=1))
    admitted = (sv < threshold).sum(axis=1) == nullity
    assert np.array_equal(res.admitted, admitted)
    if admitted.any():
        j = np.flatnonzero(admitted)[np.argmin(sv[admitted, -1])]
        assert res.best.point == _point(res.points[j])
    else:
        assert res.best is None


def _non_admitted_sample(res, n=16) -> np.ndarray:
    # up to n non-admitted rows, spread evenly over the grid
    rows = np.flatnonzero(~res.admitted)
    return rows[:: max(1, -(-rows.size // n))]


def _check_per_point_svd_oracle(demo_system, monkeypatch, grid):
    # a small chunk makes the landscape cross chunk boundaries. Every grid
    # reads its landscape off eigenvalues and a shift, so each entry must
    # agree with a per-point assembly and SVD to 1e-10 relative, with the
    # same ranks, admission and best point. A point's base depends on the
    # point and the stats alone, so each admitted point and a sample of the
    # others, searched as a one-point grid at the same threshold, have the
    # same landscape row, bit for bit, and the same admission; an admitted
    # one comes with a basis within 1e-12 rad of the SVD's
    monkeypatch.setattr(estimator, "CHUNK_SIZE", 64)
    fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
    res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", eps_factor=5.0, input_rows=INPUT_ROWS)
    assert int(res.admitted.sum()) > 3 * 64
    Ms = [
        assemble_M(fin, _point(row), input_rows=INPUT_ROWS)
        for row in res.points
    ]
    sv = np.array([np.linalg.svd(M, compute_uv=False) for M in Ms])
    assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
    _assert_same_admission(res, sv, 5.0)

    def one_point(j):
        one = grid_search(
            fin, tuple([v] for v in res.points[j]), eps_sigma=res.threshold, nullity=3, input_rows=INPUT_ROWS
        )
        assert np.array_equal(one.singular_values[0], res.singular_values[j])
        assert one.ranks[0] == res.ranks[j] and one.admitted[0] == res.admitted[j]
        return one.best

    for j in _non_admitted_sample(res):
        assert one_point(j) is None
    for j in np.flatnonzero(res.admitted):
        cand = one_point(j)
        if cand.point == res.best.point:
            assert np.array_equal(cand.nullspace.basis, res.best.nullspace.basis)
        Vt = np.linalg.svd(Ms[j])[2]
        assert cand.point == _point(res.points[j])
        assert np.array_equal(cand.singular_values, res.singular_values[j])
        assert cand.sigma_min == res.singular_values[j, -1]
        assert subspace_angle(SubspaceBasis(Vt[7:]), cand.nullspace).theta_max <= 1e-12
        # row by row in the SVD's order, up to sign
        assert np.all(np.abs(np.sum(cand.nullspace.basis * Vt[7:], axis=1)) >= 1.0 - 1e-12)
    return res


class TestMomentPoint:
    def test_identical_ties_channels(self):
        pt = MomentPoint.identical(1.0, 5.0)
        assert (pt.m1u, pt.m2u, pt.m1y, pt.m2y) == (1.0, 5.0, 1.0, 5.0)


class TestSubspaceBasis:
    def test_accepts_orthonormal_rows(self):
        b = SubspaceBasis(np.eye(4)[:2])
        assert b.k == 2 and b.d == 4

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad):
        basis = np.eye(4)[:2]
        basis[1, 2] = bad
        with pytest.raises(ValueError, match="not orthonormal"):
            SubspaceBasis(basis)

    def test_empty_basis_allowed(self):
        assert SubspaceBasis(np.zeros((0, 4))).k == 0


class TestAssembly:
    def test_zero_moments_return_average_unchanged(self, demo_system):
        fin = aggregate(_noisy(demo_system, 20), 2).finalize()
        M = assemble_M(fin, MomentPoint.identical(0.0, 0.0))
        assert np.array_equal(M, fin.Gbar)

    def test_noiseless_zero_point_has_expected_nullity(self, demo_system):
        fin = aggregate(_clean(demo_system, 40), 2).finalize()
        res = grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-8, nullity=3)
        s = res.singular_values[0]
        assert int((s < 1e-10 * s[0]).sum()) == 3
        assert res.ranks[0] == 7

    def test_matches_scalar_loop_transcription(self, demo_system):
        fin = aggregate(_noisy(demo_system, 30, seed=4), 2).finalize()
        for pt in (
            MomentPoint.identical(1.0, 5.0),
            MomentPoint.identical(-0.3, 0.7),
            MomentPoint(0.5, 1.25, -0.2, 0.34),
        ):
            M = assemble_M(fin, pt, input_rows=INPUT_ROWS)
            ref = _reference_assembly(fin, pt, INPUT_ROWS)
            ref = (ref + ref.T) / 2.0
            assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_second_moment_only_shifts_diagonal(self, demo_system):
        fin = aggregate(_noisy(demo_system, 25, seed=5), 2).finalize()
        a = assemble_M(fin, MomentPoint.identical(0.8, 2.0))
        b = assemble_M(fin, MomentPoint.identical(0.8, 6.5))
        diff = a - b
        expected = fin.Nc * (6.5 - 2.0)
        off = diff - np.diag(np.diag(diff))
        assert np.abs(off).max() <= 1e-12 * np.abs(a).max()
        assert np.abs(np.diag(diff) - expected).max() <= 1e-12 * abs(expected)

    def test_tied_point_equals_explicit_split(self, demo_system):
        fin = aggregate(_noisy(demo_system, 20, seed=6), 2).finalize()
        tied = assemble_M(fin, MomentPoint.identical(1.0, 5.0))
        split = assemble_M(fin, MomentPoint(1.0, 5.0, 1.0, 5.0), input_rows=INPUT_ROWS)
        also = assemble_M(fin, MomentPoint.identical(1.0, 5.0), input_rows=INPUT_ROWS)
        assert np.array_equal(tied, split)
        assert np.array_equal(tied, also)

    def test_distinct_moments_require_input_rows(self, demo_system):
        fin = aggregate(_noisy(demo_system, 5, seed=7), 2).finalize()
        with pytest.raises(ValueError):
            assemble_M(fin, MomentPoint(0.5, 1.0, -0.2, 0.3))
        with pytest.raises(ValueError):
            assemble_M(fin, MomentPoint.identical(1.0, 5.0), input_rows=-1)
        with pytest.raises(ValueError):
            assemble_M(fin, MomentPoint.identical(1.0, 5.0), input_rows=11)

    def test_deterministic_offsets_cancel_exactly(self, demo_system):
        # constant-offset noise has m2 == m1**2 and zero variance, so the
        # correction at the true moments must reproduce the clean average
        rng = np.random.default_rng(11)
        ds = generate_dataset(demo_system, 50, 30, 2, "random-bounded", rng)
        mu_u, mu_y = 0.7, -0.3
        noisy = add_noise(
            ds,
            NoiseSpec("gaussian", mu_u, mu_u * mu_u),
            NoiseSpec("gaussian", mu_y, mu_y * mu_y),
            rng,
        )
        fin = aggregate(noisy, 2).finalize()
        pt = MomentPoint(mu_u, mu_u * mu_u, mu_y, mu_y * mu_y)
        M = assemble_M(fin, pt, input_rows=INPUT_ROWS)
        clean = noiseless_M(ds, 2)
        assert np.abs(M - clean).max() <= 1e-12 * np.abs(clean).max()

    def test_true_moments_restore_rank_deficiency(self, demo_system):
        rng = np.random.default_rng(3)
        ds = generate_dataset(demo_system, 3000, 30, 2, "random-bounded", rng)
        noisy = add_noise(
            ds,
            NoiseSpec("gaussian", 0.5, 1.25),
            NoiseSpec("uniform", -0.2, 0.34),
            rng,
        )
        fin = aggregate(noisy, 2).finalize()
        res = grid_search(fin, ([0.5], [1.25], [-0.2], [0.34]), eps_sigma=1e-3, nullity=3, input_rows=INPUT_ROWS)
        s = res.singular_values[0]
        assert res.ranks[0] == 7
        assert s[6] / s[7] > 10.0


class TestQuadraticForm:
    def test_average_gram_matches_per_experiment_energy(self, demo_system):
        ds = _clean(demo_system, 30, seed=12)
        fin = aggregate(ds, 2).finalize()
        rng = np.random.default_rng(13)
        from hankelnull import stacked_hankel

        for _ in range(5):
            v = rng.standard_normal(10)
            lhs = float(v @ fin.Gbar @ v)
            rhs = float(
                np.mean([np.sum((stacked_hankel(u, y, 2).T @ v) ** 2) for u, y in zip(ds.U, ds.Y)])
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestNumericalRank:
    @staticmethod
    def _rank(G, eps_rank=1e-2):
        # at the zero-moment point the assembled matrix is Gbar itself
        d = G.shape[0]
        fin = FinalizedStats(np.asarray(G, dtype=float), np.zeros(d), d, 1, 1)
        return grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-3, nullity=1, eps_rank=eps_rank).ranks[0]

    def test_identity_full_rank(self):
        assert self._rank(np.eye(10)) == 10

    def test_zero_matrix(self):
        assert self._rank(np.zeros((6, 6))) == 0

    def test_threshold_is_relative(self):
        M = np.diag([1.0, 0.5, 1e-5])
        assert self._rank(M, eps_rank=1e-2) == 2
        assert self._rank(M, eps_rank=1e-7) == 3


class TestGridSearch:
    def test_noiseless_grid_admits_only_zero_point(self, demo_system):
        fin = aggregate(_clean(demo_system, 40, seed=15), 2).finalize()
        grid = (np.array([-0.5, 0.0, 0.5]), np.array([0.0, 1.0]))
        res = grid_search(fin, grid, eps_sigma=1e-8, nullity=3)
        assert res.points.shape == (6, 2)
        assert int(res.admitted.sum()) == 1
        assert res.best is not None
        assert (res.best.point.m1u, res.best.point.m2u) == (0.0, 0.0)
        assert res.best.nullspace.k == 3
        assert res.ranks[np.flatnonzero(res.admitted)[0]] == 7

    def test_points_enumerate_in_row_major_axis_order(self, demo_system):
        fin = aggregate(_clean(demo_system, 5, seed=16), 2).finalize()
        res = grid_search(fin, ([1.0, 2.0], [10.0, 20.0]), eps_sigma=1e-8, nullity=3)
        assert np.array_equal(
            res.points, [[1.0, 10.0], [1.0, 20.0], [2.0, 10.0], [2.0, 20.0]]
        )

    def test_far_grid_admits_nothing(self, demo_system):
        fin = aggregate(_noisy(demo_system, 60, seed=17), 2).finalize()
        res = grid_search(
            fin,
            (np.linspace(10.0, 11.0, 3), np.linspace(100.0, 130.0, 3)),
            eps_sigma=1e-3,
            nullity=3,
        )
        assert res.best is None
        assert not res.admitted.any()
        assert res.singular_values.shape == (9, 10)
        assert (res.sigma_min > 1e-3).all()

    def test_tie_breaks_to_first_grid_point(self, demo_system):
        # with no input rows the input moments enter no entry, so both points
        # assemble the same matrix and tie; the first in grid order wins
        fin = aggregate(_clean(demo_system, 20, seed=18), 2).finalize()
        res = grid_search(fin, ([0.5, 0.0], [0.0], [0.0], [0.0]), eps_sigma=1e-8, nullity=3, input_rows=0)
        assert res.admitted.all()
        assert np.array_equal(res.singular_values[0], res.singular_values[1])
        assert res.best.coords == {"m1u": 0.5, "m2u": 0.0, "m1y": 0.0, "m2y": 0.0}
        assert np.array_equal(res.best.singular_values, res.singular_values[0])

    @pytest.mark.parametrize("split", [False, True])
    def test_best_point_is_its_landscape_row(self, demo_system, split):
        # the candidate's coordinates, point and sigma_min are those of the
        # first admitted landscape row with the smallest sigma_min
        fin = aggregate(_noisy(demo_system, 200, seed=20), 2).finalize()
        m1, m2 = np.linspace(0.5, 1.5, 5), np.linspace(3.0, 7.0, 5)
        grid = (m1, m2, m1, m2) if split else (m1, m2)
        res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", input_rows=4)
        picked = np.flatnonzero(res.admitted)
        j = int(picked[np.argmin(res.sigma_min[picked])])
        row = res.points[j].tolist()
        best = res.best
        assert list(best.coords) == (["m1u", "m2u", "m1y", "m2y"] if split else ["m1", "m2"])
        assert list(best.coords.values()) == row
        assert all(v in a for v, a in zip(row, res.axes))
        assert best.point == (MomentPoint(*row) if split else MomentPoint.identical(*row))
        assert best.sigma_min == res.sigma_min[j] and type(best.sigma_min) is float
        assert np.array_equal(best.singular_values, res.singular_values[j])

    def test_auto_threshold_tracks_grid_floor(self, demo_system):
        fin = aggregate(_noisy(demo_system, 80, seed=19), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 5), np.linspace(3.0, 7.0, 5))
        res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", eps_factor=2.0)
        floor = res.singular_values[:, 10 - 3].min()
        assert res.threshold == 2.0 * floor
        counts = (res.singular_values < res.threshold).sum(axis=1)
        assert np.array_equal(res.admitted, counts == 3)
        assert res.admitted.any()
        j = np.flatnonzero(res.admitted)[np.argmin(res.sigma_min[res.admitted])]
        assert res.best.point == _point(res.points[j])
        assert np.array_equal(res.best.singular_values, res.singular_values[j])

    def test_auto_threshold_that_overflows_is_refused(self, demo_system):
        # a finite eps_factor whose product with the grid's floor is not
        fin = aggregate(_noisy(demo_system, 80, seed=19), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 5), np.linspace(3.0, 7.0, 5))
        floor = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto").singular_values[:, 10 - 3].min()
        assert floor > 1.0
        with pytest.raises(ValueError, match=r"eps_factor=1e\+308 times the grid's noise floor .* overflows"):
            grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", eps_factor=1e308)

    def test_separate_channel_axes_pick_true_combination(self, demo_system):
        rng = np.random.default_rng(21)
        ds = generate_dataset(demo_system, 40, 30, 2, "random-bounded", rng)
        mu_u, mu_y = 0.7, -0.3
        noisy = add_noise(
            ds,
            NoiseSpec("gaussian", mu_u, mu_u * mu_u),
            NoiseSpec("gaussian", mu_y, mu_y * mu_y),
            rng,
        )
        fin = aggregate(noisy, 2).finalize()
        grid = (
            np.array([0.0, mu_u]),
            np.array([mu_u * mu_u]),
            np.array([mu_y, 0.0]),
            np.array([mu_y * mu_y]),
        )
        res = grid_search(fin, grid, eps_sigma=1e-8, nullity=3, input_rows=INPUT_ROWS)
        assert res.points.shape == (4, 4)
        assert int(res.admitted.sum()) == 1
        assert res.best.coords == {"m1u": mu_u, "m2u": mu_u * mu_u, "m1y": mu_y, "m2y": mu_y * mu_y}

    def test_chunking_does_not_change_results(self, demo_system, monkeypatch):
        fin = aggregate(_noisy(demo_system, 30, seed=22), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 4), np.linspace(3.0, 7.0, 4))
        whole = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto")
        monkeypatch.setattr(estimator, "CHUNK_SIZE", 1)
        tiny = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto")
        assert int(whole.admitted.sum()) >= 2
        assert np.array_equal(whole.singular_values, tiny.singular_values)
        assert np.array_equal(whole.admitted, tiny.admitted)
        a, b = whole.best, tiny.best
        assert a.point == b.point and a.sigma_min == b.sigma_min
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.nullspace.basis, b.nullspace.basis)

    @pytest.mark.parametrize("distinct", [False, True])
    def test_matches_per_point_svd_oracle(self, demo_system, monkeypatch, distinct):
        m1, m2 = np.linspace(0.0, 1.5, 12), np.linspace(2.5, 7.0, 12)
        grid = (m1, m2, m1[::2], m2[::2]) if distinct else (np.linspace(0.0, 1.5, 30), np.linspace(2.5, 7.0, 30))
        _check_per_point_svd_oracle(demo_system, monkeypatch, grid)

    def test_uneven_split_grid_matches_per_point_svd_oracle(self, demo_system, monkeypatch):
        # second-moment axes of different length and spacing that share some
        # values (points with m2u == m2y) and some differences, and a
        # one-point axis: one eigvalsh per (m1u, delta, m1y) base, delta the
        # difference m2u - m2y snapped to the quantum, so that differences
        # which agree to rounding share a base
        m1, m2 = np.linspace(0.0, 1.5, 12), np.linspace(2.5, 7.0, 12)
        m2y = np.concatenate([m2[::2], [4.0, 5.2]])
        grid = (m1, m2, np.array([1.0]), m2y)
        sizes = TestSnappedDifferences._counted(monkeypatch)
        res = _check_per_point_svd_oracle(demo_system, monkeypatch, grid)
        assert (res.points[:, 1] == res.points[:, 3]).any()
        fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
        snapped = np.unique(np.trunc((m2[:, None] - m2y) / _quantum(fin))).size
        assert snapped < np.unique(m2[:, None] - m2y).size < m2.size * m2y.size
        # the full grid's chunks and nothing else, then one matrix per
        # one-point grid
        n_one = int(res.admitted.sum()) + _non_admitted_sample(res).size
        chunks = -(-m1.size * snapped // (estimator.CHUNK_SIZE // 10))
        assert len(sizes) == chunks + n_one
        assert sum(sizes[:chunks]) == m1.size * snapped
        assert sizes[chunks:] == [1] * n_one

    def test_admission_rejects_more_than_nullity_below(self, demo_system):
        # the noiseless zero point has three singular values near zero: a
        # nullity-2 search must not admit it, though its 2nd smallest is below
        fin = aggregate(_clean(demo_system, 40, seed=15), 2).finalize()
        res = grid_search(fin, ([0.0, 0.5], [0.0]), eps_sigma=1e-8, nullity=2)
        counts = (res.singular_values < 1e-8).sum(axis=1)
        assert counts[0] == 3 and res.singular_values[0, 8] < 1e-8
        assert np.array_equal(res.admitted, counts == 2)
        assert not res.admitted.any() and res.best is None

    def test_invalid_arguments(self, demo_system):
        fin = aggregate(_clean(demo_system, 5, seed=23), 2).finalize()
        with pytest.raises(ValueError):
            grid_search(fin, ([0.0], [0.0], [0.0]), eps_sigma=1e-3, nullity=3)
        with pytest.raises(ValueError):
            grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-3, nullity=0)
        with pytest.raises(ValueError):
            grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-3, nullity=10)
        with pytest.raises(ValueError):
            grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-3, nullity=3, eps_mode="magic")
        with pytest.raises(ValueError, match="eps_mode"):
            grid_search(fin, ([0.0], [0.0]), eps_sigma=1e-3, nullity=3, eps_mode="rel")
        with pytest.raises(ValueError, match="input_rows is required for a 4-axis grid"):
            grid_search(fin, ([0.0], [0.0], [0.0], [0.0]), eps_sigma=1e-3, nullity=3)
        for bad in (-1, 11):
            with pytest.raises(ValueError, match=f"input_rows={bad} out of range for d=10"):
                grid_search(fin, ([0.0], [0.0], [0.0], [0.0]), eps_sigma=1e-3, nullity=3, input_rows=bad)
        with pytest.raises(ValueError):
            grid_search(fin, ([], [0.0]), eps_sigma=1e-3, nullity=3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="grid axis 1 has non-finite values"):
                grid_search(fin, ([0.0], [0.0, bad]), eps_sigma=1e-3, nullity=3)
        # each threshold argument is checked in either mode, though only one
        # mode reads it
        for name in ("eps_sigma", "eps_factor", "eps_rank"):
            for bad in (np.nan, np.inf, 0.0, -1.0, -2.0):
                for mode in estimator.EPS_MODES:
                    kw = {"eps_sigma": 1e-3, "nullity": 3, "eps_mode": mode, name: bad}
                    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                        grid_search(fin, ([0.0], [0.0]), **kw)

    def test_moments_that_overflow_are_refused_naming_the_axis(self, demo_system):
        # Nc = 29 and d = 10: an axis may take Nc*m2, or 2*Nc*m1**2, up to
        # the largest double over 8*d
        fin = aggregate(_clean(demo_system, 5, seed=23), 2).finalize()
        limit = np.finfo(float).max / 80
        m1, m2 = np.sqrt(limit / (2 * fin.Nc)), limit / fin.Nc
        cases = [
            (([0.0], [0.0, 1e307]), "m2"),  # Nc*m2 = 2.9e308
            (([0.0, 1e160], [0.0]), "m1"),
            (([0.0], [0.0], [0.0], [-1e308]), "m2y"),
            (([0.0], [1e308], [0.0], [-1e308]), "m2u"),  # the first in axis order
            (([0.0], [0.0, np.nextafter(m2, np.inf)]), "m2"),
            (([0.0, np.nextafter(m1, np.inf)], [0.0]), "m1"),
        ]
        for grid, name in cases:
            with pytest.raises(ValueError, match=f"grid axis '{name}' reaches .* overflows"):
                grid_search(fin, grid, eps_sigma=1e-3, nullity=3, input_rows=INPUT_ROWS)
        # the largest moments let through give a finite landscape, with no
        # overflow on the way
        with np.errstate(all="raise"):
            for grid in [([-m1, m1], [-m2, m2]), ([-m1, m1], [-m2, m2], [m1, -m1], [m2, -m2])]:
                res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, input_rows=INPUT_ROWS)
                assert np.isfinite(res.singular_values).all()


def _svd_landscape(fin, points, input_rows=None):
    # per-point assembly and SVD: the oracle for the eigenvalue landscape
    return np.array([
        np.linalg.svd(assemble_M(fin, _point(row), input_rows), compute_uv=False)
        for row in points
    ])


class TestSpectralShift:
    def test_exact_crossing_goes_through_the_guard(self, demo_system):
        # with Nc*m2 on an eigenvalue of M(m1, 0) the shift cancels every
        # digit of sigma_min, so that row must be the SVD's, bitwise
        fin = aggregate(_noisy(demo_system, 200, seed=26), 2).finalize()
        m1 = 1.0
        lam = np.linalg.eigvalsh(assemble_M(fin, MomentPoint.identical(m1, 0.0)))
        grid = ([m1], [2.0, lam[4] / fin.Nc, 9.0])
        res = grid_search(fin, grid, eps_sigma=1e-6, nullity=1)
        sv = _svd_landscape(fin, res.points)
        assert sv[1, -1] < 1e-9 * sv[1, 0]
        assert np.array_equal(res.singular_values[1], sv[1])
        assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
        assert np.array_equal(res.admitted, (sv < 1e-6).sum(axis=1) == 1)
        assert res.admitted[1] and res.best.point == MomentPoint.identical(m1, lam[4] / fin.Nc)
        Vt = np.linalg.svd(assemble_M(fin, res.best.point))[2]
        assert subspace_angle(SubspaceBasis(Vt[-1:]), res.best.nullspace).theta_max <= 1e-12

    def test_split_grid_zero_point_goes_through_the_guard(self, demo_system):
        # at shift 0 a 4-axis row is |lambda|; on noiseless data the zero
        # point's three smallest cancel to rounding level, so the guard must
        # hand that row to the SVD, bitwise
        fin = aggregate(_clean(demo_system, 40, seed=15), 2).finalize()
        grid = ([-0.5, 0.0], [0.0, 0.5], [0.0, 0.3], [0.0])
        res = grid_search(fin, grid, eps_sigma=1e-8, nullity=3, input_rows=INPUT_ROWS)
        sv = _svd_landscape(fin, res.points, INPUT_ROWS)
        zero = np.flatnonzero((res.points == 0.0).all(axis=1))[0]
        assert sv[zero, -3] < 1e-12 * sv[zero, 0]
        assert np.array_equal(res.singular_values[zero], sv[zero])
        assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
        assert np.array_equal(res.admitted, (sv < 1e-8).sum(axis=1) == 3)
        assert res.best.coords == {"m1u": 0.0, "m2u": 0.0, "m1y": 0.0, "m2y": 0.0}
        Vt = np.linalg.svd(assemble_M(fin, res.best.point, INPUT_ROWS))[2]
        assert subspace_angle(SubspaceBasis(Vt[-3:]), res.best.nullspace).theta_max <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=hs.integers(0, 2**32 - 1),
        n=hs.integers(1, 3),
        m=hs.integers(1, 2),
        p=hs.integers(1, 2),
        m1=hs.floats(-1.0, 1.0),
        var=hs.floats(0.05, 2.0),
        m1y=hs.floats(-1.0, 1.0),
        var_y=hs.floats(0.05, 2.0),
        family=hs.sampled_from(NOISE_FAMILIES),
    )
    def test_agrees_with_per_point_svd_on_random_systems(self, seed, n, m, p, m1, var, m1y, var_y, family):
        rng = np.random.default_rng(seed)
        ss = random_system(n, m, p, rng)
        L = n + 1  # nullity p*L - n >= 1
        nullity = p * L - n
        clean = generate_dataset(ss, 40, 20, L, "random-bounded", rng)
        spec = NoiseSpec(family, m1, m1 * m1 + var)
        spec_y = NoiseSpec(family, m1y, m1y * m1y + var_y)
        m2_axis = np.linspace(m1 * m1 + 0.5 * var, m1 * m1 + 1.5 * var, 6)
        # uneven, with one value of the m2u axis: the split grid's two m2
        # axes differ in spacing and share some points with m2u == m2y
        m2y_axis = np.array([m1y * m1y + 0.5 * var_y, m2_axis[2], m1y * m1y + 0.8 * var_y, m1y * m1y + 1.5 * var_y])
        noiseless = aggregate(clean, L).finalize()
        # (stats, grid, noiseless): tied and split channel moments; on
        # noiseless data the zero point is an exact crossing of nullity
        # eigenvalues
        cases = (
            (aggregate(add_noise(clean, spec, spec, rng), L).finalize(),
             (np.linspace(m1 - 0.5, m1 + 0.5, 7), m2_axis), False),
            (aggregate(add_noise(clean, spec, spec_y, rng), L).finalize(),
             (np.linspace(m1 - 0.5, m1 + 0.5, 3), m2_axis[::2], np.linspace(m1y - 0.5, m1y + 0.5, 3), m2y_axis),
             False),
            (noiseless, (np.array([-0.5, 0.0, 0.5]), np.array([0.0, 0.5, 1.0])), True),
            (noiseless, ([-0.5, 0.0, 0.5], [0.0, 0.5], [0.0, 0.5], [0.0, 1.0]), True),
        )
        for fin, grid, exact in cases:
            res = grid_search(
                fin, grid, eps_sigma=1e-3, nullity=nullity, eps_mode="auto", eps_factor=2.0, input_rows=m * L
            )
            sv = _svd_landscape(fin, res.points, m * L)
            assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
            # the threshold is twice a landscape entry, so it agrees as they do
            _assert_same_admission(res, sv, 2.0, nullity, threshold_rtol=1e-10)
            if exact:
                assert res.best.point == MomentPoint.identical(0.0, 0.0)


def _per_row_landscape(res) -> bytes:
    # one f-string per row: the oracle for the block writer's bytes
    cols = ("m1", "m2") if res.points.shape[1] == 2 else ("m1u", "m2u", "m1y", "m2y")
    lines = [",".join(cols) + ",sigma_min,numerical_rank,admitted\n"]
    for j in range(res.points.shape[0]):
        coords = ",".join(f"{v:.17g}" for v in res.points[j])
        lines.append(f"{coords},{res.sigma_min[j]:.17g},{res.ranks[j]},{int(res.admitted[j])}\n")
    return "".join(lines).encode()


def _one_pass_assembly(fin, points, input_rows):
    # the whole matrix at once, diagonal correction before symmetrizing: the
    # oracle for the per-pair core plus per-row diagonal
    inputs = np.arange(fin.d) < input_rows
    mu = np.where(inputs, points[:, 0:1], points[:, 2:3])
    nu = np.where(inputs, points[:, 1:2], points[:, 3:4])
    mu_c, mu_r = mu[:, :, None], mu[:, None, :]
    M = fin.Gbar - mu_c * fin.rbar - fin.rbar[:, None] * mu_r + fin.Nc * (mu_c * mu_r)
    idx = np.arange(fin.d)
    M[:, idx, idx] += fin.Nc * (mu * mu - nu)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


class TestPairCore:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        seed=hs.integers(0, 2**32 - 1),
        d=hs.integers(1, 8),
        Nc=hs.integers(1, 60),
        n=hs.integers(1, 12),
        data=hs.data(),
    )
    def test_core_plus_diagonal_is_the_one_pass_assembly(self, seed, d, Nc, n, data):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3, 3)
        fin = FinalizedStats(Gbar=G @ G.T, rbar=rng.standard_normal(d), d=d, Nc=Nc, count=1)
        input_rows = data.draw(hs.integers(0, d))
        # a few first-moment values, so that several points share a pair
        m1 = rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 2)
        points = np.column_stack([rng.choice(m1, n), rng.standard_normal(n), rng.choice(m1, n), rng.standard_normal(n)])
        want = _one_pass_assembly(fin, points, input_rows)
        assert np.array_equal(estimator._assemble(fin, points, input_rows), want)
        # as the search does it: one core per distinct pair, gathered per point
        pairs, pair_of = np.unique(points[:, 0::2], axis=0, return_inverse=True)
        core = estimator._core(fin, pairs, input_rows)[pair_of.reshape(-1)]
        assert np.array_equal(estimator._assemble(fin, points, input_rows, core), want)


def _quantum(fin) -> float:
    # the power of two above GUARD_ULPS*eps*max|Gbar|/Nc, or the smallest
    # subnormal when that is zero, by its definition
    scale = estimator.GUARD_ULPS * np.finfo(float).eps * np.abs(fin.Gbar).max() / fin.Nc
    if scale == 0.0:
        return 2.0**-1074
    q = 2.0 ** np.ceil(np.log2(scale))
    return 2.0 * q if q == scale else q


class TestSnappedDifferences:
    """Split-grid bases at second-moment differences snapped to a quantum."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        # the batch size of every eigvalsh call, in call order
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            sizes.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return sizes

    @pytest.mark.parametrize("scale", [0.0, 2.0**-1074, 1e-300, 1e-20, 1.0, 220.0, 1e20, 1e300, 1.7e308])
    def test_snap_is_exact_and_never_overflows(self, scale):
        # differences from subnormal to the largest finite, against quanta
        # from the smallest subnormal to near the largest finite: each is cut
        # toward zero to a multiple of the quantum, by less than one quantum,
        # with no overflow or invalid operation on the way
        fin = FinalizedStats(Gbar=np.full((2, 2), scale), rbar=np.zeros(2), d=2, Nc=29, count=1)
        mag = np.array([0.0, 5e-324, 1e-310, 1e-200, 1e-15, 0.3, 1.0, 5.0, 1e15, 1e200, 1.7e308, np.finfo(float).max])
        diff = np.concatenate([mag, -mag, [0.1 + 0.2 - 0.3]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            snapped = estimator._snap(fin, diff)
        q = _quantum(fin)
        assert np.all(np.isfinite(snapped))
        assert np.all(np.abs(snapped) <= np.abs(diff)) and np.all(np.sign(snapped) * np.sign(diff) >= 0)
        assert np.all(np.abs(diff - snapped) < q)
        assert np.all(np.fmod(snapped, q) == 0.0)

    def test_point_off_its_snapped_difference_goes_through_the_guard(self, demo_system, monkeypatch):
        # on noiseless data the zero point's three smallest values cancel to
        # rounding level. The point (0, x, 0, 0), x below one quantum, shares
        # the zero point's base (delta 0) and its shift 0, but its own three
        # smallest values differ from that base's by more than 1e-10 of
        # themselves: the guard must hand its row to the SVD, bitwise
        fin = aggregate(_clean(demo_system, 40, seed=15), 2).finalize()
        x = _quantum(fin) / 3
        assert estimator._snap(fin, np.array([x]))[0] == 0.0
        sizes = self._counted(monkeypatch)
        res = grid_search(fin, ([0.0], [0.0, x], [0.0], [0.0]), eps_sigma=1e-8, nullity=3, input_rows=INPUT_ROWS)
        assert sizes == [1]
        sv = _svd_landscape(fin, res.points, INPUT_ROWS)
        base = np.sort(np.abs(np.linalg.eigvalsh(assemble_M(fin, MomentPoint(0.0, 0.0, 0.0, 0.0), INPUT_ROWS))))[::-1]
        assert np.any(np.abs(base - sv[1]) > 1e-10 * sv[1])
        assert np.array_equal(res.singular_values, sv)

    def test_distance_to_the_base_is_charged_to_the_guard(self, demo_system, monkeypatch):
        # with differences snapped to 2**-20, far coarser than the quantum, a
        # row read off its base is off by up to Nc*2**-20, far more than 1e-10
        # of its smallest value and than its rounding bound. The distance
        # Nc*|m2u - m2y - delta| charged to the guard sends those rows to the
        # SVD, so every entry still agrees with it to 1e-10
        fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
        step = 2.0**-20
        monkeypatch.setattr(estimator, "_snap", lambda st, diff: np.trunc(diff / step) * step)
        m1, m2 = np.linspace(0.0, 1.5, 4), np.linspace(2.5, 7.0, 6)
        res = grid_search(fin, (m1, m2, m1, m2), eps_sigma=1e-3, nullity=3, input_rows=INPUT_ROWS)
        sv = _svd_landscape(fin, res.points, INPUT_ROWS)
        assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
        # read off the bases alone, the rows would not agree
        pt = res.points
        bases = np.column_stack([pt[:, 0], np.trunc((pt[:, 1] - pt[:, 3]) / step) * step, pt[:, 2], np.zeros(len(pt))])
        lam = np.linalg.eigvalsh(estimator._assemble(fin, bases, INPUT_ROWS))
        read = np.sort(np.abs(lam - fin.Nc * pt[:, 3:]), axis=1)[:, ::-1]
        assert np.any(np.abs(read - sv) > 1e-6 * sv)

    def test_long_run_of_differences_is_charged_to_the_guard(self, demo_system, monkeypatch):
        # 2,000 values of m2u 16 ulps apart, a run 2.8e-11 wide, are cut at
        # the multiples of the quantum: two values a base, 1,000 bases in
        # chunks and no other eigvalsh. A row read off its base is off by
        # less than Nc times one quantum, charged to the guard, so every
        # entry agrees with the SVD to 1e-10
        fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
        m2u = 5.0 + 16 * np.spacing(5.0) * np.arange(2000)
        q = _quantum(fin)
        assert 16 * np.spacing(5.0) == q / 2
        sizes = self._counted(monkeypatch)
        res = grid_search(fin, ([1.0], m2u, [1.0], [5.0]), eps_sigma=1e-3, nullity=3, input_rows=INPUT_ROWS)
        per_chunk = estimator.CHUNK_SIZE // fin.d
        assert np.unique(np.trunc((m2u - 5.0) / q)).size == 1000
        assert sizes == [per_chunk] * (1000 // per_chunk) + [1000 % per_chunk]
        sv = _svd_landscape(fin, res.points, INPUT_ROWS)
        assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)

    def test_reference_sized_split_grid_runs_on_15600_bases_in_process(self, demo_system, monkeypatch):
        # a 20^4 grid over the reference ranges: the m2u - m2y differences of
        # two 20-point axes take 121 exact values, 39 once snapped, so the
        # search assembles 20 x 39 x 20 bases, in this process at any CPU
        # count, and no eigvalsh follows their batches
        monkeypatch.setattr(lti_sim, "_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
        m1, m2 = np.linspace(0.0, 1.5, 20), np.linspace(2.5, 7.0, 20)
        assert np.unique(m2[:, None] - m2).size == 121
        fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
        assert np.unique(np.trunc((m2[:, None] - m2) / _quantum(fin))).size == 39
        sizes = self._counted(monkeypatch)
        res = grid_search(fin, (m1, m2, m1, m2), eps_sigma=1e-3, nullity=3, eps_mode="auto", input_rows=INPUT_ROWS)
        per_chunk = estimator.CHUNK_SIZE // fin.d
        chunks = -(-15_600 // per_chunk)
        assert sizes == [per_chunk] * (chunks - 1) + [15_600 - per_chunk * (chunks - 1)]
        assert res.admitted.any()

    @pytest.mark.parametrize("kind", ["zero", "up", "down"])
    def test_degenerate_and_extreme_stats_agree_with_per_point_svd(self, demo_system, kind):
        # stats whose Gbar is all zeros, and the same stats in units 2**300
        # larger or smaller (Gbar scaled by 2**600 or 2**-600, the grid's
        # moments with it): a 4-axis grid still reads every landscape entry
        # to 1e-10 of the per-point SVD
        fin = aggregate(_noisy(demo_system, 200, seed=25), 2).finalize()
        m1, m2 = np.linspace(0.0, 1.5, 4), np.linspace(2.5, 7.0, 5)
        grid = [m1, m2, m1[::2], np.append(m2[::2], 0.0)]
        if kind == "zero":
            fin = FinalizedStats(Gbar=np.zeros_like(fin.Gbar), rbar=fin.rbar, d=fin.d, Nc=fin.Nc, count=fin.count)
        else:
            u = 2.0 ** (300 if kind == "up" else -300)
            fin = FinalizedStats(Gbar=fin.Gbar * u * u, rbar=fin.rbar * u, d=fin.d, Nc=fin.Nc, count=fin.count)
            grid = [a * (u if k % 2 == 0 else u * u) for k, a in enumerate(grid)]
        res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", input_rows=INPUT_ROWS)
        sv = _svd_landscape(fin, res.points, INPUT_ROWS)
        assert np.all(np.abs(res.singular_values - sv) <= 1e-10 * sv)
        _assert_same_admission(res, sv, 2.0, threshold_rtol=1e-10)


class TestWriters:
    def _tiny_result(self, demo_system):
        fin = aggregate(_clean(demo_system, 10, seed=24), 2).finalize()
        return grid_search(fin, ([-0.5, 0.0], [0.0, 1.0]), eps_sigma=1e-8, nullity=3)

    def test_landscape_csv_roundtrip(self, tmp_path, demo_system):
        res = self._tiny_result(demo_system)
        path = tmp_path / "landscape.csv"
        write_landscape_csv(res, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "m1,m2,sigma_min,numerical_rank,admitted"
        assert len(lines) == 1 + res.points.shape[0]
        row = lines[2].split(",")
        j = 1  # third line is flat index 1 -> point (-0.5, 1.0)
        assert float(row[0]) == res.points[j, 0] and float(row[1]) == res.points[j, 1]
        assert float(row[2]) == res.sigma_min[j]
        assert int(row[3]) == res.ranks[j]
        assert int(row[4]) == int(res.admitted[j])

    @staticmethod
    def _parts(monkeypatch, parts):
        # parts CPUs and no value cutoff: one part per CPU, up to one per row
        monkeypatch.setattr(lti_sim, "_cpus", lambda: parts)
        monkeypatch.setattr(lti_sim, "FORK_MIN_VALUES", 1)

    @pytest.mark.parametrize("distinct, parts", [
        # the one-part cases keep their ids from before parts were added
        pytest.param(distinct, parts, id=f"{distinct}" + (f"-{parts}" if parts > 1 else ""), marks=[FORKS] if parts > 1 else [])
        for parts in (1, 2, 3)
        for distinct in (False, True)
    ])
    def test_landscape_csv_matches_per_row_writer(self, tmp_path, demo_system, monkeypatch, distinct, parts):
        fin = aggregate(_noisy(demo_system, 50, seed=27), 2).finalize()
        # uneven axes, and a one-point axis on the split grid
        m1, m2 = np.array([-0.0, 0.25, 1.0, 1.3]), np.array([2.5, 3.0, 4.75, 5.2, 7.0])
        grid = (m1, m2, m1[2:3], np.linspace(2.5, 7.0, 5)) if distinct else (m1, m2)
        res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", eps_factor=5.0, input_rows=INPUT_ROWS)
        assert 0 < res.admitted.sum() < res.points.shape[0]
        # neither 7 nor 3 divides the row count, so a part ends inside a
        # block and the last block is partial
        monkeypatch.setattr(estimator, "CHUNK_SIZE", 7)
        assert res.points.shape[0] % 7 != 0 and res.points.shape[0] % 3 != 0
        self._parts(monkeypatch, parts)
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        path = tmp_path / "landscape.csv"
        write_landscape_csv(res, path)
        assert part_counts(calls) == [parts]
        assert path.read_bytes() == _per_row_landscape(res)

    def test_one_row_landscape_is_one_part(self, tmp_path, demo_system, monkeypatch):
        fin = aggregate(_noisy(demo_system, 50, seed=27), 2).finalize()
        res = grid_search(fin, ([1.0], [5.0]), eps_sigma=1e-3, nullity=3)
        self._parts(monkeypatch, 2)
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        path = tmp_path / "landscape.csv"
        write_landscape_csv(res, path)
        assert part_counts(calls) == [1]
        assert path.read_bytes() == _per_row_landscape(res)

    @FORKS
    def test_failure_in_a_child_part_is_raised_here(self, tmp_path, demo_system, monkeypatch):
        # a part whose child fails runs again here: a failure it repeats is
        # raised as itself, one it does not names the part
        res = self._tiny_result(demo_system)
        parent, rows = os.getpid(), estimator._landscape_rows

        def fails_in_a_child(*args):
            if os.getpid() != parent:
                raise OSError("formatting failed in a child")
            return rows(*args)

        def fails_past_the_first_part(result, lo, hi, fh):
            if lo:
                raise OSError(f"formatting failed from row {lo}")
            return rows(result, lo, hi, fh)

        self._parts(monkeypatch, 2)
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(estimator, "_landscape_rows", fails_in_a_child)
        with pytest.raises(ChildProcessError, match="part 1 of 2: its forked process exited with code 1"):
            write_landscape_csv(res, tmp_path / "landscape.csv")
        monkeypatch.setattr(estimator, "_landscape_rows", fails_past_the_first_part)
        with pytest.raises(OSError, match="formatting failed from row 2"):
            write_landscape_csv(res, tmp_path / "landscape.csv")
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds  # every memory file is closed

    def test_landscape_csv_is_byte_deterministic(self, tmp_path, demo_system):
        res = self._tiny_result(demo_system)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_landscape_csv(res, a)
        write_landscape_csv(res, b)
        assert a.read_bytes() == b.read_bytes()

    def test_candidate_json_roundtrip(self, tmp_path, demo_system):
        res = self._tiny_result(demo_system)
        path = tmp_path / "candidate.json"
        write_candidate_json(res.best, path)
        obj = json.loads(path.read_text())
        assert obj["m1"] == res.best.point.m1u
        assert obj["m2"] == res.best.point.m2u
        assert obj["sigma_min"] == res.best.sigma_min
        V = np.array(obj["nullspace"])
        assert V.shape == (3, 10)
        assert np.array_equal(V, res.best.nullspace.basis)

    def test_candidate_json_keeps_channel_split(self, tmp_path, demo_system):
        cand = Candidate(
            coords={"m1u": 0.5, "m2u": 1.0, "m1y": -0.2, "m2y": 0.3},
            nullspace=SubspaceBasis(np.eye(10)[:3]),
            singular_values=np.linspace(10.0, 0.125, 10),
        )
        assert cand.point == MomentPoint(0.5, 1.0, -0.2, 0.3) and cand.sigma_min == 0.125
        path = tmp_path / "candidate.json"
        write_candidate_json(cand, path)
        obj = json.loads(path.read_text())
        assert obj["m1u"] == 0.5 and obj["m2y"] == 0.3
        assert "m1" not in obj
