import json

import numpy as np
import pytest

from hankelnull import (
    Candidate,
    MomentPoint,
    NoiseSpec,
    SubspaceBasis,
    add_noise,
    aggregate,
    assemble_M,
    generate_dataset,
    grid_search,
    noiseless_M,
    numerical_rank,
    svd_spectrum,
    write_candidate_json,
    write_landscape_csv,
)

INPUT_ROWS = 4  # m*L for the demo system at L=2


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


class TestMomentPoint:
    def test_identical_ties_channels(self):
        pt = MomentPoint.identical(1.0, 5.0)
        assert (pt.m1u, pt.m2u, pt.m1y, pt.m2y) == (1.0, 5.0, 1.0, 5.0)
        assert pt.is_identical

    def test_distinct_channels(self):
        assert not MomentPoint(0.5, 1.0, -0.2, 0.3).is_identical


class TestSubspaceBasis:
    def test_accepts_orthonormal_rows(self):
        b = SubspaceBasis(np.eye(4)[:2])
        assert b.k == 2 and b.d == 4

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_empty_basis_allowed(self):
        assert SubspaceBasis(np.zeros((0, 4))).k == 0


class TestAssembly:
    def test_zero_moments_return_average_unchanged(self, demo_system):
        fin = aggregate(_noisy(demo_system, 20), 2).finalize()
        M = assemble_M(fin, MomentPoint.identical(0.0, 0.0))
        assert np.array_equal(M, fin.Gbar)

    def test_noiseless_zero_point_has_expected_nullity(self, demo_system):
        fin = aggregate(_clean(demo_system, 40), 2).finalize()
        s, _ = svd_spectrum(assemble_M(fin, MomentPoint.identical(0.0, 0.0)))
        assert int((s < 1e-10 * s[0]).sum()) == 3
        assert numerical_rank(assemble_M(fin, MomentPoint.identical(0.0, 0.0))) == 7

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
        s, _ = svd_spectrum(assemble_M(fin, MomentPoint(0.5, 1.25, -0.2, 0.34), input_rows=INPUT_ROWS))
        assert numerical_rank(assemble_M(fin, MomentPoint(0.5, 1.25, -0.2, 0.34), input_rows=INPUT_ROWS)) == 7
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
                np.mean([np.sum((stacked_hankel(e, 2).matrix.T @ v) ** 2) for e in ds])
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestSpectrum:
    def test_identity_spectrum(self):
        s, Vt = svd_spectrum(np.eye(5))
        assert np.allclose(s, 1.0, rtol=0, atol=1e-15)
        assert np.allclose(Vt @ Vt.T, np.eye(5), atol=1e-12)

    def test_diagonal_values_sorted(self):
        s, _ = svd_spectrum(np.diag([1.0, 4.0, 0.0]))
        assert np.array_equal(s, [4.0, 1.0, 0.0])

    def test_action_norms_match_singular_values(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((8, 8))
        M = A + A.T
        s, Vt = svd_spectrum(M)
        assert np.abs(np.linalg.norm(M @ Vt.T, axis=0) - s).max() <= 1e-10 * s[0]

    def test_rejects_non_finite(self):
        M = np.eye(3)
        M[1, 1] = np.nan
        with pytest.raises(ValueError):
            svd_spectrum(M)


class TestNumericalRank:
    def test_identity_full_rank(self):
        assert numerical_rank(np.eye(10)) == 10

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((6, 6))) == 0

    def test_threshold_is_relative(self):
        M = np.diag([1.0, 0.5, 1e-5])
        assert numerical_rank(M, eps_rank=1e-2) == 2
        assert numerical_rank(M, eps_rank=1e-7) == 3


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
        assert len(res.candidates) == 0
        assert not res.admitted.any()
        assert res.singular_values.shape == (9, 10)
        assert (res.sigma_min > 1e-3).all()

    def test_tie_breaks_to_first_grid_point(self, demo_system):
        fin = aggregate(_clean(demo_system, 20, seed=18), 2).finalize()
        res = grid_search(fin, ([0.0, 0.0], [0.0]), eps_sigma=1e-8, nullity=3)
        assert len(res.candidates) == 2
        assert res.best is res.candidates[0]

    def test_auto_threshold_tracks_grid_floor(self, demo_system):
        fin = aggregate(_noisy(demo_system, 80, seed=19), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 5), np.linspace(3.0, 7.0, 5))
        res = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, eps_mode="auto", eps_factor=2.0)
        floor = res.singular_values[:, 10 - 3].min()
        assert res.threshold == 2.0 * floor
        counts = (res.singular_values < res.threshold).sum(axis=1)
        assert np.array_equal(res.admitted, counts == 3)
        assert len(res.candidates) == int(res.admitted.sum())

    def test_rel_threshold_scales_per_point(self, demo_system):
        fin = aggregate(_noisy(demo_system, 40, seed=20), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 3), np.linspace(3.0, 7.0, 3))
        res = grid_search(fin, grid, eps_sigma=1e-4, nullity=3, eps_mode="rel")
        assert np.isnan(res.threshold)
        per_point = 1e-4 * res.singular_values[:, 0]
        counts = (res.singular_values < per_point[:, None]).sum(axis=1)
        assert np.array_equal(res.admitted, counts == 3)

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
        best = res.best.point
        assert (best.m1u, best.m1y) == (mu_u, mu_y)
        assert not best.is_identical

    def test_chunking_does_not_change_results(self, demo_system):
        fin = aggregate(_noisy(demo_system, 30, seed=22), 2).finalize()
        grid = (np.linspace(0.5, 1.5, 4), np.linspace(3.0, 7.0, 4))
        whole = grid_search(fin, grid, eps_sigma=1e-3, nullity=3)
        tiny = grid_search(fin, grid, eps_sigma=1e-3, nullity=3, chunk_size=3)
        assert np.array_equal(whole.singular_values, tiny.singular_values)
        assert np.array_equal(whole.admitted, tiny.admitted)

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
        with pytest.raises(ValueError):
            grid_search(fin, ([0.0], [0.0], [0.0], [0.0]), eps_sigma=1e-3, nullity=3)
        with pytest.raises(ValueError):
            grid_search(fin, ([], [0.0]), eps_sigma=1e-3, nullity=3)


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
        pt = MomentPoint(0.5, 1.0, -0.2, 0.3)
        cand = Candidate(
            point=pt,
            sigma_min=0.125,
            nullspace=SubspaceBasis(np.eye(10)[:3]),
            singular_values=np.linspace(10.0, 0.0, 10),
        )
        path = tmp_path / "candidate.json"
        write_candidate_json(cand, path)
        obj = json.loads(path.read_text())
        assert obj["m1u"] == 0.5 and obj["m2y"] == 0.3
        assert "m1" not in obj
