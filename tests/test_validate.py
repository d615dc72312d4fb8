import importlib
import re

import numpy as np
import pytest

from hankelnull import (
    Candidate,
    NoiseSpec,
    StateSpace,
    SubspaceBasis,
    add_noise,
    aggregate,
    convergence_study,
    generate_dataset,
    grid_search,
    simulate,
    stacked_hankel,
    subspace_angle,
    true_nullspace,
    write_convergence_csv,
    write_summary_csv,
)

validate = importlib.import_module("hankelnull.validate")


class TestTrueNullspace:
    def test_demo_dimensions(self, demo_system):
        V = true_nullspace(demo_system, 2)
        assert V.basis.shape == (3, 10)

    def test_scalar_window_one_has_no_nullspace(self, scalar_system):
        # p*L - n = 1*1 - 1 = 0
        V = true_nullspace(scalar_system, 1)
        assert V.k == 0

    def test_scalar_window_two_matches_hand_vector(self, scalar_system):
        # y_{k+1} = a*y_k + b*u_k reads as (-b, 0, -a, 1) against the row
        # order (u lag 0, u lag 1, y lag 0, y lag 1)
        a, b = 0.7, 1.3
        V = true_nullspace(scalar_system, 2)
        assert V.basis.shape == (1, 4)
        hand = np.array([-b, 0.0, -a, 1.0])
        hand /= np.linalg.norm(hand)
        err = subspace_angle(V, SubspaceBasis(hand))
        assert err.theta_max <= 1e-8

    def test_scalar_hand_vector_annihilates_fresh_windows(self, scalar_system):
        a, b = 0.7, 1.3
        hand = np.array([-b, 0.0, -a, 1.0])
        rng = np.random.default_rng(30)
        for _ in range(20):
            u = rng.standard_normal((12, 1))
            x0 = rng.standard_normal(1)
            H = stacked_hankel(u, simulate(scalar_system, x0, u), 2)
            assert np.abs(hand @ H).max() <= 1e-10

    def test_basis_annihilates_fresh_experiments(self, demo_system):
        V = true_nullspace(demo_system, 2)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            u = rng.standard_normal((25, 2))
            x0 = rng.uniform(-1.0, 1.0, 3)
            H = stacked_hankel(u, simulate(demo_system, x0, u), 2)
            worst = max(worst, float(np.abs(V.basis @ H).max()))
        assert worst <= 1e-8

    def test_non_minimal_realization_is_rejected(self):
        # unobservable second state: the data null space is larger than
        # p*L - n predicts from the stated order
        ss = StateSpace(np.diag([0.5, 0.6]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(RuntimeError, match=r"dimension 2, expected p\*L - n = 1; the realization is not minimal, or L=3 is below"):
            true_nullspace(ss, 3)

    def test_window_below_observability_index_is_rejected(self):
        # a minimal plant with n = 3 and one output needs L >= 3 to be observed
        ss = StateSpace(np.diag([0.5, 0.6, 0.7]), [[1.0], [1.0], [1.0]], [[1.0, 1.0, 1.0]], [[0.0]])
        with pytest.raises(RuntimeError, match=r"dimension 0, expected p\*L - n = -1; .* or L=2 is below the plant's observability index"):
            true_nullspace(ss, 2)


class TestSubspaceAngle:
    def _basis(self, rows, d, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, rows))
        Q, _ = np.linalg.qr(A)
        return SubspaceBasis(Q[:, :rows].T)

    def test_identical_bases_have_zero_angle(self):
        V = self._basis(3, 10, 40)
        err = subspace_angle(V, V)
        assert err.theta_max <= 1e-14
        assert np.allclose(err.singular_values, 1.0, atol=1e-12)

    def test_invariant_to_orthonormal_rebasing(self):
        V = self._basis(3, 10, 41)
        W = self._basis(3, 10, 42)
        rng = np.random.default_rng(43)
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V2 = SubspaceBasis(R @ V.basis)
        a = subspace_angle(V, W).theta_max
        b = subspace_angle(V2, W).theta_max
        assert abs(a - b) <= 1e-10

    def test_symmetric_in_arguments(self):
        V = self._basis(2, 8, 44)
        W = self._basis(2, 8, 45)
        assert abs(subspace_angle(V, W).theta_max - subspace_angle(W, V).theta_max) <= 1e-12

    def test_planar_angle_recovered(self):
        theta = 0.3
        V = SubspaceBasis(np.array([[1.0, 0.0, 0.0]]))
        W = SubspaceBasis(np.array([[np.cos(theta), np.sin(theta), 0.0]]))
        assert abs(subspace_angle(V, W).theta_max - theta) <= 1e-12

    def test_small_rotation_gives_small_angle(self):
        V = self._basis(3, 10, 46)
        delta = 1e-6 * np.random.default_rng(47).standard_normal(V.basis.shape)
        Q, _ = np.linalg.qr((V.basis + delta).T)
        W = SubspaceBasis(Q.T)
        assert subspace_angle(V, W).theta_max <= 1e-4

    def test_empty_bases_compare_as_equal(self):
        z = SubspaceBasis(np.zeros((0, 5)))
        err = subspace_angle(z, z)
        assert err.theta_max == 0.0
        assert err.singular_values.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_angle(self._basis(2, 8, 48), self._basis(3, 8, 49))
        with pytest.raises(ValueError):
            subspace_angle(self._basis(2, 8, 48), self._basis(2, 9, 49))


class TestTrajectoryMembership:
    def test_noiseless_windows_live_in_orthogonal_complement(self, demo_system):
        V = true_nullspace(demo_system, 2)
        rng = np.random.default_rng(50)
        ds = generate_dataset(demo_system, 1, 20, 2, "random-bounded", rng)
        H = stacked_hankel(ds.U[0], ds.Y[0], 2)
        z = H[:, 4]
        assert np.abs(V.basis @ z).max() <= 1e-8
        bad = z + 0.1 * V.basis[0]
        assert np.abs(V.basis @ bad).max() > 1e-3


def _search(grid, eps_sigma=1e-3, **kw):
    """A study's search on the demo plant at L=2: the best point of grid_search over grid."""
    return lambda fin: grid_search(fin, grid, eps_sigma, 3, input_rows=4, **kw).best


def _never(fin):
    pytest.fail("the study searched a cell")


class TestConvergenceStudy:
    def test_noiseless_study_recovers_exactly(self, demo_system):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        grid = (np.array([0.0]), np.array([0.0]))
        res = convergence_study(demo_system, zero, zero, 2, [5, 10], [0, 1], _search(grid, eps_mode="auto"), N=25)
        assert len(res.rows) == 4
        assert all(adm for (_, _, _, adm) in res.rows)
        assert all(theta <= 1e-8 for (_, _, theta, _) in res.rows)
        assert len(res.medians) == 2
        assert all(med <= 1e-8 for (_, med) in res.medians)

    def test_hopeless_threshold_records_missing_cells(self, demo_system):
        spec = NoiseSpec("gaussian", 1.0, 5.0)
        grid = (np.array([1.0]), np.array([5.0]))
        res = convergence_study(demo_system, spec, spec, 2, [5], [0, 1], _search(grid, eps_sigma=1e-15), N=25)
        assert all(not adm for (_, _, _, adm) in res.rows)
        assert all(np.isnan(theta) for (_, _, theta, _) in res.rows)
        assert np.isnan(res.medians[0][1])

    def test_descending_ensemble_sizes_rejected(self, demo_system):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        with pytest.raises(ValueError):
            convergence_study(demo_system, zero, zero, 2, [10, 5], [0], _never, N=25)

    @pytest.mark.parametrize("Nt_list, seeds, empty", [([], [0], "Nt_list"), ([5], [], "seeds")])
    def test_empty_sizes_or_seeds_rejected_before_any_work(self, demo_system, monkeypatch, Nt_list, seeds, empty):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        monkeypatch.setattr(validate, "true_nullspace", lambda *a: pytest.fail("true_nullspace ran"))
        with pytest.raises(ValueError, match=f"^{empty} is empty"):
            convergence_study(demo_system, zero, zero, 2, Nt_list, seeds, _never, N=25)

    @pytest.mark.parametrize("Nt_list, seeds, message", [
        ([5, 5], [0], "Nt_list repeats 5"),
        ([5, 8, 8], [0], "Nt_list repeats 8"),
        ([5], [0, 1, 0], "seeds repeats 0"),
    ])
    def test_repeated_sizes_or_seeds_rejected_before_any_work(self, demo_system, monkeypatch, Nt_list, seeds, message):
        # a repeated cell would count twice in its Nt's median
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        monkeypatch.setattr(validate, "true_nullspace", lambda *a: pytest.fail("true_nullspace ran"))
        with pytest.raises(ValueError, match=f"^{message}; the study runs each value once"):
            convergence_study(demo_system, zero, zero, 2, Nt_list, seeds, _never, N=25)

    @pytest.mark.parametrize("Nt_list, seeds, message", [
        ([20.7], [0], "Nt_list holds 20.7; ensemble sizes are integers"),
        ([5, True], [0], "Nt_list holds True; ensemble sizes are integers"),
        ([5, "8"], [0], "Nt_list holds '8'; ensemble sizes are integers"),
        ([5], [0, -1], "seeds holds -1; seeds are non-negative integers"),
        ([5], [1.0], "seeds holds 1.0; seeds are non-negative integers"),
        ([5], [False], "seeds holds False; seeds are non-negative integers"),
        ([0, 5], [0], "Nt_list holds 0; an ensemble needs at least one record"),
        ([-5, 5], [0], "Nt_list holds -5; an ensemble needs at least one record"),
    ])
    def test_sizes_and_seeds_that_are_not_integers_rejected_before_any_work(self, demo_system, monkeypatch, Nt_list, seeds, message):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        oracle, searched = [], []
        monkeypatch.setattr(validate, "true_nullspace", lambda *a: oracle.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_study(demo_system, zero, zero, 2, Nt_list, seeds, searched.append, N=25)
        assert oracle == [] and searched == []

    def test_integral_float_size_reads_as_its_int(self, demo_system):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        res = convergence_study(demo_system, zero, zero, 2, [5.0], [np.int64(3)], lambda fin: None, N=25)
        assert [(type(Nt), Nt, type(seed), seed) for Nt, seed, _, _ in res.rows] == [(int, 5, int, 3)]

    def test_search_called_once_per_cell_with_its_stats(self, demo_system):
        spec = NoiseSpec("gaussian", 1.0, 5.0)
        V_true = true_nullspace(demo_system, 2)
        # a basis at principal angle t from the true one: its first row turned
        # by t toward a unit vector orthogonal to the true null space
        w = np.linalg.svd(V_true.basis)[2][-1]

        def turned(t):
            basis = V_true.basis.copy()
            basis[0] = np.cos(t) * basis[0] + np.sin(t) * w
            return SubspaceBasis(basis)

        cells = [(Nt, seed) for Nt in (5, 8) for seed in (0, 1, 2)]
        angles = {(5, 0): 0.1, (5, 2): 0.3, (8, 0): 0.2, (8, 1): 0.4, (8, 2): 0.5}  # (5, 1) admits nothing
        calls = []

        def search(fin):
            calls.append(fin)
            cell = cells[len(calls) - 1]
            if cell not in angles:
                return None
            return Candidate({"m1": 1.0, "m2": 5.0}, turned(angles[cell]), np.linspace(1.0, 0.1, 10))

        res = convergence_study(demo_system, spec, spec, 2, [5, 8], [0, 1, 2], search, N=25)
        assert len(calls) == 6
        for fin, (Nt, seed) in zip(calls, cells):
            rng = np.random.default_rng(seed)
            clean = generate_dataset(demo_system, Nt, 25, 2, "random-bounded", rng)
            want = aggregate(add_noise(clean, spec, spec, rng), 2).finalize()
            assert fin.count == Nt and fin.Nc == want.Nc
            assert np.array_equal(fin.Gbar, want.Gbar) and np.array_equal(fin.rbar, want.rbar)
        assert [(Nt, seed, adm) for Nt, seed, _, adm in res.rows] == [(*cell, cell in angles) for cell in cells]
        for Nt, seed, theta, adm in res.rows:
            if adm:
                assert theta == pytest.approx(angles[(Nt, seed)], abs=1e-12)
            else:
                assert np.isnan(theta)
        assert [Nt for Nt, _ in res.medians] == [5, 8]
        assert res.medians[0][1] == pytest.approx(0.2, abs=1e-12)
        assert res.medians[1][1] == pytest.approx(0.4, abs=1e-12)

    def test_csv_shapes(self, tmp_path, demo_system):
        zero = NoiseSpec("gaussian", 0.0, 0.0)
        grid = (np.array([0.0]), np.array([0.0]))
        res = convergence_study(demo_system, zero, zero, 2, [5, 8], [0, 1, 2], _search(grid, eps_mode="auto"), N=25)
        rows_path, summary_path = tmp_path / "rows.csv", tmp_path / "summary.csv"
        write_convergence_csv(res, rows_path)
        write_summary_csv(res, summary_path)
        rows = rows_path.read_text().strip().split("\n")
        assert rows[0] == "Nt,seed,theta_max,admitted"
        assert len(rows) == 1 + 6
        summary = summary_path.read_text().strip().split("\n")
        assert summary[0] == "Nt,median_theta_max"
        assert len(summary) == 1 + 2
        first = rows[1].split(",")
        assert first[0] == "5" and first[1] == "0" and first[3] == "1"
