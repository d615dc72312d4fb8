"""Ground-truth oracles and subspace error metrics.

The left null space shared by every noiseless stacked Hankel matrix of the
same system is recovered here from one long exciting experiment, and
recovered bases are scored against it by the largest principal angle.
"""

from dataclasses import dataclass

import numpy as np

from .estimator import SubspaceBasis, grid_search
from .hankel import stacked_hankel
from .lti_sim import StateSpace, add_noise, generate_dataset
from .stats import aggregate

__all__ = [
    "SubspaceError",
    "StudyResult",
    "true_nullspace",
    "subspace_angle",
    "convergence_study",
    "write_convergence_csv",
    "write_summary_csv",
]


@dataclass(frozen=True)
class SubspaceError:
    """Largest principal angle and the inner-product singular values."""

    theta_max: float
    singular_values: np.ndarray


def true_nullspace(ss: StateSpace, L: int) -> SubspaceBasis:
    """Orthonormal basis of the left null space of the noiseless ensemble.

    Builds one long noiseless experiment of (m + 1)*(L + n) + L samples, its
    input drawn from a seed-0 generator so that it is exciting of order
    L + n, and takes the left singular vectors of its stacked Hankel matrix
    whose singular values fall below 1e-10 of the largest. For a minimal
    system the dimension must come out to p*L - n; anything else raises,
    since it signals a non-minimal realization or insufficient excitation.
    """
    length = (ss.m + 1) * (L + ss.n) + L
    ds = generate_dataset(ss, 1, length, L, "zero", np.random.default_rng(0))
    H = stacked_hankel(ds.U[0], ds.Y[0], L)
    U, s, _ = np.linalg.svd(H, full_matrices=True)
    sfull = np.zeros(H.shape[0])
    sfull[: s.size] = s
    mask = sfull < 1e-10 * s[0]
    expected = ss.p * L - ss.n
    if int(mask.sum()) != expected:
        raise RuntimeError(
            f"noiseless null space has dimension {int(mask.sum())}, expected p*L - n = {expected}; "
            "the realization may not be minimal"
        )
    return SubspaceBasis(U[:, mask].T)


def subspace_angle(V_true: SubspaceBasis, V_hat: SubspaceBasis) -> SubspaceError:
    """Largest principal angle between two equal-dimension subspaces.

    theta_max = arccos of the smallest singular value of V_true V_hat^T, so
    the score is invariant to the choice of orthonormal basis on either
    side. Angles below pi/4 are recomputed from the projection residual
    (arcsin of its largest singular value): arccos cannot resolve angles
    under ~1.5e-8 because the cosine saturates at 1, while the sine form
    stays accurate down to machine precision. SubspaceBasis guarantees
    orthonormal rows. Two empty bases are identical by convention,
    theta_max = 0.
    """
    if V_true.basis.shape != V_hat.basis.shape:
        raise ValueError(f"basis shapes differ: {V_true.basis.shape} vs {V_hat.basis.shape}")
    if V_true.k == 0:
        return SubspaceError(0.0, np.empty(0))
    cross = V_true.basis @ V_hat.basis.T
    ip = np.linalg.svd(cross, compute_uv=False)
    # roundoff can push cosines a hair past 1; clip before arccos
    ip = np.clip(ip, 0.0, 1.0)
    if ip[-1] ** 2 > 0.5:
        resid = V_hat.basis - (V_hat.basis @ V_true.basis.T) @ V_true.basis
        sines = np.linalg.svd(resid, compute_uv=False)
        theta = float(np.arcsin(min(1.0, float(sines[0]))))
    else:
        theta = float(np.arccos(ip[-1]))
    return SubspaceError(theta, ip)


@dataclass(frozen=True)
class StudyResult:
    """Per-cell rows (Nt, seed, theta_max, admitted) and per-Nt medians."""

    rows: tuple
    medians: tuple


def convergence_study(
    ss: StateSpace,
    spec_u,
    spec_y,
    L: int,
    Nt_list,
    seeds,
    grid,
    N: int,
    x0_policy: str = "random-bounded",
    x0_halfwidth: float = 1.0,
    eps_sigma: float = 1e-3,
    eps_mode: str = "auto",
    eps_factor: float = 2.0,
    eps_rank: float = 1e-2,
) -> StudyResult:
    """Measure the subspace error against ensemble size, one cell per (Nt, seed).

    Each cell generates a fresh ensemble, corrupts it, aggregates, runs the
    grid search and scores the best candidate against the true null space.
    Cells with no admitted candidate record theta_max = nan and admitted = 0;
    medians are taken over the admitted cells of each Nt.
    """
    Nt_list = [int(v) for v in Nt_list]
    if Nt_list != sorted(Nt_list):
        raise ValueError("Nt_list must be ascending")
    V_true = true_nullspace(ss, L)
    nullity = ss.p * L - ss.n
    rows = []
    for Nt in Nt_list:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            clean = generate_dataset(ss, Nt, N, L, x0_policy, rng, x0_halfwidth=x0_halfwidth)
            noisy = add_noise(clean, spec_u, spec_y, rng)
            fin = aggregate(noisy, L).finalize()
            res = grid_search(
                fin, grid, eps_sigma, nullity,
                eps_mode=eps_mode, eps_factor=eps_factor, eps_rank=eps_rank,
                input_rows=ss.m * L,
            )
            if res.best is None:
                rows.append((Nt, int(seed), float("nan"), False))
            else:
                err = subspace_angle(V_true, res.best.nullspace)
                rows.append((Nt, int(seed), err.theta_max, True))
    medians = []
    for Nt in Nt_list:
        thetas = [r[2] for r in rows if r[0] == Nt and r[3]]
        medians.append((Nt, float(np.median(thetas)) if thetas else float("nan")))
    return StudyResult(tuple(rows), tuple(medians))


def write_convergence_csv(res: StudyResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Nt,seed,theta_max,admitted\n")
        for Nt, seed, theta, admitted in res.rows:
            fh.write(f"{Nt},{seed},{theta:.17g},{int(admitted)}\n")


def write_summary_csv(res: StudyResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Nt,median_theta_max\n")
        for Nt, med in res.medians:
            fh.write(f"{Nt},{med:.17g}\n")
