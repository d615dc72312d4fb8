"""Ground-truth oracles and subspace error metrics.

The left null space shared by every noiseless stacked Hankel matrix of the
same system is recovered here from one long exciting experiment, and
recovered bases are scored against it by the largest principal angle.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .estimator import SubspaceBasis
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


@dataclass(frozen=True, eq=False)
class SubspaceError:
    """Largest principal angle and the inner-product singular values."""

    theta_max: float
    singular_values: np.ndarray


def true_nullspace(ss: StateSpace, L: int) -> SubspaceBasis:
    """Orthonormal basis of the left null space of the noiseless ensemble.

    Builds one long noiseless experiment of (m + 1)*(L + n) + L samples,
    long enough for its standard-normal input, drawn from a seed-0
    generator, to be exciting of order L + n, and takes the left singular
    vectors of its stacked Hankel matrix whose singular values fall below
    1e-10 of the largest. The dimension
    must come out to p*L - n; anything else raises, since it signals a
    realization that is not minimal or an L below the plant's observability
    index.
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
            f"the realization is not minimal, or L={L} is below the plant's observability index"
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
    search,
    N: int,
    x0_policy: str = "random-bounded",
    x0_halfwidth: float = 1.0,
) -> StudyResult:
    """Measure the subspace error against ensemble size, one cell per (Nt, seed).

    Each cell generates a fresh ensemble, corrupts it, aggregates, and scores
    the Candidate that search makes of its FinalizedStats against the true
    null space. Cells where search returns None record theta_max = nan and
    admitted = 0; medians are taken over the admitted cells of each Nt. An
    Nt that is not integral (20.0 reads as 20) or is below 1, a seed that
    is not a non-negative integer, an empty or repeated Nt_list or seeds,
    or an Nt_list not ascending, raises before any cell runs.
    """
    for v in Nt_list:
        if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()):
            raise ValueError(f"Nt_list holds {v!r}; ensemble sizes are integers")
        if v < 1:
            raise ValueError(f"Nt_list holds {v!r}; an ensemble needs at least one record")
    for v in seeds:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
            raise ValueError(f"seeds holds {v!r}; seeds are non-negative integers")
    Nt_list, seeds = [int(v) for v in Nt_list], [int(v) for v in seeds]
    for name, values in (("Nt_list", Nt_list), ("seeds", seeds)):
        if not values:
            raise ValueError(f"{name} is empty; the study needs at least one ensemble size and one seed")
        repeated = next((v for v in values if values.count(v) > 1), None)
        if repeated is not None:
            raise ValueError(f"{name} repeats {repeated}; the study runs each value once")
    if Nt_list != sorted(Nt_list):
        raise ValueError("Nt_list must be ascending")
    V_true = true_nullspace(ss, L)
    rows = []
    for Nt in Nt_list:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            clean = generate_dataset(ss, Nt, N, L, x0_policy, rng, x0_halfwidth=x0_halfwidth)
            noisy = add_noise(clean, spec_u, spec_y, rng)
            best = search(aggregate(noisy, L).finalize())
            if best is None:
                rows.append((Nt, seed, float("nan"), False))
            else:
                rows.append((Nt, seed, subspace_angle(V_true, best.nullspace).theta_max, True))
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
