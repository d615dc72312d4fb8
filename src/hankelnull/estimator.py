"""Moment-corrected correlation assembly and the singular value grid search.

The estimator matrix at a noise moment point is an affine function of the
finalized aggregates. With mu_r, nu_r the first and second raw noise moments
attached to row r (input rows and output rows may carry different moments):

    off-diagonal:  M[r,s] = Gbar[r,s] - mu_r*rbar[s] - mu_s*rbar[r] + Nc*mu_r*mu_s
    diagonal:      M[r,r] = Gbar[r,r] - 2*mu_r*rbar[r] + Nc*(2*mu_r**2 - nu_r)

Two distinct rows of a stacked Hankel matrix never place the same noise
sample in the same column, so the cross correction carries mu_r*mu_s only;
the second moment enters on the diagonal, where each sample meets itself.
At the true moments the corrections cancel the noise in expectation and the
matrix regains the rank deficiency of the noiseless ensemble; the search
scans a moment grid for that signature.
"""

from dataclasses import dataclass

import numpy as np

from .hankel import stacked_hankel
from .stats import FinalizedStats

__all__ = [
    "MomentPoint",
    "SubspaceBasis",
    "Candidate",
    "GridResult",
    "assemble_M",
    "noiseless_M",
    "svd_spectrum",
    "numerical_rank",
    "grid_search",
    "write_landscape_csv",
    "write_candidate_json",
]

EPS_MODES = ("abs", "rel", "auto")


@dataclass(frozen=True)
class MomentPoint:
    """First and second raw noise moments, input rows vs output rows."""

    m1u: float
    m2u: float
    m1y: float
    m2y: float

    @classmethod
    def identical(cls, m1: float, m2: float) -> "MomentPoint":
        """Tie the input and output channels to the same moment pair."""
        return cls(m1, m2, m1, m2)

    @property
    def is_identical(self) -> bool:
        return self.m1u == self.m1y and self.m2u == self.m2y


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal rows spanning a subspace of row dimension d."""

    basis: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", arr)
        if arr.shape[0] > 0:
            gram = arr @ arr.T
            if np.max(np.abs(gram - np.eye(arr.shape[0]))) > 1e-10:
                raise ValueError("basis rows are not orthonormal")

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Candidate:
    """An admitted grid point with its spectrum and extracted null space."""

    point: MomentPoint
    sigma_min: float
    nullspace: SubspaceBasis
    singular_values: np.ndarray


@dataclass(frozen=True)
class GridResult:
    """Full landscape of a grid search plus the admitted candidates."""

    axes: tuple
    points: np.ndarray
    singular_values: np.ndarray
    ranks: np.ndarray
    admitted: np.ndarray
    threshold: float
    eps_mode: str
    nullity: int
    candidates: tuple
    best: "Candidate | None"

    @property
    def sigma_min(self) -> np.ndarray:
        return self.singular_values[:, -1]


def _row_moments(pt: MomentPoint, d: int, input_rows) -> tuple:
    if input_rows is None:
        if not pt.is_identical:
            raise ValueError("input_rows is required when input and output moments differ")
        split = 0
    else:
        split = int(input_rows)
        if not 0 <= split <= d:
            raise ValueError(f"input_rows={input_rows} out of range for d={d}")
    mu = np.empty(d)
    nu = np.empty(d)
    mu[:split] = pt.m1u
    mu[split:] = pt.m1y
    nu[:split] = pt.m2u
    nu[split:] = pt.m2y
    return mu, nu


def _assemble(Gbar: np.ndarray, rbar: np.ndarray, Nc: int, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # mu, nu of shape (d,) or (batch, d); broadcasting keeps the single-point
    # and batched paths arithmetically identical entry by entry
    mu_c = mu[..., :, None]
    mu_r = mu[..., None, :]
    M = Gbar - mu_c * rbar - rbar[:, None] * mu_r + Nc * (mu_c * mu_r)
    idx = np.arange(Gbar.shape[-1])
    M[..., idx, idx] += Nc * (mu * mu - nu)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def assemble_M(st: FinalizedStats, pt: MomentPoint, input_rows=None) -> np.ndarray:
    """Assemble the moment-corrected estimator matrix at one moment point.

    input_rows is the number of leading rows carrying the input moments
    (m*L for a stacked Hankel layout); it may be omitted when the point ties
    both channels. The result is symmetrized.
    """
    mu, nu = _row_moments(pt, st.d, input_rows)
    return _assemble(st.Gbar, st.rbar, st.Nc, mu, nu)


def noiseless_M(ds, L: int) -> np.ndarray:
    """Direct ensemble average of H_i H_i^T, bypassing the aggregates.

    Oracle path for tests: on noiseless data this equals the assembly at the
    zero-moment point.
    """
    exps = list(ds)
    H0 = stacked_hankel(exps[0], L).matrix
    M = np.zeros((H0.shape[0], H0.shape[0]))
    for e in exps:
        H = stacked_hankel(e, L).matrix
        M += H @ H.T
    M /= len(exps)
    return (M + M.T) / 2.0


def svd_spectrum(M: np.ndarray) -> tuple:
    """Singular values (descending) and right singular vectors as rows.

    The input is symmetrized first; sampling error can make an assembled
    matrix slightly indefinite, and the SVD of the symmetrized matrix gives
    a nonnegative spectrum with orthonormal vectors unconditionally. For a
    symmetric matrix the right singular vectors span the same null space as
    the left ones.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    Ms = (M + M.T) / 2.0
    _, s, Vt = np.linalg.svd(Ms)
    return s, Vt


def numerical_rank(M: np.ndarray, eps_rank: float = 1e-2) -> int:
    """Count of singular values above eps_rank times the largest."""
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.count_nonzero(sv > eps_rank * sv[0]))


def _point_from_row(row: np.ndarray) -> MomentPoint:
    if row.shape[0] == 2:
        return MomentPoint.identical(float(row[0]), float(row[1]))
    return MomentPoint(float(row[0]), float(row[1]), float(row[2]), float(row[3]))


def grid_search(
    st: FinalizedStats,
    grid,
    eps_sigma: float,
    nullity: int,
    eps_mode: str = "abs",
    eps_factor: float = 2.0,
    eps_rank: float = 1e-2,
    input_rows=None,
    chunk_size: int = 8192,
) -> GridResult:
    """Scan a moment grid for points whose assembly drops rank by `nullity`.

    grid is a sequence of per-axis 1-D arrays: (m1, m2) in tied-moment mode
    or (m1u, m2u, m1y, m2y) in the general mode (the latter needs
    input_rows). Points are enumerated in row-major axis order.

    Admission requires exactly `nullity` singular values below the
    threshold, which depends on eps_mode:

      abs   threshold = eps_sigma
      rel   threshold = eps_sigma * sigma_max of the same point
      auto  threshold = eps_factor * the grid-wide minimum of the
            nullity-th smallest singular value

    The abs and rel thresholds are fixed yardsticks; auto adapts to the
    statistical floor of the ensemble, which shrinks as more experiments are
    absorbed, so the admitted set stays tight at any ensemble size. Among
    admitted points the best is the one with the smallest minimum singular
    value, ties broken by grid order. Returns the full landscape either way;
    best is None when nothing is admitted.
    """
    axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in grid)
    if len(axes) not in (2, 4):
        raise ValueError("grid needs 2 axes (tied moments) or 4 (input and output separate)")
    if any(a.size == 0 for a in axes):
        raise ValueError("grid axes must be nonempty")
    if len(axes) == 4 and input_rows is None:
        raise ValueError("input_rows is required for a 4-axis grid")
    if not 1 <= nullity <= st.d - 1:
        raise ValueError(f"nullity must be in [1, {st.d - 1}], got {nullity}")
    if eps_mode not in EPS_MODES:
        raise ValueError(f"eps_mode must be one of {EPS_MODES}, got {eps_mode!r}")

    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    npts = points.shape[0]
    sv_all = np.empty((npts, st.d))
    for lo in range(0, npts, chunk_size):
        sel = points[lo : lo + chunk_size]
        if len(axes) == 2:
            mu = np.broadcast_to(sel[:, 0:1], (sel.shape[0], st.d))
            nu = np.broadcast_to(sel[:, 1:2], (sel.shape[0], st.d))
        else:
            split = int(input_rows)
            mu = np.empty((sel.shape[0], st.d))
            nu = np.empty((sel.shape[0], st.d))
            mu[:, :split] = sel[:, 0:1]
            nu[:, :split] = sel[:, 1:2]
            mu[:, split:] = sel[:, 2:3]
            nu[:, split:] = sel[:, 3:4]
        M = _assemble(st.Gbar, st.rbar, st.Nc, mu, nu)
        sv_all[lo : lo + sel.shape[0]] = np.linalg.svd(M, compute_uv=False)

    if eps_mode == "abs":
        thresholds = np.full(npts, float(eps_sigma))
        threshold = float(eps_sigma)
    elif eps_mode == "rel":
        thresholds = eps_sigma * sv_all[:, 0]
        threshold = float("nan")  # per-point yardstick, no single scalar
    else:
        threshold = float(eps_factor * sv_all[:, st.d - nullity].min())
        thresholds = np.full(npts, threshold)

    counts = (sv_all < thresholds[:, None]).sum(axis=1)
    admitted = counts == nullity
    ranks = (sv_all > eps_rank * sv_all[:, 0:1]).sum(axis=1).astype(int)

    candidates = []
    for j in np.flatnonzero(admitted):
        pt = _point_from_row(points[j])
        s, Vt = svd_spectrum(assemble_M(st, pt, input_rows))
        candidates.append(
            Candidate(
                point=pt,
                sigma_min=float(s[-1]),
                nullspace=SubspaceBasis(Vt[st.d - nullity :]),
                singular_values=s,
            )
        )
    best = None
    if candidates:
        best = candidates[int(np.argmin([c.sigma_min for c in candidates]))]

    return GridResult(
        axes=axes,
        points=points,
        singular_values=sv_all,
        ranks=ranks,
        admitted=admitted,
        threshold=threshold,
        eps_mode=eps_mode,
        nullity=nullity,
        candidates=tuple(candidates),
        best=best,
    )


def _point_columns(naxes: int) -> tuple:
    return ("m1", "m2") if naxes == 2 else ("m1u", "m2u", "m1y", "m2y")


def write_landscape_csv(result: GridResult, path) -> None:
    """Write per-point sigma_min, numerical rank and admission to CSV."""
    cols = _point_columns(result.points.shape[1])
    sigma = result.sigma_min
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + ",sigma_min,numerical_rank,admitted\n")
        for j in range(result.points.shape[0]):
            coords = ",".join(f"{v:.17g}" for v in result.points[j])
            fh.write(f"{coords},{sigma[j]:.17g},{result.ranks[j]},{int(result.admitted[j])}\n")


def write_candidate_json(cand: Candidate, path) -> None:
    """Write a candidate as JSON with its moment point and null space rows."""
    pt = cand.point
    if pt.is_identical:
        head = f'"m1":{pt.m1u:.17g},"m2":{pt.m2u:.17g}'
    else:
        head = f'"m1u":{pt.m1u:.17g},"m2u":{pt.m2u:.17g},"m1y":{pt.m1y:.17g},"m2y":{pt.m2y:.17g}'
    rows = ",".join("[" + ",".join(f"{v:.17g}" for v in row) + "]" for row in cand.nullspace.basis)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{%s,\"sigma_min\":%.17g,\"nullspace\":[%s]}\n" % (head, cand.sigma_min, rows))
