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

from .stats import FinalizedStats

__all__ = [
    "MomentPoint",
    "SubspaceBasis",
    "Candidate",
    "GridResult",
    "assemble_M",
    "grid_search",
    "write_landscape_csv",
    "write_candidate_json",
]

EPS_MODES = ("abs", "auto")

CHUNK_SIZE = 8192  # grid points per batched assembly and SVD


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


def _row_moments(points: np.ndarray, d: int, input_rows) -> tuple:
    """Per-row noise moments mu, nu, each (n, d), for an (n, 2|4) batch of points.

    Two columns tie both channels to (m1, m2). Four columns are
    (m1u, m2u, m1y, m2y); the input moments go on the first input_rows rows.
    """
    n = points.shape[0]
    if points.shape[1] == 2:
        return np.broadcast_to(points[:, 0:1], (n, d)), np.broadcast_to(points[:, 1:2], (n, d))
    if input_rows is None:
        if not np.array_equal(points[:, :2], points[:, 2:]):
            raise ValueError("input_rows is required when input and output moments differ")
        split = 0
    else:
        split = int(input_rows)
        if not 0 <= split <= d:
            raise ValueError(f"input_rows={input_rows} out of range for d={d}")
    mu = np.empty((n, d))
    nu = np.empty((n, d))
    mu[:, :split] = points[:, 0:1]
    nu[:, :split] = points[:, 1:2]
    mu[:, split:] = points[:, 2:3]
    nu[:, split:] = points[:, 3:4]
    return mu, nu


def _assemble(st: FinalizedStats, points: np.ndarray, input_rows) -> np.ndarray:
    """Symmetrized estimator matrices, (n, d, d), for an (n, 2|4) batch of points."""
    mu, nu = _row_moments(points, st.d, input_rows)
    mu_c = mu[:, :, None]
    mu_r = mu[:, None, :]
    M = st.Gbar - mu_c * st.rbar - st.rbar[:, None] * mu_r + st.Nc * (mu_c * mu_r)
    idx = np.arange(st.d)
    M[:, idx, idx] += st.Nc * (mu * mu - nu)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def assemble_M(st: FinalizedStats, pt: MomentPoint, input_rows=None) -> np.ndarray:
    """Assemble the moment-corrected estimator matrix at one moment point.

    input_rows is the number of leading rows carrying the input moments
    (m*L for a stacked Hankel layout); it may be omitted when the point ties
    both channels. The result is symmetrized.
    """
    return _assemble(st, np.array([[pt.m1u, pt.m2u, pt.m1y, pt.m2y]]), input_rows)[0]


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
) -> GridResult:
    """Scan a moment grid for points whose assembly drops rank by `nullity`.

    grid is a sequence of per-axis 1-D arrays: (m1, m2) in tied-moment mode
    or (m1u, m2u, m1y, m2y) in the general mode (the latter needs
    input_rows). Points are enumerated in row-major axis order.

    Admission requires exactly `nullity` singular values below the
    threshold, which depends on eps_mode:

      abs   threshold = eps_sigma
      auto  threshold = eps_factor * the grid-wide minimum of the
            nullity-th smallest singular value

    The abs threshold is a fixed yardstick; auto adapts to the statistical
    floor of the ensemble, which shrinks as more experiments are absorbed,
    so the admitted set stays tight at any ensemble size. The numerical rank
    of a point counts its singular values above eps_rank times the largest.
    Each admitted point gets a full SVD of its matrix, whose right singular
    vectors for the `nullity` smallest values span its null space. Among
    admitted points the best is the one with the smallest minimum singular
    value, ties broken by grid order. Returns the full landscape either way;
    best is None when nothing is admitted.
    """
    axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in grid)
    if len(axes) not in (2, 4):
        raise ValueError("grid needs 2 axes (tied moments) or 4 (input and output separate)")
    if any(a.size == 0 for a in axes):
        raise ValueError("grid axes must be nonempty")
    for i, a in enumerate(axes):
        if not np.isfinite(a).all():
            raise ValueError(f"grid axis {i} has non-finite values")
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
    for lo in range(0, npts, CHUNK_SIZE):
        M = _assemble(st, points[lo : lo + CHUNK_SIZE], input_rows)
        sv_all[lo : lo + CHUNK_SIZE] = np.linalg.svd(M, compute_uv=False)

    if eps_mode == "abs":
        threshold = float(eps_sigma)
    else:
        threshold = float(eps_factor * sv_all[:, st.d - nullity].min())
    admitted = (sv_all < threshold).sum(axis=1) == nullity
    ranks = (sv_all > eps_rank * sv_all[:, 0:1]).sum(axis=1).astype(int)

    candidates = []
    picked = points[admitted]
    for lo in range(0, picked.shape[0], CHUNK_SIZE):
        rows = picked[lo : lo + CHUNK_SIZE]
        _, s, Vt = np.linalg.svd(_assemble(st, rows, input_rows))
        # copies, so that no candidate keeps the batch arrays alive; with
        # views into them the reference workload's peak RSS measured about
        # 6 MB higher (heap fragmentation)
        for row, sj, Vtj in zip(rows, s, Vt):
            candidates.append(
                Candidate(
                    point=_point_from_row(row),
                    sigma_min=float(sj[-1]),
                    nullspace=SubspaceBasis(Vtj[st.d - nullity :].copy()),
                    singular_values=sj.copy(),
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
