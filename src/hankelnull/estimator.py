"""Moment-corrected correlation assembly and the singular value grid search.

The estimator matrix at a noise moment point is an affine function of the
finalized aggregates. A point is one row (m1u, m2u, m1y, m2y) split at
input_rows: the first input_rows rows of the matrix carry the input moments,
the rest the output moments. With mu_r, nu_r the first and second raw noise
moments of row r:

    off-diagonal:  M[r,s] = Gbar[r,s] - mu_r*rbar[s] - mu_s*rbar[r] + Nc*mu_r*mu_s
    diagonal:      M[r,r] = Gbar[r,r] - 2*mu_r*rbar[r] + Nc*(2*mu_r**2 - nu_r)

Two distinct rows of a stacked Hankel matrix never place the same noise
sample in the same column, so the cross correction carries mu_r*mu_s only;
the second moment enters on the diagonal, where each sample meets itself.
At the true moments the corrections cancel the noise in expectation and the
matrix regains the rank deficiency of the noiseless ensemble; the search
scans a moment grid for that signature.

Every grid is searched as base matrices times scalar shifts. The second
moments enter only on the diagonal, so with tied moments they are a spectral
shift, M(mu, nu) = M(mu, 0) - Nc*nu*I: the bases are the rows (mu, 0, mu, 0),
one per first-moment value, and the shifts are Nc*nu. With split channels
M(m1u, m2u, m1y, m2y) = M(m1u, m2u - m2y, m1y, 0) - Nc*m2y*I: the bases are
(m1u, delta, m1y, 0), delta the difference m2u - m2y snapped to a quantum
set by the stats, and the shifts are Nc*m2y. A point's base thus depends on
the point and the stats alone. One symmetric eigenvalue decomposition per
base gives the singular values |lambda - shift| of every point it covers.
Where the subtraction cancels too many digits to be trusted (the shift sits
on an eigenvalue), or a point's distance from delta may matter, the row is
recomputed by SVD of the assembled matrix. Only the best admitted point's
null space is extracted: one eigh of its base, keeping the eigenvectors
nearest its shift.

A base's off-diagonal entries depend on its first moments alone, so they
are built once per first-moment pair (m1u, m1y) of the grid, the core, and
each base copies its pair's core and adds its own diagonal correction. The
entries are the ones a one-pass assembly gives, bit for bit. The search runs
in the calling process.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lti_sim
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

# Moment grid axes by axis count: tied channels, or input and output apart.
# The axis names are the moment mode; landscape and candidate files use them.
AXIS_NAMES = {2: ("m1", "m2"), 4: ("m1u", "m2u", "m1y", "m2y")}

CHUNK_SIZE = 4096  # rows of d values per batch: grid points, or CHUNK_SIZE // d bases, and landscape rows per %-operation
# A landscape row |lambda - shift| is recomputed by SVD when its error bound,
# GUARD_ULPS*eps*(max|lambda| + |shift|) plus Nc*|m2u - m2y - delta| (see
# grid_search), exceeds GUARD_RTOL times its smallest singular value.
GUARD_ULPS = 16
GUARD_RTOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal rows spanning a subspace of row dimension d."""

    basis: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", arr)
        if not np.isfinite(arr).all():
            raise ValueError("basis rows are not orthonormal: they hold non-finite entries")
        if arr.shape[0] > 0:
            gram = arr @ arr.T
            gram.flat[:: arr.shape[0] + 1] -= 1.0  # gram - I, without building I
            if np.abs(gram).max() > 1e-10:
                raise ValueError("basis rows are not orthonormal")

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class Candidate:
    """An admitted point: its coordinates by axis name (m1, m2 on a tied
    grid; see AXIS_NAMES), its extracted null space and its spectrum."""

    coords: dict
    nullspace: SubspaceBasis
    singular_values: np.ndarray

    @property
    def point(self) -> MomentPoint:
        """The coordinates as a MomentPoint; a tied point spreads over both channels."""
        c = self.coords
        return MomentPoint.identical(c["m1"], c["m2"]) if "m1" in c else MomentPoint(**c)

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])


@dataclass(frozen=True, eq=False)
class GridResult:
    """Full landscape of a grid search plus the best admitted point.

    Every point's spectrum, rank and admission are in the landscape; only
    the best point's null space is extracted.
    """

    axes: tuple
    points: np.ndarray
    singular_values: np.ndarray
    ranks: np.ndarray
    admitted: np.ndarray
    threshold: float
    nullity: int
    best: "Candidate | None"

    @property
    def sigma_min(self) -> np.ndarray:
        return self.singular_values[:, -1]


def _moments(cols: np.ndarray, input_rows: int, d: int) -> np.ndarray:
    """Per-row moments, (n, d), from an (n, 2) batch of (input, output)
    moment pairs: the input moment on the first input_rows rows."""
    return np.where(np.arange(d) < input_rows, cols[:, 0:1], cols[:, 1:2])


def _core(st: FinalizedStats, pairs: np.ndarray, input_rows: int) -> np.ndarray:
    """Symmetrized estimator matrices with zero second moments, (n, d, d), at
    an (n, 2) batch of first-moment pairs (m1u, m1y)."""
    mu = _moments(pairs, input_rows, st.d)
    mu_c = mu[:, :, None]
    mu_r = mu[:, None, :]
    M = st.Gbar - mu_c * st.rbar - st.rbar[:, None] * mu_r + st.Nc * (mu_c * mu_r)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def _assemble(st: FinalizedStats, points: np.ndarray, input_rows: int, core=None) -> np.ndarray:
    """Symmetrized estimator matrices, (n, d, d), at an (n, 4) batch of points
    (m1u, m2u, m1y, m2y), the input moments on the first input_rows rows.

    Only the diagonal depends on the second moments: it is the diagonal of
    the _core at the point's pair (m1u, m1y) plus Nc*(mu**2 - nu). core, if
    given, holds that _core for each point and is written into; a search
    builds it once per pair and gathers it for every base on the pair.
    """
    if core is None:
        core = _core(st, points[:, 0::2], input_rows)
    mu = _moments(points[:, 0::2], input_rows, st.d)
    nu = _moments(points[:, 1::2], input_rows, st.d)
    idx = np.arange(st.d)
    core[:, idx, idx] += st.Nc * (mu * mu - nu)
    return core


def _input_split(input_rows, d: int) -> int:
    split = int(input_rows)
    if not 0 <= split <= d:
        raise ValueError(f"input_rows={input_rows} out of range for d={d}")
    return split


def assemble_M(st: FinalizedStats, pt: MomentPoint, input_rows=None) -> np.ndarray:
    """Assemble the moment-corrected estimator matrix at one moment point.

    input_rows is the number of leading rows carrying the input moments
    (m*L for a stacked Hankel layout); it may be omitted when the point ties
    both channels. The result is symmetrized.
    """
    if input_rows is None:
        if not (pt.m1u == pt.m1y and pt.m2u == pt.m2y):
            raise ValueError("input_rows is required when input and output moments differ")
        input_rows = 0
    split = _input_split(input_rows, st.d)
    return _assemble(st, np.array([[pt.m1u, pt.m2u, pt.m1y, pt.m2y]]), split)[0]


def _snap(st: FinalizedStats, diff: np.ndarray) -> np.ndarray:
    """Second-moment differences cut toward zero to a multiple of the quantum,
    the power of two above GUARD_ULPS*eps*max|Gbar|/Nc (2**-1074 when that is
    zero). The cut is exact, and a difference of 2**52 quanta or more, which
    is a multiple already, is kept as it is, so nothing overflows."""
    scale = GUARD_ULPS * np.finfo(float).eps * float(np.abs(st.Gbar).max()) / st.Nc
    q = math.ldexp(1.0, math.frexp(scale)[1] if scale > 0.0 else -1074)
    small = np.abs(diff) < 2.0**52 * q
    return np.where(small, np.trunc(np.where(small, diff, 0.0) / q) * q, diff)


def _check_axis_scale(axes, Nc: float, d: int) -> None:
    """Raise ValueError naming the first axis, in AXIS_NAMES order, whose
    moments overflow the estimator's matrices at Nc columns and d rows.

    An entry's correction is Nc*(2*mu**2 - nu) plus 2*mu*rbar, which is no
    larger than Nc*mu**2 + Gbar[r, r] (Cauchy-Schwarz, then AM-GM), and d
    times the largest entry bounds every eigenvalue and shift. So each axis
    may take Nc*m2, or 2*Nc*m1**2 for a first moment, up to an eighth of the
    largest double over d, and all four axes' parts stay finite together.
    """
    limit = np.finfo(float).max / (8 * d)
    for name, a in zip(AXIS_NAMES[len(axes)], axes):
        top = float(np.abs(a).max())
        first = name.startswith("m1")
        if not (2.0 * Nc * top * top if first else Nc * top) <= limit:
            term = f"Nc*{name}**2" if first else f"Nc*{name}"
            raise ValueError(f"grid axis {name!r} reaches {top:g}, where {term} (Nc={Nc:g}) overflows the estimator's matrices")


def _mesh_points(axes) -> np.ndarray:
    """All points of a grid, (n, len(axes)), in row-major axis order, each
    axis broadcast into its column of one array."""
    points = np.empty(tuple(a.size for a in axes) + (len(axes),))
    for k, a in enumerate(axes):
        points[..., k] = a.reshape((-1,) + (1,) * (len(axes) - 1 - k))
    return points.reshape(-1, len(axes))


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

    grid is a sequence of per-axis 1-D arrays in AXIS_NAMES order: two for
    tied moments or four for the general mode (which needs input_rows).
    Points are enumerated in row-major axis order.

    Admission requires exactly `nullity` singular values below the
    threshold, which depends on eps_mode:

      abs   threshold = eps_sigma
      auto  threshold = eps_factor * the grid-wide minimum of the
            nullity-th smallest singular value; a product that
            overflows raises ValueError naming eps_factor

    The abs threshold is a fixed yardstick; auto adapts to the statistical
    floor of the ensemble, which shrinks as more experiments are absorbed,
    so the admitted set stays tight at any ensemble size. The numerical rank
    of a point counts its singular values above eps_rank times the largest.

    The grid is read as base matrices and scalar shifts, in this process. A
    tied point (m1, m2) has base (m1, 0, m1, 0) and shift Nc*m2; a 4-axis
    point has base (m1u, delta, m1y, 0) and shift Nc*m2y, delta its
    difference m2u - m2y cut toward zero to a multiple of the quantum
    (_snap), so a point's row has the same bits in any grid that holds it.
    One eigvalsh per base gives the spectrum of every point on it,
    |lambda - shift| sorted descending. Moving the input rows' diagonal from
    the point's difference to delta moves each eigenvalue by at most
    Nc*|m2u - m2y - delta|, which is added to the row's rounding bound; rows
    where the two may exceed GUARD_RTOL of the smallest value are recomputed
    by SVD. Among admitted points the best is the one with the smallest
    minimum singular value, the first in grid order on ties. Only its null
    space is extracted, by one eigh of its base: the `nullity` eigenvectors
    nearest its shift, nearest last like the trailing rows of an SVD's Vt.
    Its spectrum is its landscape row. Returns the full landscape either
    way; best is None when nothing is admitted.
    """
    axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in grid)
    if len(axes) not in AXIS_NAMES:
        raise ValueError("grid needs 2 axes (tied moments) or 4 (input and output separate)")
    if any(a.size == 0 for a in axes):
        raise ValueError("grid axes must be nonempty")
    for i, a in enumerate(axes):
        if not np.isfinite(a).all():
            raise ValueError(f"grid axis {i} has non-finite values")
    _check_axis_scale(axes, st.Nc, st.d)
    if len(axes) == 4:
        if input_rows is None:
            raise ValueError("input_rows is required for a 4-axis grid")
        split, cols = _input_split(input_rows, st.d), [0, 1, 2, 3]
    else:
        split, cols = 0, [0, 1, 0, 1]  # a tied row (m1, m2) spreads to (m1, m2, m1, m2)
    if not 1 <= nullity <= st.d - 1:
        raise ValueError(f"nullity must be in [1, {st.d - 1}], got {nullity}")
    if eps_mode not in EPS_MODES:
        raise ValueError(f"eps_mode must be one of {EPS_MODES}, got {eps_mode!r}")
    for name, value in (("eps_sigma", eps_sigma), ("eps_factor", eps_factor), ("eps_rank", eps_rank)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")

    d = st.d
    eps = np.finfo(float).eps
    points = _mesh_points(axes)
    # points j (an index array) lie on the bases bases[locate(j)[0]], each
    # shifted by Nc times its last coordinate, m2 or m2y, and each eigenvalue
    # off by at most locate(j)[1]; base k's off-diagonal entries are those of
    # its first-moment pair, pairs[pair_of[k]]
    if len(axes) == 2:
        m1, m2 = axes
        bases = _mesh_points((m1, np.zeros(1)))[:, cols]
        pairs, pair_of = bases[:, 0::2], np.arange(m1.size)

        def locate(j):
            return j // m2.size, 0.0  # each point on its own base

    else:
        m1u, m2u, m1y, m2y = axes
        # bases (m1u, delta, m1y, 0), delta the difference m2u - m2y snapped
        diff = m2u[:, None] - m2y
        diffs, diff_of = np.unique(_snap(st, diff), return_inverse=True)
        diff_of = diff_of.reshape(diff.shape)
        bases = _mesh_points((m1u, diffs, m1y, np.zeros(1)))
        pairs = _mesh_points((m1u, m1y))
        a, c = np.arange(m1u.size)[:, None, None], np.arange(m1y.size)
        pair_of = np.broadcast_to(a * m1y.size + c, (m1u.size, diffs.size, m1y.size)).reshape(-1)
        moved = st.Nc * np.abs(diff - diffs[diff_of])  # by (m2u, m2y)

        def locate(j):
            a, b, c, e = np.unravel_index(j, (m1u.size, m2u.size, m1y.size, m2y.size))
            return (a * diffs.size + diff_of[b, e]) * m1y.size + c, moved[b, e]

    sv_all = np.empty((points.shape[0], d))
    ranks = np.empty(points.shape[0], dtype=np.intp)

    lam = np.empty((bases.shape[0], d))
    per_chunk = max(1, CHUNK_SIZE // d)
    for lo in range(0, bases.shape[0], per_chunk):
        rows = slice(lo, lo + per_chunk)
        pair = pair_of[rows]
        first = pair.min()
        core = _core(st, pairs[first : pair.max() + 1], split)[pair - first]
        lam[rows] = np.linalg.eigvalsh(_assemble(st, bases[rows], split, core))
    lam_max = np.abs(lam).max(axis=1)
    for lo in range(0, points.shape[0], CHUNK_SIZE):
        rows = slice(lo, lo + CHUNK_SIZE)
        base, slack = locate(np.arange(lo, min(lo + CHUNK_SIZE, points.shape[0])))
        shift = st.Nc * points[rows, -1]
        dist = lam[base]
        dist -= shift[:, None]
        np.abs(dist, out=dist)
        dist.sort(axis=-1)
        sv = sv_all[rows]
        sv[...] = dist[:, ::-1]
        bound = GUARD_ULPS * eps * (lam_max[base] + np.abs(shift)) + slack
        guard = np.flatnonzero(bound > GUARD_RTOL * sv[:, -1])
        sv[guard] = np.linalg.svd(_assemble(st, points[rows][np.ix_(guard, cols)], split), compute_uv=False)
        ranks[rows] = np.count_nonzero(sv > eps_rank * sv[:, 0:1], axis=1)

    if eps_mode == "abs":
        threshold = float(eps_sigma)
    else:
        floor = float(sv_all[:, d - nullity].min())
        threshold = float(eps_factor) * floor
        if not math.isfinite(threshold):
            raise ValueError(f"eps_factor={eps_factor!r} times the grid's noise floor {floor:.6g} overflows")
    # rows are sorted descending, so exactly `nullity` values fall below the
    # threshold when the nullity-th smallest does and the next one does not
    admitted = (sv_all[:, d - nullity] < threshold) & (sv_all[:, d - nullity - 1] >= threshold)

    best = None
    picked = np.flatnonzero(admitted)
    if picked.size:
        j = int(picked[np.argmin(sv_all[picked, -1])])  # argmin keeps the first on ties
        w, V = np.linalg.eigh(_assemble(st, bases[locate(np.array([j]))[0]], split)[0])
        # nearest eigenvalue last, like the trailing rows of an SVD's Vt
        near = np.argsort(np.abs(w - st.Nc * points[j, -1]))[nullity - 1 :: -1]
        best = Candidate(
            coords=dict(zip(AXIS_NAMES[len(axes)], points[j].tolist())),
            nullspace=SubspaceBasis(V[:, near].T),
            singular_values=sv_all[j].copy(),
        )

    return GridResult(
        axes=axes,
        points=points,
        singular_values=sv_all,
        ranks=ranks,
        admitted=admitted,
        threshold=threshold,
        nullity=nullity,
        best=best,
    )


def _landscape_rows(result: GridResult, lo: int, hi: int, fh) -> None:
    """Write landscape rows [lo, hi) to the text file fh, CHUNK_SIZE at a time.

    Each axis value is formatted once, with its trailing comma, and each row's
    ",rank,admitted" tail is looked up in a (d+1) x 2 table; a block's rows
    are written by one %-operation over a repeated row template, which
    formats sigma_min.
    """
    labels = [np.array(["%.17g," % v for v in a.tolist()], dtype=object) for a in result.axes]
    d = result.singular_values.shape[1]
    tails = np.array([[",%d,%d\n" % (r, a) for a in (0, 1)] for r in range(d + 1)], dtype=object)
    shape = tuple(a.size for a in result.axes)
    row = "%s" * len(shape) + "%.17g%s"
    for a in range(lo, hi, CHUNK_SIZE):
        b = min(a + CHUNK_SIZE, hi)
        block = np.empty((b - a, len(shape) + 2), dtype=object)
        for k, (lab, i) in enumerate(zip(labels, np.unravel_index(np.arange(a, b), shape))):
            block[:, k] = lab[i]
        block[:, -2] = result.sigma_min[a:b].tolist()
        block[:, -1] = tails[result.ranks[a:b], result.admitted[a:b].astype(np.intp)]
        fh.write(row * (b - a) % tuple(block.ravel().tolist()))


def write_landscape_csv(result: GridResult, path) -> None:
    """Write per-point sigma_min, numerical rank and admission to CSV.

    The rows are written in parts (lti_sim._write_parts), one value a row:
    its sigma_min is the one float formatted per row. The bytes are the same
    at any part count.
    """
    n = result.points.shape[0]
    header = ",".join(AXIS_NAMES[len(result.axes)]) + ",sigma_min,numerical_rank,admitted\n"
    lti_sim._write_parts((path,), header, n, n, functools.partial(_landscape_rows, result))


def write_candidate_json(cand: Candidate, path) -> None:
    """Write a candidate as JSON: its coordinates by axis name, sigma_min and null space rows."""
    obj = {**cand.coords, "sigma_min": cand.sigma_min, "nullspace": cand.nullspace.basis.tolist()}
    lti_sim._dump_json(obj, path)
