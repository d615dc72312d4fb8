"""Output checks for the benchmark's operations.

Each check returns a list of failure messages; an empty list means the
output passed. The checks read the files the CLI writes and recompute
through the public API (`assemble_M`, `aggregate`) and plain numpy, paths
that a faster estimator or a new dataset format does not replace.
"""

import numpy as np

from hankelnull import MomentPoint, assemble_M

SAMPLES = 50  # landscape rows re-derived per operation
SIGMA_RTOL = 1e-9
ORTHO_TOL = 1e-10
# Acceptance bands: half-widths of |estimate - injected| for the first and
# second raw noise moment. A moment error <= 1 lies inside its band.
HALF_WIDTHS = (0.15, 0.30)


def landscape(path, expected_rows: int, fin, input_rows: int, rng) -> list:
    """One row per grid point, and sampled sigma_min re-derived by SVD.

    The file is streamed and only the sampled rows are kept, so the check
    adds little to the process's peak memory.
    """
    wanted = set(rng.choice(expected_rows, size=min(SAMPLES, expected_rows), replace=False).tolist())
    picked, n = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        cols = fh.readline().rstrip("\n").split(",")
        for line in fh:
            if n in wanted:
                picked.append(line.rstrip("\n").split(","))
            n += 1
    fails = []
    if n != expected_rows:
        fails.append(f"{path.name}: {n} rows, expected one per grid point ({expected_rows})")
    if not picked:
        return fails
    k = cols.index("sigma_min")
    points = np.array([[float(v) for v in r[:k]] for r in picked])
    sigma = np.array([float(r[k]) for r in picked])
    return fails + sigma_min(fin, points, sigma, input_rows)


def sigma_min(fin, points, sigma, input_rows: int) -> list:
    """Each reported sigma_min within SIGMA_RTOL of the SVD at its point."""
    fails = []
    for pt, got in zip(points, sigma):
        mp = MomentPoint.identical(*pt) if len(pt) == 2 else MomentPoint(*pt)
        want = np.linalg.svd(assemble_M(fin, mp, input_rows), compute_uv=False)[-1]
        if not abs(got - want) <= SIGMA_RTOL * abs(want):
            fails.append(f"sigma_min {got!r} at {tuple(pt)} differs from SVD {want!r}")
    return fails


def orthonormal(basis, nullity: int) -> list:
    """The candidate basis has `nullity` orthonormal rows."""
    V = np.atleast_2d(np.asarray(basis, dtype=float))
    if V.shape[0] != nullity:
        return [f"candidate basis has {V.shape[0]} rows, expected {nullity}"]
    dev = float(np.max(np.abs(V @ V.T - np.eye(nullity))))
    if not dev <= ORTHO_TOL:
        return [f"candidate basis is not orthonormal (max |V V^T - I| = {dev:.3g})"]
    return []


def same_stats(got, want) -> list:
    """Bitwise equality of two aggregates: count, G and rowsum."""
    if got.count != want.count:
        return [f"stats count {got.count} != {want.count}"]
    if got.G.tobytes() != want.G.tobytes() or got.rowsum.tobytes() != want.rowsum.tobytes():
        return ["stats.json is not bitwise equal to aggregate over the in-memory ensemble"]
    return []


def moment_err(estimate: dict, injected: tuple) -> float:
    """Largest |estimate - injected| / half-width over channels and moments.

    estimate maps moment names (m1, m2 or m1u, m2u, m1y, m2y) to values;
    the trailing digit of the name picks the half-width.
    """
    return max(
        abs(v - injected[int(name[1]) - 1]) / HALF_WIDTHS[int(name[1]) - 1]
        for name, v in estimate.items()
    )
