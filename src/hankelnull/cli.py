"""Command line driver for the full pipeline.

Subcommands: generate, aggregate, recover, validate, sweep. A run is pinned
down by a JSON config (or a named preset) plus flag overrides; every command
writes a manifest echoing the effective config, so a manifest can be fed
back as --config to reproduce the run. Exit codes: 0 success, 2 grid search
admitted no candidate, 3 invalid configuration or arguments, 4 I/O failure.
"""

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import lti_sim
from .estimator import (
    AXIS_NAMES,
    EPS_MODES,
    SubspaceBasis,
    grid_search,
    write_candidate_json,
    write_landscape_csv,
)
from .lti_sim import (
    NOISE_FAMILIES,
    X0_POLICIES,
    NoiseSpec,
    StateSpace,
    _dump_json,
    _load_json,
    _number_array,
    add_noise,
    generate_dataset,
)
from .stats import SufficientStats, _total, aggregate, load_stats, save_stats
from .validate import (
    convergence_study,
    subspace_angle,
    true_nullspace,
    write_convergence_csv,
    write_summary_csv,
)

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "config_from_dict",
    "config_to_dict",
    "main",
    "cmd_generate",
    "cmd_aggregate",
    "cmd_recover",
    "cmd_validate",
    "cmd_sweep",
]

# The scalar config fields: name -> (kind, default, flag help). A kind is
# int, float or the tuple of allowed strings. Parsing, checks, the manifest
# echo and the --flags all read this table.
_SCALARS = {
    "Nt": (int, 100, "number of experiments"),
    "N": (int, 30, "samples per experiment"),
    "L": (int, 2, "Hankel window depth"),
    "seed": (int, 0, "root seed"),
    "eps_sigma": (float, 1e-3, "admission threshold (abs mode)"),
    "eps_mode": (EPS_MODES, "abs", "admission threshold mode"),
    "eps_factor": (float, 2.0, "multiplier on the grid noise floor (auto mode)"),
    "eps_rank": (float, 1e-2, "relative cutoff for numerical rank"),
    "x0_policy": (X0_POLICIES, "random-bounded", "initial state policy"),
    "x0_halfwidth": (float, 1.0, "hypercube half-width for random initial states"),
}

# Every field a config may leave out. The grid's axis names choose the
# moment mode: AXIS_NAMES[2] ties the channels, AXIS_NAMES[4] splits them.
_DEFAULTS = {
    "noise": {"family": "gaussian", "m1": 0.0, "m2": 1.0},
    "grid": {"m1": [0.0, 1.5, 100], "m2": [2.5, 7.0, 100]},
    **{name: default for name, (_, default, _) in _SCALARS.items()},
}

# Third-order demo plant with two inputs and full state output. With L=2 the
# stacked Hankel matrix has d=10 rows, noiseless rank 7 and nullity 3. The
# seed is pinned so the shipped configuration recovers the injected moments
# out of the box; admission at this ensemble size is a minority event over
# random seeds. Fields not listed take their _DEFAULTS values.
_REFERENCE = {
    "system": {
        "A": [[0.8, -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]],
        "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    },
    "Nt": 10000,
    "noise": {"family": "gaussian", "m1": 1.0, "m2": 5.0},
    "grid": {"m1": [0.0, 1.5, 200], "m2": [2.5, 7.0, 200]},
    "eps_mode": "auto",
    "seed": 14,
}

PRESETS = {"reference": _REFERENCE}

# generate refuses clean records whose excitation (see _excitation) falls below this
EXCITATION_MIN = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: plant, ensemble sizes, noise, grid, thresholds."""

    system: StateSpace
    Nt: int
    N: int
    L: int
    noise_u: NoiseSpec
    noise_y: NoiseSpec
    grid: dict  # axis name -> (lo, hi, points), in AXIS_NAMES order
    eps_sigma: float
    eps_mode: str
    eps_factor: float
    eps_rank: float
    seed: int
    x0_policy: str
    x0_halfwidth: float

    def __post_init__(self):
        if self.Nt < 1 or self.N < 1 or self.L < 1:
            raise ValueError("Nt, N and L must all be positive")
        if self.N < self.L:
            raise ValueError(f"N={self.N} is shorter than the window depth L={self.L}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        for name, (kind, _, _) in _SCALARS.items():
            value = getattr(self, name)
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"{name} must be one of {kind}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, (lo, hi, points) in self.grid.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid axis {name!r} needs finite bounds, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"grid axis {name!r} needs lo < hi, got [{lo}, {hi}]")
            if points < 1:
                raise ValueError(f"grid axis {name!r} needs at least one point, got {points}")
        if self.eps_sigma <= 0 or self.eps_factor <= 0 or self.eps_rank <= 0:
            raise ValueError("eps_sigma, eps_factor and eps_rank must be positive")

    @property
    def d(self) -> int:
        return (self.system.m + self.system.p) * self.L

    @property
    def nullity(self) -> int:
        return self.system.p * self.L - self.system.n

    @property
    def input_rows(self) -> int:
        return self.system.m * self.L

    def search(self, fin, axes):
        """grid_search of fin over axes with this config's thresholds, nullity and input rows."""
        return grid_search(fin, axes, self.eps_sigma, self.nullity, eps_mode=self.eps_mode,
                           eps_factor=self.eps_factor, eps_rank=self.eps_rank, input_rows=self.input_rows)

    def axes(self) -> tuple:
        """The grid's axes. A grid whose landscape, d singular values a
        point, cannot be mapped into memory raises, naming its point count."""
        points = math.prod(int(n) for _, _, n in self.grid.values())
        # an anonymous mapping, dropped unwritten: it takes no memory and
        # leaves numpy's allocator as it was
        lti_sim._shared_empty((points, self.d), f"a grid of {points} points does not fit in memory")
        return tuple(np.linspace(lo, hi, int(n)) for lo, hi, n in self.grid.values())


def config_from_dict(obj: dict) -> ExperimentConfig:
    """Build a validated config from a plain JSON-style dict.

    Missing fields take their _DEFAULTS values. The grid's axis names must
    be one of the AXIS_NAMES sets, and they choose the moment mode; the
    `moment_mode` key of older configs and manifests is accepted when it
    agrees with them. A key it does not know, at the top level or inside
    system or noise, raises, naming every such key, except the top-level
    `workers` key of versions that ran threads, which is ignored.
    """
    _known_keys(obj, "config", {"system", "workers", "moment_mode", *_DEFAULTS})
    obj = {**_DEFAULTS, **obj}
    sys_spec = obj.get("system")
    if sys_spec is None:
        raise ValueError("config has no system; give matrices inline or use a preset")
    if not isinstance(sys_spec, dict):
        raise ValueError(f"system must be an object with matrices A, B, C, D, got {sys_spec!r}")
    _known_keys(sys_spec, "system", ("A", "B", "C", "D"))
    try:
        matrices = [_number_array("config", f"system.{k}", sys_spec[k]) for k in "ABCD"]
    except KeyError as e:
        raise ValueError(f"system spec is missing matrix {e.args[0]!r}") from None
    try:
        system = StateSpace(*matrices)
    except ValueError as err:
        # a StateSpace message starts with the matrix it names
        raise ValueError(f"system.{err}") from None

    noise = obj["noise"]
    if not isinstance(noise, dict):
        raise ValueError(f"noise must be an object, got {noise!r}")
    if "u" in noise or "y" in noise:
        if "u" not in noise or "y" not in noise:
            raise ValueError("per-channel noise needs both 'u' and 'y' specs")
        _known_keys(noise, "noise", ("u", "y"))
        noise_u, noise_y = _noise_spec(noise["u"], "noise.u"), _noise_spec(noise["y"], "noise.y")
    else:
        noise_u = noise_y = _noise_spec(noise, "noise")

    grid_spec = obj["grid"]
    if not isinstance(grid_spec, dict):
        raise ValueError(f"grid must map axis names to [lo, hi, points], got {grid_spec!r}")
    names = next((n for n in AXIS_NAMES.values() if set(n) == set(grid_spec)), None)
    if names is None:
        raise ValueError(
            f"grid axes {sorted(grid_spec)} must be {list(AXIS_NAMES[2])} (tied moments) "
            f"or {list(AXIS_NAMES[4])} (input and output separate)"
        )
    mode = obj.get("moment_mode")
    if mode is not None and mode != ("identical" if len(names) == 2 else "distinct"):
        raise ValueError(f"moment_mode {mode!r} disagrees with the grid axes {list(names)}")
    grid = {}
    for name in names:
        axis = grid_spec[name]
        bad = f"grid axis {name!r} must be [lo, hi, points] with an integer count of points, got {axis!r}"
        if not (isinstance(axis, (list, tuple)) and len(axis) == 3):
            raise ValueError(bad)
        try:
            grid[name] = (_parse(name, float, axis[0]), _parse(name, float, axis[1]), _parse("points", int, axis[2]))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(bad) from None

    return ExperimentConfig(
        system=system,
        noise_u=noise_u,
        noise_y=noise_y,
        grid=grid,
        **{name: _parse(name, kind, obj[name]) for name, (kind, _, _) in _SCALARS.items()},
    )


def _known_keys(obj: dict, field: str, keys) -> None:
    """Raise naming every key of the object at field that is not in keys."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(f"{field} has unknown keys {unknown}")


def _noise_spec(spec, field: str) -> NoiseSpec:
    if isinstance(spec, dict):
        _known_keys(spec, field, ("family", "m1", "m2"))
    try:
        family, m1, m2 = spec["family"], _parse(field, float, spec["m1"]), _parse(field, float, spec["m2"])
    except (TypeError, KeyError, ValueError, OverflowError):
        raise ValueError(f"{field} must be an object with a family and numbers m1, m2, got {spec!r}") from None
    return lti_sim._named(field, NoiseSpec, family, m1, m2)


def _parse(name: str, kind, value):
    """A scalar value as its kind. A number is not a bool or a string, and
    an int is integral.

    A string kind is left to ExperimentConfig to check against its choices.
    """
    if isinstance(kind, tuple):
        return str(value)
    bad = f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, (bool, str)):
        raise ValueError(bad)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(bad) from None
    if kind is int and isinstance(value, float) and number != value:
        raise ValueError(bad)  # int() truncated a non-integral float
    return number


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "system": {k: getattr(cfg.system, k).tolist() for k in "ABCD"},
        **{name: getattr(cfg, name) for name in _SCALARS},
        "noise": {"u": asdict(cfg.noise_u), "y": asdict(cfg.noise_y)},
        "grid": {name: list(axis) for name, axis in cfg.grid.items()},
    }


def _load_config_file(path) -> dict:
    obj = _load_json(path)
    if isinstance(obj, dict) and "config" in obj and "command" in obj:
        obj = obj["config"]  # a manifest doubles as a config
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a config must be a JSON object, got {type(obj).__name__}")
    return obj


def _flags(args, prefix: str, keys) -> dict:
    """The given --prefix-key flags, by key, that the command line set."""
    values = {key: getattr(args, prefix + key, None) for key in keys}
    return {key: v for key, v in values.items() if v is not None}


def _apply_flag_overrides(obj: dict, args) -> None:
    obj.update(_flags(args, "", _SCALARS))
    # a noise or grid value that is not an object is left for config_from_dict to reject
    noise, flags = obj.get("noise", _DEFAULTS["noise"]), _flags(args, "noise_", ("family", "m1", "m2"))
    if isinstance(noise, dict) and flags:
        if "u" in noise and "y" in noise:
            obj["noise"] = {ch: {**noise[ch], **flags} if isinstance(noise[ch], dict) else noise[ch] for ch in "uy"}
        else:
            obj["noise"] = {**noise, **flags}
    grid, flags = obj.get("grid", _DEFAULTS["grid"]), _flags(args, "grid_", AXIS_NAMES[2])
    if isinstance(grid, dict) and flags:
        obj["grid"] = {**grid, **flags}  # config_from_dict parses POINTS like a config's


def resolve_config(args) -> ExperimentConfig:
    # flag overrides replace top-level keys, so a shallow copy keeps PRESETS intact
    obj = dict(PRESETS[args.preset]) if args.preset is not None else {}
    if args.config is not None:
        obj.update(_load_config_file(args.config))
    _apply_flag_overrides(obj, args)
    return config_from_dict(obj)


class _Run:
    """One command's run: its stage seconds, its output files and --out.

    A stage's seconds leave out those of the stages entered inside it, and
    a stage entered again adds to its name. A stage entered in a forked
    part adds to that child's copy alone. --out is made at the first
    output file, so a run refused before it writes leaves no directory.
    """

    def __init__(self, command: str, cfg: ExperimentConfig, out_dir):
        self.command, self.cfg, self.out = command, cfg, Path(out_dir)
        self.timings, self.outputs, self._inner, self._made = {}, {}, 0.0, False

    @contextlib.contextmanager
    def stage(self, name: str):
        # _inner sums the seconds of the stages entered inside the open one
        outer, self._inner = self._inner, 0.0
        t0 = time.perf_counter()
        yield
        spent = time.perf_counter() - t0
        self.timings[name] = self.timings.get(name, 0.0) + spent - self._inner
        self._inner = outer + spent

    def output(self, name: str, filename: str) -> Path:
        """Record an output file under name and return its path in --out."""
        if not self.out.is_dir():
            self.out.mkdir(parents=True)
            self._made = True
        self.outputs[name] = filename
        return self.out / filename

    def discard(self) -> None:
        """Remove the output files recorded so far, and --out if this run made it."""
        for filename in self.outputs.values():
            (self.out / filename).unlink(missing_ok=True)
        if self._made:
            self.out.rmdir()

    def manifest(self, **extra) -> None:
        """Write manifest.json. cpus is the count of CPUs the run could use
        (lti_sim._cpus), from which every forked part count follows."""
        obj = {"command": self.command, "config": config_to_dict(self.cfg), "timings": self.timings, "outputs": self.outputs, "cpus": lti_sim._cpus(), **extra}
        _dump_json(obj, self.out / "manifest.json", indent=2)


def _dataset_stats(cfg: ExperimentConfig, path, run: _Run) -> SufficientStats:
    """Aggregate a dataset file that matches the config, one block at a time.

    The meta header is checked against the config before any record is
    read. The reader (see lti_sim._DatasetReader) hands over each block k
    as it is parsed; its aggregate goes into row k of shared arrays, and
    the rows are summed here in block order, bitwise as aggregate sums a
    whole dataset. The run's aggregate_s counts this process's seconds in
    aggregate and the final sum, and load_s the rest of the read. Sums
    that overflow (see SufficientStats) raise, naming the file.
    """
    with run.stage("load_s"), lti_sim._DatasetReader(path) as rd:
        if (rd.N, rd.m, rd.p) != (cfg.N, cfg.system.m, cfg.system.p):
            raise ValueError(f"{path}: dataset (N={rd.N}, m={rd.m}, p={rd.p}) does not match the config")
        G, rowsum = rd.shared((rd.blocks, cfg.d, cfg.d)), rd.shared((rd.blocks, cfg.d))

        def block(k: int, ds) -> None:
            with run.stage("aggregate_s"):
                st = lti_sim._named(path, aggregate, ds, cfg.L)
                G[k], rowsum[k] = st.G, st.rowsum

        rd.read(block)
    with run.stage("aggregate_s"):
        return lti_sim._named(path, _total, G, rowsum, cfg.N - cfg.L + 1, rd.Nt)


def _excitation(st: SufficientStats, nullity: int) -> float:
    """How well the records of a clean aggregate excite the plant together:
    the (nullity + 1)-th smallest eigenvalue of its Gram sum over the
    largest. Clean records of a plant whose noiseless nullity is nullity
    span at most d - nullity directions, so the ratio is at rounding level
    (or negative) when they span fewer."""
    w = np.linalg.eigvalsh(st.G)
    return float(w[nullity] / w[-1]) if w[-1] > 0.0 else 0.0


def cmd_generate(cfg: ExperimentConfig, out_dir) -> int:
    """Write the noisy and noiseless datasets one block of records at a time.

    Records [a, b) come from generate_dataset and add_noise on roots whose
    next child streams are the ones a whole-ensemble run gives them (see
    lti_sim), so the bytes are those of the whole ensemble generated, then
    perturbed, from one root of the seed. Each clean block is aggregated
    into row k of shared arrays, as _dataset_stats aggregates a file, and
    the rows are summed once the files are written. The manifest records
    the sum's excitation (see _excitation). One below EXCITATION_MIN, or a
    sum that overflows, raises ValueError after the files, and an --out
    this run made, are removed. Timings: generate_s, aggregate_s and
    noise_s are this process's seconds in generate_dataset, in aggregate
    and the excitation, and in add_noise; write_s is the rest of the write.
    """
    # the library's checks of generate_dataset's arguments, before --out is made,
    # and of the plant: data of one whose noiseless nullity is not p*L - n never pass
    lti_sim._generation_plan(cfg.Nt, cfg.N, cfg.L, cfg.x0_policy, cfg.x0_halfwidth)
    true_nullspace(cfg.system, cfg.L)
    blocks = -(-cfg.Nt // lti_sim.BLOCK_SIZE)
    too_big = f"Nt={cfg.Nt} records' block sums do not fit in memory"
    G, rowsum = lti_sim._shared_empty((blocks, cfg.d, cfg.d), too_big), lti_sim._shared_empty((blocks, cfg.d), too_big)
    run = _Run("generate", cfg, out_dir)

    def root(spawned: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, n_children_spawned=spawned))

    def block(a: int, b: int) -> tuple:
        with run.stage("generate_s"):
            clean = generate_dataset(cfg.system, b - a, cfg.N, cfg.L, cfg.x0_policy, root(a), x0_halfwidth=cfg.x0_halfwidth)
        with run.stage("aggregate_s"):
            st = aggregate(clean, cfg.L)
            G[a // lti_sim.BLOCK_SIZE], rowsum[a // lti_sim.BLOCK_SIZE] = st.G, st.rowsum
        with run.stage("noise_s"):
            return add_noise(clean, cfg.noise_u, cfg.noise_y, root(cfg.Nt + a)), clean

    try:
        with run.stage("write_s"):
            paths = (run.output("noisy", "dataset_noisy.jsonl"), run.output("noiseless", "dataset_noiseless.jsonl"))
            lti_sim._write_datasets(paths, cfg.Nt, cfg.N, cfg.system.m, cfg.system.p, block)
        with run.stage("aggregate_s"):
            excitation = _excitation(_total(G, rowsum, cfg.N - cfg.L + 1, cfg.Nt), cfg.nullity)
        if excitation < EXCITATION_MIN:
            raise ValueError(
                f"the clean records do not excite the plant together: excitation={excitation:.3g}, the clean Gram "
                f"sum's (nullity + 1)-th smallest eigenvalue over its largest, is below {EXCITATION_MIN:g}"
            )
    except ValueError:
        run.discard()
        raise
    run.manifest(excitation=excitation)
    print(f"generated {cfg.Nt} experiments of length {cfg.N} into {run.out}")
    return 0


def cmd_aggregate(cfg: ExperimentConfig, dataset_path, out_dir) -> int:
    run = _Run("aggregate", cfg, out_dir)
    st = _dataset_stats(cfg, dataset_path, run)
    path = run.output("stats", "stats.json")
    save_stats(st, path)
    run.manifest()
    print(f"aggregated {st.count} experiments into {path}")
    return 0


def _diagnostics(res) -> dict:
    """Why the grid search admitted what it did.

    below_threshold counts grid points by how many singular values fall
    below the threshold (entry c is the number of points with c of them);
    admission needs exactly `nullity`. spectral_gap is s[d-k-1] / s[d-k] at
    the best point, the smallest kept singular value over the largest null
    one, and best_on_edge says whether any coordinate of the best point is
    an endpoint of its axis, where the optimum may lie outside the grid.
    When nothing is admitted, nearest_miss is the grid point with the
    smallest nullity-th-smallest singular value (the first in grid order on
    ties): its coordinates by axis name and its below_threshold count.
    """
    sv = res.singular_values
    counts = np.count_nonzero(sv < res.threshold, axis=1)
    diag = {
        "threshold": res.threshold,
        "admitted": int(res.admitted.sum()),
        "below_threshold": np.bincount(counts, minlength=sv.shape[1] + 1).tolist(),
        "spectral_gap": None,
        "best_on_edge": None,
        "nearest_miss": None,
    }
    if res.best is None:
        j = int(np.argmin(sv[:, sv.shape[1] - res.nullity]))
        point = dict(zip(AXIS_NAMES[len(res.axes)], res.points[j].tolist()))
        diag["nearest_miss"] = {"point": point, "below_threshold": int(counts[j])}
    else:
        s, k = res.best.singular_values, res.nullity
        if s[-k] > 0.0:
            diag["spectral_gap"] = float(s[-k - 1] / s[-k])
        diag["best_on_edge"] = any(v in (a.min(), a.max()) for v, a in zip(res.best.coords.values(), res.axes))
    return diag


def _label(coords: dict) -> str:
    return " ".join(f"{name}={v:.6g}" for name, v in coords.items())


def cmd_recover(cfg: ExperimentConfig, dataset_path, stats_path, out_dir) -> int:
    if (dataset_path is None) == (stats_path is None):
        raise ValueError("give exactly one of --dataset or --stats")
    axes = cfg.axes()
    # the grid search takes nullity p*L - n on trust: the plant's own data must have it
    true_nullspace(cfg.system, cfg.L)
    run = _Run("recover", cfg, out_dir)
    if stats_path is not None:
        with run.stage("load_s"):
            st = load_stats(stats_path)
            if st.d != cfg.d or st.Nc != cfg.N - cfg.L + 1:
                raise ValueError(f"{stats_path}: stats (d={st.d}, Nc={st.Nc}) do not match the config")
    else:
        st = _dataset_stats(cfg, dataset_path, run)
    fin = st.finalize()
    with run.stage("grid_s"):
        res = cfg.search(fin, axes)
    with run.stage("write_s"):
        if stats_path is None:
            save_stats(st, run.output("stats", "stats.json"))
        write_landscape_csv(res, run.output("landscape", "landscape.csv"))
        if res.best is not None:
            write_candidate_json(res.best, run.output("candidate", "candidate.json"))
    diag = _diagnostics(res)
    run.manifest(diagnostics=diag)
    if res.best is None:
        print(f"no admitted candidate over {res.points.shape[0]} grid points; landscape written to {run.out}")
        print(
            f"threshold {diag['threshold']:.6g}; admission needs exactly {res.nullity} singular values below it; "
            f"grid points by count below: {diag['below_threshold']}"
        )
        miss = diag["nearest_miss"]
        print(f"nearest miss {_label(miss['point'])} with {miss['below_threshold']} singular values below the threshold")
        return 2
    print(f"best candidate {_label(res.best.coords)} sigma_min={res.best.sigma_min:.6g} ({diag['admitted']} admitted)")
    return 0


def cmd_validate(cfg: ExperimentConfig, candidate_path, out_dir) -> int:
    obj = _load_json(candidate_path)
    if not isinstance(obj, dict) or "nullspace" not in obj:
        raise ValueError(f"{candidate_path}: a candidate must be a JSON object with a nullspace key")
    basis = _number_array(candidate_path, "nullspace", obj["nullspace"])
    run = _Run("validate", cfg, out_dir)
    with run.stage("true_nullspace_s"):
        V_true = true_nullspace(cfg.system, cfg.L)
    with run.stage("angle_s"):
        if basis.shape != V_true.basis.shape:
            raise ValueError(f"{candidate_path}: candidate null space has shape {basis.shape}, expected {V_true.basis.shape}")
        err = subspace_angle(V_true, lti_sim._named(candidate_path, SubspaceBasis, basis))
    report = {
        "theta_max": err.theta_max,
        "singular_values": [float(v) for v in err.singular_values],
        "candidate": {k: obj[k] for k in obj if k != "nullspace"},
    }
    _dump_json(report, run.output("report", "subspace_error.json"), indent=2)
    run.manifest()
    print(f"theta_max={err.theta_max:.6g} rad")
    return 0


def cmd_sweep(cfg: ExperimentConfig, nt_list, seeds, out_dir) -> int:
    axes = cfg.axes()
    run = _Run("sweep", cfg, out_dir)
    with run.stage("sweep_s"):
        res = convergence_study(
            cfg.system, cfg.noise_u, cfg.noise_y, cfg.L, nt_list, seeds,
            lambda fin: cfg.search(fin, axes).best,
            N=cfg.N, x0_policy=cfg.x0_policy, x0_halfwidth=cfg.x0_halfwidth,
        )
    write_convergence_csv(res, run.output("convergence", "convergence.csv"))
    write_summary_csv(res, run.output("summary", "summary.csv"))
    run.manifest(Nt_list=list(nt_list), seeds=list(seeds))
    for Nt, med in res.medians:
        print(f"Nt={Nt} median theta_max={med:.6g}")
    return 0


def _int_list(text: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    # the flags every subcommand takes: the config, its overrides and --out
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; a run manifest also works")
    common.add_argument("--preset", choices=sorted(PRESETS), help="start from a built-in configuration")
    for name, (kind, _, help_text) in _SCALARS.items():
        parse = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        common.add_argument("--" + name.replace("_", "-"), **parse, help=help_text)
    common.add_argument("--workers", type=int, help="ignored; kept so older command lines still parse")
    common.add_argument("--noise-family", choices=NOISE_FAMILIES, help="noise family for both channels")
    common.add_argument("--noise-m1", type=float, help="first raw noise moment for both channels")
    common.add_argument("--noise-m2", type=float, help="second raw noise moment for both channels")
    common.add_argument("--grid-m1", nargs=3, type=float, metavar=("LO", "HI", "POINTS"), help="first-moment axis m1 of a tied grid")
    common.add_argument("--grid-m2", nargs=3, type=float, metavar=("LO", "HI", "POINTS"), help="second-moment axis m2 of a tied grid")
    common.add_argument("--out", required=True, help="output directory")

    ap = argparse.ArgumentParser(prog="hankelnull", description="Recover LTI behavioral invariants from noisy fragmented data.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", parents=[common], help="simulate an ensemble and write noiseless and noisy datasets")
    sp.set_defaults(run=lambda cfg, a: cmd_generate(cfg, a.out))

    sp = sub.add_parser("aggregate", parents=[common], help="fold a dataset into its sufficient statistics")
    sp.set_defaults(run=lambda cfg, a: cmd_aggregate(cfg, a.dataset, a.out))
    sp.add_argument("--dataset", required=True, help="dataset JSONL path")

    sp = sub.add_parser("recover", parents=[common], help="grid-search noise moments and extract the null space")
    sp.set_defaults(run=lambda cfg, a: cmd_recover(cfg, a.dataset, a.stats, a.out))
    sp.add_argument("--dataset", help="dataset JSONL path (aggregated first)")
    sp.add_argument("--stats", help="stats snapshot path (skips aggregation)")

    sp = sub.add_parser("validate", parents=[common], help="score a recovered null space against the model's true one")
    sp.set_defaults(run=lambda cfg, a: cmd_validate(cfg, a.candidate, a.out))
    sp.add_argument("--candidate", required=True, help="candidate JSON path")

    sp = sub.add_parser("sweep", parents=[common], help="repeat the pipeline over ensemble sizes and seeds")
    sp.set_defaults(run=lambda cfg, a: cmd_sweep(cfg, a.Nt_list, a.seeds, a.out))
    sp.add_argument("--Nt-list", type=_int_list, required=True, help="comma-separated ensemble sizes")
    sp.add_argument("--seeds", type=_int_list, required=True, help="comma-separated seeds")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad arguments, a code this tool keeps for
        # "no admitted candidate"; bad arguments are a config error instead
        return 3 if e.code == 2 else e.code if isinstance(e.code, int) else 0
    try:
        return args.run(resolve_config(args), args)
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 4
    except (ValueError, RuntimeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
