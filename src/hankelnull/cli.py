"""Command line driver for the full pipeline.

Subcommands: generate, aggregate, recover, validate, sweep. A run is pinned
down by a JSON config (or a named preset) plus flag overrides; every command
writes a manifest echoing the effective config, so a manifest can be fed
back as --config to reproduce the run. Exit codes: 0 success, 2 grid search
admitted no candidate, 3 invalid configuration or arguments, 4 I/O failure.
"""

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import (
    EPS_MODES,
    SubspaceBasis,
    grid_search,
    write_candidate_json,
    write_landscape_csv,
)
from .lti_sim import (
    NOISE_FAMILIES,
    NoiseSpec,
    StateSpace,
    add_noise,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .stats import aggregate, load_stats, save_stats
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

# Third-order demo plant with two inputs and full state output. With L=2 the
# stacked Hankel matrix has d=10 rows, noiseless rank 7 and nullity 3. The
# seed is pinned so the shipped configuration recovers the injected moments
# out of the box; admission at this ensemble size is a minority event over
# random seeds.
_REFERENCE = {
    "system": {
        "A": [[0.8, -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]],
        "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    },
    "Nt": 10000,
    "N": 30,
    "L": 2,
    "noise": {"family": "gaussian", "m1": 1.0, "m2": 5.0},
    "grid": {"m1": [0.0, 1.5, 200], "m2": [2.5, 7.0, 200]},
    "eps_sigma": 1e-3,
    "eps_mode": "auto",
    "eps_factor": 2.0,
    "eps_rank": 1e-2,
    "seed": 14,
    "x0_policy": "random-bounded",
    "x0_halfwidth": 1.0,
    "moment_mode": "identical",
}

PRESETS = {"reference": _REFERENCE}

_DEFAULTS = {
    "Nt": 100,
    "N": 30,
    "L": 2,
    "noise": {"family": "gaussian", "m1": 0.0, "m2": 1.0},
    "grid": {"m1": [0.0, 1.5, 100], "m2": [2.5, 7.0, 100]},
    "eps_sigma": 1e-3,
    "eps_mode": "abs",
    "eps_factor": 2.0,
    "eps_rank": 1e-2,
    "seed": 0,
    "x0_policy": "random-bounded",
    "x0_halfwidth": 1.0,
    "moment_mode": "identical",
}

_AXIS_NAMES = {"identical": ("m1", "m2"), "distinct": ("m1u", "m2u", "m1y", "m2y")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: plant, ensemble sizes, noise, grid, thresholds."""

    system: StateSpace
    Nt: int
    N: int
    L: int
    noise_u: NoiseSpec
    noise_y: NoiseSpec
    grid: tuple  # per-axis (lo, hi, points)
    eps_sigma: float
    eps_mode: str
    eps_factor: float
    eps_rank: float
    seed: int
    x0_policy: str
    x0_halfwidth: float
    moment_mode: str

    def __post_init__(self):
        if self.Nt < 1 or self.N < 1 or self.L < 1:
            raise ValueError("Nt, N and L must all be positive")
        if self.N < self.L:
            raise ValueError(f"N={self.N} is shorter than the window depth L={self.L}")
        if self.moment_mode not in _AXIS_NAMES:
            raise ValueError(f"moment_mode must be one of {tuple(_AXIS_NAMES)}, got {self.moment_mode!r}")
        if self.eps_mode not in EPS_MODES:
            raise ValueError(f"eps_mode must be one of {EPS_MODES}, got {self.eps_mode!r}")
        names = _AXIS_NAMES[self.moment_mode]
        if len(self.grid) != len(names):
            raise ValueError(f"{self.moment_mode} mode needs {len(names)} grid axes, got {len(self.grid)}")
        for name, (lo, hi, points) in zip(names, self.grid):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid axis {name!r} needs finite bounds, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"grid axis needs lo < hi, got [{lo}, {hi}]")
            if points < 1:
                raise ValueError(f"grid axis needs at least one point, got {points}")
        for name in ("eps_sigma", "eps_factor", "eps_rank", "x0_halfwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eps_sigma <= 0 or self.eps_factor <= 0 or self.eps_rank <= 0:
            raise ValueError("eps_sigma, eps_factor and eps_rank must be positive")
        if self.x0_policy not in ("zero", "random-bounded"):
            raise ValueError(f"unknown x0 policy {self.x0_policy!r}")

    @property
    def d(self) -> int:
        return (self.system.m + self.system.p) * self.L

    @property
    def nullity(self) -> int:
        return self.system.p * self.L - self.system.n

    @property
    def input_rows(self) -> int:
        return self.system.m * self.L

    def axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, int(points)) for lo, hi, points in self.grid)


def config_from_dict(obj: dict) -> ExperimentConfig:
    """Build a validated config from a plain JSON-style dict.

    Keys it does not know are ignored, such as the `workers` key of configs
    and manifests from versions that ran threads.
    """
    sys_spec = obj.get("system")
    if sys_spec is None:
        raise ValueError("config has no system; give matrices inline or use a preset")
    if "preset" in sys_spec:
        name = sys_spec["preset"]
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}, available: {sorted(PRESETS)}")
        sys_spec = PRESETS[name]["system"]
    try:
        system = StateSpace(sys_spec["A"], sys_spec["B"], sys_spec["C"], sys_spec["D"])
    except KeyError as e:
        raise ValueError(f"system spec is missing matrix {e.args[0]!r}") from None

    noise = obj.get("noise", _DEFAULTS["noise"])
    if "u" in noise or "y" in noise:
        if "u" not in noise or "y" not in noise:
            raise ValueError("per-channel noise needs both 'u' and 'y' specs")
        spec_u, spec_y = noise["u"], noise["y"]
    else:
        spec_u = spec_y = noise
    noise_u = NoiseSpec(spec_u["family"], float(spec_u["m1"]), float(spec_u["m2"]))
    noise_y = NoiseSpec(spec_y["family"], float(spec_y["m1"]), float(spec_y["m2"]))

    moment_mode = obj.get("moment_mode", _DEFAULTS["moment_mode"])
    names = _AXIS_NAMES.get(moment_mode)
    if names is None:
        raise ValueError(f"moment_mode must be one of {tuple(_AXIS_NAMES)}, got {moment_mode!r}")
    grid_spec = obj.get("grid", _DEFAULTS["grid"])
    axes = []
    for name in names:
        if name not in grid_spec:
            raise ValueError(f"grid is missing axis {name!r} for {moment_mode} mode")
        lo, hi, points = grid_spec[name]
        axes.append((float(lo), float(hi), int(points)))

    return ExperimentConfig(
        system=system,
        Nt=int(obj.get("Nt", _DEFAULTS["Nt"])),
        N=int(obj.get("N", _DEFAULTS["N"])),
        L=int(obj.get("L", _DEFAULTS["L"])),
        noise_u=noise_u,
        noise_y=noise_y,
        grid=tuple(axes),
        eps_sigma=float(obj.get("eps_sigma", _DEFAULTS["eps_sigma"])),
        eps_mode=str(obj.get("eps_mode", _DEFAULTS["eps_mode"])),
        eps_factor=float(obj.get("eps_factor", _DEFAULTS["eps_factor"])),
        eps_rank=float(obj.get("eps_rank", _DEFAULTS["eps_rank"])),
        seed=int(obj.get("seed", _DEFAULTS["seed"])),
        x0_policy=str(obj.get("x0_policy", _DEFAULTS["x0_policy"])),
        x0_halfwidth=float(obj.get("x0_halfwidth", _DEFAULTS["x0_halfwidth"])),
        moment_mode=moment_mode,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    names = _AXIS_NAMES[cfg.moment_mode]
    return {
        "system": {
            "A": cfg.system.A.tolist(),
            "B": cfg.system.B.tolist(),
            "C": cfg.system.C.tolist(),
            "D": cfg.system.D.tolist(),
        },
        "Nt": cfg.Nt,
        "N": cfg.N,
        "L": cfg.L,
        "noise": {
            "u": {"family": cfg.noise_u.family, "m1": cfg.noise_u.m1, "m2": cfg.noise_u.m2},
            "y": {"family": cfg.noise_y.family, "m1": cfg.noise_y.m1, "m2": cfg.noise_y.m2},
        },
        "grid": {name: list(axis) for name, axis in zip(names, cfg.grid)},
        "eps_sigma": cfg.eps_sigma,
        "eps_mode": cfg.eps_mode,
        "eps_factor": cfg.eps_factor,
        "eps_rank": cfg.eps_rank,
        "seed": cfg.seed,
        "x0_policy": cfg.x0_policy,
        "x0_halfwidth": cfg.x0_halfwidth,
        "moment_mode": cfg.moment_mode,
    }


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if "config" in obj and "command" in obj:
        obj = obj["config"]  # a manifest doubles as a config
    return obj


def _apply_flag_overrides(obj: dict, args) -> None:
    for key in (
        "Nt", "N", "L", "seed",
        "eps_sigma", "eps_mode", "eps_factor", "eps_rank",
        "x0_policy", "x0_halfwidth", "moment_mode",
    ):
        v = getattr(args, key, None)
        if v is not None:
            obj[key] = v
    if args.noise_family is not None or args.noise_m1 is not None or args.noise_m2 is not None:
        base = obj.get("noise", _DEFAULTS["noise"])

        def upd(spec):
            new = dict(spec)
            if args.noise_family is not None:
                new["family"] = args.noise_family
            if args.noise_m1 is not None:
                new["m1"] = args.noise_m1
            if args.noise_m2 is not None:
                new["m2"] = args.noise_m2
            return new

        if "u" in base:
            obj["noise"] = {"u": upd(base["u"]), "y": upd(base["y"])}
        else:
            obj["noise"] = upd(base)
    grid_flags = {"m1": args.grid_m1, "m2": args.grid_m2}
    if any(v is not None for v in grid_flags.values()):
        grid = dict(obj.get("grid", _DEFAULTS["grid"]))
        for name, v in grid_flags.items():
            if v is not None:
                grid[name] = [v[0], v[1], int(v[2])]
        obj["grid"] = grid


def resolve_config(args) -> ExperimentConfig:
    obj = {}
    if args.preset is not None:
        obj.update(copy.deepcopy(PRESETS[args.preset]))
    if args.config is not None:
        obj.update(_load_config_file(args.config))
    _apply_flag_overrides(obj, args)
    merged = {**_DEFAULTS, **obj}
    return config_from_dict(merged)


def _write_manifest(path, command: str, cfg: ExperimentConfig, timings: dict, outputs: dict) -> None:
    obj = {"command": command, "config": config_to_dict(cfg), "timings": timings, "outputs": outputs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_matching_dataset(cfg: ExperimentConfig, path):
    ds = load_dataset(path)
    if ds.N != cfg.N or ds.m != cfg.system.m or ds.p != cfg.system.p:
        raise ValueError(f"dataset (N={ds.N}, m={ds.m}, p={ds.p}) does not match the config")
    return ds


def cmd_generate(cfg: ExperimentConfig, out_dir) -> int:
    out = _outdir(out_dir)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    clean = generate_dataset(
        cfg.system, cfg.Nt, cfg.N, cfg.L, cfg.x0_policy, rng,
        x0_halfwidth=cfg.x0_halfwidth,
    )
    noisy = add_noise(clean, cfg.noise_u, cfg.noise_y, rng)
    t1 = time.perf_counter()
    save_dataset(clean, out / "dataset_noiseless.jsonl")
    save_dataset(noisy, out / "dataset_noisy.jsonl")
    t2 = time.perf_counter()
    _write_manifest(
        out / "manifest.json", "generate", cfg,
        {"generate_s": t1 - t0, "write_s": t2 - t1},
        {"noiseless": "dataset_noiseless.jsonl", "noisy": "dataset_noisy.jsonl"},
    )
    print(f"generated {cfg.Nt} experiments of length {cfg.N} into {out}")
    return 0


def cmd_aggregate(cfg: ExperimentConfig, dataset_path, out_dir) -> int:
    out = _outdir(out_dir)
    t0 = time.perf_counter()
    ds = _load_matching_dataset(cfg, dataset_path)
    t1 = time.perf_counter()
    st = aggregate(ds, cfg.L)
    t2 = time.perf_counter()
    save_stats(st, out / "stats.json")
    _write_manifest(
        out / "manifest.json", "aggregate", cfg,
        {"load_s": t1 - t0, "aggregate_s": t2 - t1},
        {"stats": "stats.json"},
    )
    print(f"aggregated {st.count} experiments into {out / 'stats.json'}")
    return 0


def cmd_recover(cfg: ExperimentConfig, dataset_path, stats_path, out_dir) -> int:
    if (dataset_path is None) == (stats_path is None):
        raise ValueError("give exactly one of --dataset or --stats")
    out = _outdir(out_dir)
    outputs = {"landscape": "landscape.csv"}
    t0 = time.perf_counter()
    if stats_path is not None:
        st = load_stats(stats_path)
        if st.d != cfg.d or st.Nc != cfg.N - cfg.L + 1:
            raise ValueError(f"stats (d={st.d}, Nc={st.Nc}) do not match the config")
        timings = {"load_s": time.perf_counter() - t0}
    else:
        ds = _load_matching_dataset(cfg, dataset_path)
        t1 = time.perf_counter()
        st = aggregate(ds, cfg.L)
        timings = {"load_s": t1 - t0, "aggregate_s": time.perf_counter() - t1}
    fin = st.finalize()
    t0 = time.perf_counter()
    res = grid_search(
        fin, cfg.axes(), cfg.eps_sigma, cfg.nullity,
        eps_mode=cfg.eps_mode, eps_factor=cfg.eps_factor, eps_rank=cfg.eps_rank,
        input_rows=cfg.input_rows,
    )
    t1 = time.perf_counter()
    timings["grid_s"] = t1 - t0
    if stats_path is None:
        save_stats(st, out / "stats.json")
        outputs["stats"] = "stats.json"
    write_landscape_csv(res, out / "landscape.csv")
    n_adm = int(res.admitted.sum())
    if res.best is not None:
        outputs["candidate"] = "candidate.json"
        write_candidate_json(res.best, out / "candidate.json")
    timings["write_s"] = time.perf_counter() - t1
    _write_manifest(out / "manifest.json", "recover", cfg, timings, outputs)
    if res.best is None:
        print(f"no admitted candidate over {res.points.shape[0]} grid points; landscape written to {out}")
        return 2
    pt = res.best.point
    label = (
        f"m1={pt.m1u:.6g} m2={pt.m2u:.6g}"
        if pt.is_identical
        else f"m1u={pt.m1u:.6g} m2u={pt.m2u:.6g} m1y={pt.m1y:.6g} m2y={pt.m2y:.6g}"
    )
    print(f"best candidate {label} sigma_min={res.best.sigma_min:.6g} ({n_adm} admitted)")
    return 0


def cmd_validate(cfg: ExperimentConfig, candidate_path, out_dir) -> int:
    out = _outdir(out_dir)
    with open(candidate_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    basis = np.asarray(obj["nullspace"], dtype=float)
    V_true = true_nullspace(cfg.system, cfg.L)
    if basis.ndim != 2 or basis.shape != V_true.basis.shape:
        raise ValueError(f"candidate null space has shape {basis.shape}, expected {V_true.basis.shape}")
    err = subspace_angle(V_true, SubspaceBasis(basis))
    report = {
        "theta_max": err.theta_max,
        "singular_values": [float(v) for v in err.singular_values],
        "candidate": {k: obj[k] for k in obj if k != "nullspace"},
    }
    with open(out / "subspace_error.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(out / "manifest.json", "validate", cfg, {}, {"report": "subspace_error.json"})
    print(f"theta_max={err.theta_max:.6g} rad")
    return 0


def cmd_sweep(cfg: ExperimentConfig, nt_list, seeds, out_dir) -> int:
    out = _outdir(out_dir)
    t0 = time.perf_counter()
    res = convergence_study(
        cfg.system, cfg.noise_u, cfg.noise_y, cfg.L, nt_list, seeds, cfg.axes(),
        N=cfg.N, x0_policy=cfg.x0_policy, x0_halfwidth=cfg.x0_halfwidth,
        eps_sigma=cfg.eps_sigma, eps_mode=cfg.eps_mode, eps_factor=cfg.eps_factor,
        eps_rank=cfg.eps_rank,
    )
    elapsed = time.perf_counter() - t0
    write_convergence_csv(res, out / "convergence.csv")
    write_summary_csv(res, out / "summary.csv")
    _write_manifest(
        out / "manifest.json", "sweep", cfg,
        {"sweep_s": elapsed},
        {"convergence": "convergence.csv", "summary": "summary.csv", "Nt_list": list(nt_list), "seeds": list(seeds)},
    )
    for Nt, med in res.medians:
        print(f"Nt={Nt} median theta_max={med:.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default, which this tool reserves for
        # "no admitted candidate"; bad arguments are a config error instead
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", help="JSON config file; a run manifest also works")
    sp.add_argument("--preset", choices=sorted(PRESETS), help="start from a built-in configuration")
    sp.add_argument("--Nt", type=int, help="number of experiments")
    sp.add_argument("--N", type=int, help="samples per experiment")
    sp.add_argument("--L", type=int, help="Hankel window depth")
    sp.add_argument("--seed", type=int, help="root seed")
    sp.add_argument("--workers", type=int, help="ignored; kept so older command lines still parse")
    sp.add_argument("--eps-sigma", type=float, help="admission threshold (abs mode)")
    sp.add_argument("--eps-mode", choices=EPS_MODES, help="admission threshold mode")
    sp.add_argument("--eps-factor", type=float, help="multiplier on the grid noise floor (auto mode)")
    sp.add_argument("--eps-rank", type=float, help="relative cutoff for numerical rank")
    sp.add_argument("--x0-policy", choices=("zero", "random-bounded"), help="initial state policy")
    sp.add_argument("--x0-halfwidth", type=float, help="hypercube half-width for random initial states")
    sp.add_argument("--moment-mode", choices=sorted(_AXIS_NAMES), help="tie input and output noise moments or search them separately")
    sp.add_argument("--noise-family", choices=NOISE_FAMILIES, help="noise family for both channels")
    sp.add_argument("--noise-m1", type=float, help="first raw noise moment for both channels")
    sp.add_argument("--noise-m2", type=float, help="second raw noise moment for both channels")
    sp.add_argument("--grid-m1", nargs=3, type=float, metavar=("LO", "HI", "POINTS"), help="first-moment grid axis")
    sp.add_argument("--grid-m2", nargs=3, type=float, metavar=("LO", "HI", "POINTS"), help="second-moment grid axis")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hankelnull", description="Recover LTI behavioral invariants from noisy fragmented data.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="simulate an ensemble and write noiseless and noisy datasets")
    _add_config_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("aggregate", help="fold a dataset into its sufficient statistics")
    _add_config_flags(sp)
    sp.add_argument("--dataset", required=True, help="dataset JSONL path")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("recover", help="grid-search noise moments and extract the null space")
    _add_config_flags(sp)
    sp.add_argument("--dataset", help="dataset JSONL path (aggregated first)")
    sp.add_argument("--stats", help="stats snapshot path (skips aggregation)")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("validate", help="score a recovered null space against the model's true one")
    _add_config_flags(sp)
    sp.add_argument("--candidate", required=True, help="candidate JSON path")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("sweep", help="repeat the pipeline over ensemble sizes and seeds")
    _add_config_flags(sp)
    sp.add_argument("--Nt-list", type=_int_list, required=True, help="comma-separated ensemble sizes")
    sp.add_argument("--seeds", type=_int_list, required=True, help="comma-separated seeds")
    sp.add_argument("--out", required=True, help="output directory")

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        cfg = resolve_config(args)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "aggregate":
            return cmd_aggregate(cfg, args.dataset, args.out)
        if args.command == "recover":
            return cmd_recover(cfg, args.dataset, args.stats, args.out)
        if args.command == "validate":
            return cmd_validate(cfg, args.candidate, args.out)
        return cmd_sweep(cfg, args.Nt_list, args.seeds, args.out)
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
