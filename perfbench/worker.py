"""One workload run of the hankelnull benchmark, in a fresh interpreter.

run.py starts this file with the BLAS and OpenMP thread counts pinned to 1
and hankelnull importable from the checkout's `src`. The process sets up
its workload, then issues operations back to back (a closed loop with one
client) until the timed operations add up to --seconds, checks every
output, and writes its raw figures as JSON to --result. With
--setup-only it stops after set-up; run.py starts a few of those to take
the median set-up time.

Set-up is timed from --t-spawn, the parent's monotonic clock just before
it started this interpreter, so it covers interpreter start, `import
hankelnull`, configuration and per-run fixtures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import hankelnull
from hankelnull import NoiseSpec, StateSpace, cli, load_stats

import checks
import spans

# The public functions, as the package exports them. The benchmark's own
# library calls and all output checks go through these; the traced run
# swaps wrappers in under the CLI's names only.
RAW = {name: getattr(hankelnull, name) for name in spans.TRACED}

# The reference preset as the README prescribes it: a third-order plant with
# two inputs and full state output, Nt=10,000 records of N=30 samples, window
# depth L=2, Gaussian noise with raw moments (1, 5) on both channels, and a
# tied 200x200 moment grid over [0, 1.5] x [2.5, 7].
SYSTEM = StateSpace(
    [[0.8, -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]],
    [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    np.eye(3),
    np.zeros((3, 2)),
)
NT, N, L = 10_000, 30, 2
NOISE = NoiseSpec("gaussian", 1.0, 5.0)
INJECTED = (NOISE.m1, NOISE.m2)
NULLITY = SYSTEM.p * L - SYSTEM.n
INPUT_ROWS = SYSTEM.m * L
M1_AXIS, M2_AXIS = (0.0, 1.5), (2.5, 7.0)
REFERENCE_POINTS = 200 * 200
# grid-distinct: four axes over the reference ranges, 20 points each.
DISTINCT_AXIS_POINTS = 20
# sweep: 2 ensemble sizes x 8 seeds on a tied 100x100 grid, sized so that one
# loop takes 7-10 s on a 2-vCPU 2.0 GHz Xeon, with generation about half of it
# and the 16 grid searches about a third.
SWEEP_NTS = (250, 1000)
SWEEP_SEEDS = 8
SWEEP_AXIS_POINTS = 100
SWEEP_SAMPLES = 3  # sigma_min rows re-derived per cell; 48 per loop


@dataclass
class Op:
    """One closed-loop operation: its timed parts and the checks of its output."""

    attempted: int
    traced: bool = False
    wall: float = 0.0
    times: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    written_mb: "float | None" = None
    failures: dict = field(default_factory=dict)  # failed unit -> messages

    def fail(self, unit: str, messages) -> None:
        if messages:
            self.failures.setdefault(unit, []).extend(messages)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _checked(op: Op, unit: str, fn, *args) -> None:
    # an output check that cannot even read its input fails the unit
    try:
        op.fail(unit, fn(*args))
    except Exception as e:  # noqa: BLE001 - any error here is a failed output
        op.fail(unit, [f"check {fn.__name__} raised {e!r}"])


def _tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def run_cli(op: Op, command: str, argv: list, tracer) -> bool:
    """Time one CLI command in-process; record its exit code as a check."""
    with _span(tracer, f"cli.{command}"):
        t0 = time.perf_counter()
        try:
            rc = cli.main([command, *map(str, argv)])
        except Exception as e:  # noqa: BLE001 - an uncaught error is a failed command
            rc = repr(e)
        dt = time.perf_counter() - t0
    op.times[f"{command}_s"] = dt
    op.wall += dt
    if rc != 0:
        op.fail(command, [f"{command} exited {rc}"])
        return False
    return True


def _candidate(path: Path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return {k: v for k, v in obj.items() if k.startswith("m")}, obj["nullspace"]


class Workload:
    """Set-up before the timed loop, one operation per call, checks after it."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self, api) -> None:
        """Per-run fixtures; importing hankelnull is already part of set-up."""

    def op(self, k: int, api, tracer) -> Op:
        raise NotImplementedError

    def finish(self, ops: list) -> None:
        """Checks that need every operation's output, after the loop."""


class Reference(Workload):
    """CLI generate -> recover --dataset -> validate at the reference preset."""

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.flags = ["--preset", "reference", "--seed", seed, "--workers", 1]
        self.stats = {}  # op index -> aggregate read back from its stats.json

    def op(self, k: int, api, tracer) -> Op:
        out = self.tmp / f"op{k}"
        gen, rec, val = out / "gen", out / "rec", out / "val"
        op = Op(attempted=3)
        ok = (
            run_cli(op, "generate", [*self.flags, "--out", gen], tracer)
            and run_cli(op, "recover", [*self.flags, "--dataset", gen / "dataset_noisy.jsonl", "--out", rec], tracer)
            and run_cli(op, "validate", [*self.flags, "--candidate", rec / "candidate.json", "--out", val], tracer)
        )
        if not ok:
            for command in ("generate", "recover", "validate"):
                if f"{command}_s" not in op.times:
                    op.fail(command, ["not run: an earlier command failed"])
        else:
            rng = np.random.default_rng([self.seed, k])
            try:
                st = load_stats(rec / "stats.json")
                self.stats[k] = st
                _checked(op, "recover", checks.landscape, rec / "landscape.csv", REFERENCE_POINTS,
                         st.finalize(), INPUT_ROWS, rng)
                moments, basis = _candidate(rec / "candidate.json")
                _checked(op, "recover", checks.orthonormal, basis, NULLITY)
                op.quality["moment_err"] = checks.moment_err(moments, INJECTED)
                with open(val / "subspace_error.json", "r", encoding="utf-8") as fh:
                    op.quality["theta_rad"] = float(json.load(fh)["theta_max"])
            except Exception as e:  # noqa: BLE001 - unreadable output fails the command
                op.fail("recover", [f"output unreadable: {e!r}"])
        op.written_mb = _tree_mb(out)
        shutil.rmtree(out, ignore_errors=True)
        return op

    def finish(self, ops: list) -> None:
        """recover's stats.json must equal aggregate over the in-memory ensemble.

        The ensemble is rebuilt the way `generate` builds it: one root
        generator from the seed, simulation first, then noise.
        """
        if not self.stats:
            return
        rng = np.random.default_rng(self.seed)
        clean = RAW["generate_dataset"](SYSTEM, NT, N, L, "random-bounded", rng, x0_halfwidth=1.0)
        want = RAW["aggregate"](RAW["add_noise"](clean, NOISE, NOISE, rng), L)
        for k, got in self.stats.items():
            _checked(ops[k], "recover", checks.same_stats, got, want)


class GridDistinct(Workload):
    """CLI recover --stats with four moment axes, from a stats snapshot."""

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.config = tmp / "distinct.json"
        self.stats = tmp / "stats.json"
        self.points = DISTINCT_AXIS_POINTS ** 4

    def setup(self, api) -> None:
        grid = {}
        for ch in "uy":
            grid[f"m1{ch}"] = [*M1_AXIS, DISTINCT_AXIS_POINTS]
            grid[f"m2{ch}"] = [*M2_AXIS, DISTINCT_AXIS_POINTS]
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"moment_mode": "distinct", "grid": grid}, fh)
        rng = np.random.default_rng(self.seed)
        clean = api["generate_dataset"](SYSTEM, NT, N, L, "random-bounded", rng, x0_halfwidth=1.0)
        noisy = api["add_noise"](clean, NOISE, NOISE, rng)
        st = api["aggregate"](noisy, L)
        api["save_stats"](st, self.stats)
        self.fin = st.finalize()
        self.v_true = api["true_nullspace"](SYSTEM, L)

    def op(self, k: int, api, tracer) -> Op:
        out = self.tmp / f"op{k}"
        op = Op(attempted=1)
        flags = ["--preset", "reference", "--config", self.config, "--workers", 1]
        if run_cli(op, "recover", [*flags, "--stats", self.stats, "--out", out], tracer):
            rng = np.random.default_rng([self.seed, k])
            _checked(op, "recover", checks.landscape, out / "landscape.csv", self.points, self.fin, INPUT_ROWS, rng)
            try:
                moments, basis = _candidate(out / "candidate.json")
                _checked(op, "recover", checks.orthonormal, basis, NULLITY)
                op.quality["moment_err"] = checks.moment_err(moments, INJECTED)
                V = hankelnull.SubspaceBasis(np.asarray(basis, dtype=float))
                op.quality["theta_rad"] = RAW["subspace_angle"](self.v_true, V).theta_max
            except Exception as e:  # noqa: BLE001 - unreadable output fails the command
                op.fail("recover", [f"candidate unreadable: {e!r}"])
        op.written_mb = _tree_mb(out)
        shutil.rmtree(out, ignore_errors=True)
        return op


class Sweep(Workload):
    """Library loop over ensemble sizes x seeds, the steps of convergence_study."""

    def setup(self, api) -> None:
        self.axes = (np.linspace(*M1_AXIS, SWEEP_AXIS_POINTS), np.linspace(*M2_AXIS, SWEEP_AXIS_POINTS))

    def op(self, k: int, api, tracer) -> Op:
        op = Op(attempted=len(SWEEP_NTS) * SWEEP_SEEDS)
        rng_check = np.random.default_rng([self.seed, k])
        errs, thetas = [], []
        t0 = time.perf_counter()
        v_true = api["true_nullspace"](SYSTEM, L)
        for Nt in SWEEP_NTS:
            for j in range(SWEEP_SEEDS):
                rng = np.random.default_rng(self.seed * SWEEP_SEEDS + j)
                clean = api["generate_dataset"](SYSTEM, Nt, N, L, "random-bounded", rng, x0_halfwidth=1.0)
                noisy = api["add_noise"](clean, NOISE, NOISE, rng)
                fin = api["aggregate"](noisy, L).finalize()
                res = api["grid_search"](fin, self.axes, 1e-3, NULLITY, eps_mode="auto", eps_factor=2.0, eps_rank=1e-2)
                err = api["subspace_angle"](v_true, res.best.nullspace) if res.best is not None else None
                op.wall += time.perf_counter() - t0
                unit = f"Nt={Nt} seed={self.seed * SWEEP_SEEDS + j}"
                self._check_cell(op, unit, fin, res, rng_check)
                if err is not None:
                    p = res.best.point
                    errs.append(checks.moment_err({"m1": p.m1u, "m2": p.m2u}, INJECTED))
                    if Nt == SWEEP_NTS[-1]:
                        thetas.append(err.theta_max)
                t0 = time.perf_counter()
        op.times["sweep_s"] = op.wall
        op.quality["recovery_rate"] = sum(e <= 1.0 for e in errs) / op.attempted
        if thetas:
            op.quality["theta_rad"] = statistics.median(thetas)
        return op

    def _check_cell(self, op: Op, unit: str, fin, res, rng) -> None:
        if res.best is None:
            op.fail(unit, ["grid search admitted nothing"])
            return
        npts = SWEEP_AXIS_POINTS ** 2
        if res.sigma_min.shape[0] != npts:
            op.fail(unit, [f"landscape has {res.sigma_min.shape[0]} points, expected {npts}"])
            return
        j = rng.choice(npts, size=SWEEP_SAMPLES, replace=False)
        _checked(op, unit, checks.sigma_min, fin, res.points[j], res.sigma_min[j], INPUT_ROWS)
        _checked(op, unit, checks.orthonormal, res.best.nullspace.basis, NULLITY)


WORKLOADS = {"reference": Reference, "grid-distinct": GridDistinct, "sweep": Sweep}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _noop():
    return None


def span_cost(n: int = 20000) -> float:
    """Seconds that tracing adds to one call, measured on a no-op function."""
    traced = spans.Tracer().wrap(_noop)
    t0 = time.perf_counter()
    for _ in range(n):
        _noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return (time.perf_counter() - t0 - bare) / n


def run_ops(wl, seconds: float, tracer) -> list:
    """Closed loop: next operation only after the previous one returns.

    A traced run alternates untraced and traced operations, so the tracing
    overhead is the difference of their medians within one process.
    """
    ops, measured = [], 0.0
    while measured < seconds or (tracer is not None and len(ops) < 2):
        traced = tracer is not None and len(ops) % 2 == 1
        with (tracer.patched(RAW) if traced else nullcontext(RAW)) as api:
            with _span(tracer if traced else None, "bench.op"):
                op = wl.op(len(ops), api, tracer if traced else None)
        op.traced = traced
        ops.append(op)
        measured += op.wall
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True, help="scratch directory for this process")
    ap.add_argument("--result", type=Path, required=True, help="JSON file for the raw figures")
    ap.add_argument("--trace-out", type=Path, help="JSON file for the spans of a traced run")
    ap.add_argument("--t-spawn", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.tmp.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    with (tracer.patched(RAW) if tracer else nullcontext(RAW)) as api, _span(tracer, "bench.setup"):
        wl.setup(api)
    result = {"setup_s": time.monotonic() - args.t_spawn, "env": environment()}
    if not args.setup_only:
        ops = run_ops(wl, args.seconds, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.finish(ops)
        result["ops"] = [asdict(op) for op in ops]
        if tracer is not None:
            result["layers"], result["residuals"] = spans.summarize(tracer.spans)
            result["spans"] = len(tracer.spans)
            result["span_cost_s"] = span_cost()
            if args.trace_out is not None:
                args.trace_out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed, "env": result["env"],
                               "layers": result["layers"], **tracer.to_json()}, fh, indent=1)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
