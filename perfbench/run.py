"""Run the hankelnull benchmark: one workload, or all of them in turn.

    python3 perfbench/run.py --workload reference --seed 14 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from the checkout's `src`.
Every workload run happens in fresh interpreters (perfbench/worker.py) with
the BLAS and OpenMP thread counts pinned to 1, in its own scratch directory
under `.perfbench/`, removed when the run ends. An untraced run starts
SETUP_RUNS interpreters in all: the last one also runs the timed loop, and
setup_s is the median over them.

Prints a report (every metric with unit and sample count, the machine, and
each failed check) and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics;
a traced run also writes its spans to `.perfbench/traces/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {
    "setup_s": "s", "op_s": "s", "generate_s": "s", "recover_s": "s", "validate_s": "s",
    "sweep_s": "s", "peak_rss_mb": "MB", "written_mb": "MB", "theta_rad": "rad",
    "moment_err": "band", "recovery_rate": "fraction", "fail_rate": "fraction",
}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _spawn(args, workload: str, tmp: Path, deadline: float, extra=()) -> dict:
    result = tmp.with_suffix(".json")
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp),
           "--result", str(result), *extra]
    t_spawn = time.monotonic()
    try:
        subprocess.run([*cmd, "--t-spawn", repr(t_spawn)], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       check=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.SubprocessError as e:
        raise BenchError(f"{workload}: worker failed: {e}") from None
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, workload: str, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                setups.append(_spawn(args, workload, scratch / f"setup{k}", deadline, ["--setup-only"])["setup_s"])
        trace_out = WORK / "traces" / f"{workload}-seed{args.seed}.json"
        res = _spawn(args, workload, scratch / "run", deadline, ["--trace-out", str(trace_out)])
        res["setups"] = setups + [res["setup_s"]]
        return res
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _median_row(name, values, unit=None):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return (name, statistics.median(values), unit or UNITS[name], len(values))


def end_to_end(res: dict) -> list:
    """(name, value, unit, samples) rows of an untraced run."""
    ops = res["ops"]
    rows = [
        _median_row("setup_s", res["setups"]),
        _median_row("op_s", [o["wall"] for o in ops]),
    ]
    rows += [_median_row(k, [o["times"].get(k) for o in ops]) for k in sorted({k for o in ops for k in o["times"]})]
    rows.append(_median_row("written_mb", [o["written_mb"] for o in ops]))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB", 1))
    rows += [_median_row(k, [o["quality"].get(k) for o in ops]) for k in sorted({k for o in ops for k in o["quality"]})]
    attempted = sum(o["attempted"] for o in ops)
    rows.append(("fail_rate", sum(len(o["failures"]) for o in ops) / attempted, "fraction", attempted))
    return [r for r in rows if r is not None]


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "B" if name.endswith(".bytes") else "count"


def per_layer(res: dict, units: dict) -> list:
    """(name, value, unit, samples) rows of a traced run."""
    resid = max((abs(r) for r in res["residuals"]), default=0.0)
    if resid > 1e-9:
        raise BenchError(f"self times miss a command's traced wall time by {resid:.3g} s")
    traced = [o["wall"] for o in res["ops"] if o["traced"]]
    plain = [o["wall"] for o in res["ops"] if not o["traced"]]
    rows = [(k, v, units.get(k, _layer_unit(k)), len(traced)) for k, v in res["layers"].items()]
    rows.append(("trace.overhead_s", statistics.median(traced) - statistics.median(plain), "s", len(traced) + len(plain)))
    rows.append(("trace.spans", res["spans"], "count", 1))
    rows.append(("trace.span_cost_s", res["span_cost_s"], "s", 1))
    rows.append(("trace.self_residual_s", resid, "s", len(res["residuals"])))
    return rows


def print_report(workload: str, args, res: dict, rows: list) -> None:
    env = res["env"]
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}  ops={len(res['ops'])}")
    print("   env " + "  ".join(f"{k}={v}" for k, v in env.items()) + "  threads=1  workers=1")
    for name, value, unit, n in rows:
        print(f"   {name:<44} {value:>14.6g} {unit:<9} n={n}")
    for k, op in enumerate(res["ops"]):
        for unit, messages in op["failures"].items():
            for msg in messages:
                print(f"   FAILED op{k} {unit}: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hankelnull benchmark")
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=14, help="workload seed (default 14, the reference preset's)")
    ap.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "hankelnull" / "__init__.py").is_file():
            raise BenchError(f"no hankelnull sources under {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            bench = json.load(fh)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        wanted = bench["per_layer" if args.trace else "end_to_end"]

        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names if args.workload == "all" else [args.workload]:
            res = run_workload(args, workload, time.monotonic() + DEADLINE_S)
            rows = per_layer(res, {m["name"]: m["unit"] for m in wanted}) if args.trace else end_to_end(res)
            print_report(workload, args, res, rows)
            values = {name: value for name, value, _, _ in rows}
            missing = [m["name"] for m in wanted if m["name"] not in values]
            if missing:
                raise BenchError(f"{workload}: no value for {missing}")
            prefix = f"{workload}." if args.workload == "all" else ""
            for m in wanted:
                final["metrics"][prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            final["attempted"] += sum(o["attempted"] for o in res["ops"])
            final["failed"] += sum(len(o["failures"]) for o in res["ops"])
        final["correct"] = final["failed"] == 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
