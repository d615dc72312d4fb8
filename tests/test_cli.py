import dataclasses
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_no_child_left, part_counts, spy
import hankelnull
from hankelnull import add_noise, aggregate, cli, generate_dataset, load_dataset, lti_sim, save_dataset, save_stats
from hankelnull.cli import _SCALARS, PRESETS, config_from_dict, config_to_dict, main

DEMO_SYSTEM = {
    "A": [[0.8, -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]],
    "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "D": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
}

# zero-variance noise keeps the chain deterministic and puts the true
# moment point (0, 0) on the small grid
SMALL_CONFIG = {
    "system": DEMO_SYSTEM,
    "Nt": 8,
    "N": 25,
    "L": 2,
    "noise": {"family": "gaussian", "m1": 0.0, "m2": 0.0},
    "grid": {"m1": [-0.5, 0.5, 3], "m2": [0.0, 1.0, 2]},
    "eps_sigma": 1e-8,
    "eps_mode": "abs",
    "seed": 7,
}


# dataset I/O and landscape parts run in forked processes on Linux only;
# the tests that force a CPU count above 1 need that
FORKS = pytest.mark.skipif(sys.platform != "linux", reason="dataset I/O and landscape parts fork on Linux only")


def test_package_reexports_each_module_all():
    # hankelnull.hankel is the function, so each module comes from importlib
    modules = [importlib.import_module(f"hankelnull.{name}") for name in ("estimator", "hankel", "lti_sim", "stats", "validate")]
    owners = {}
    for module in modules:
        for name in module.__all__:
            assert name not in owners, f"{name} is exported by both {owners[name].__name__} and {module.__name__}"
            owners[name] = module
    assert len(set(hankelnull.__all__)) == len(hankelnull.__all__)
    assert set(hankelnull.__all__) == set(owners)
    for name, module in owners.items():
        assert getattr(hankelnull, name) is getattr(module, name), name
    star = {}
    exec("from hankelnull import *", star)
    assert set(star) - {"__builtins__"} == set(owners)


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("gen")
    assert main(["generate", "--config", cfg_file, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def big_gen_dir(tmp_path_factory, cfg_file):
    """1,600 records: enough for load_dataset to split them at 3 CPUs."""
    out = tmp_path_factory.mktemp("big")
    assert main(["generate", "--config", cfg_file, "--Nt", "1600", "--out", str(out)]) == 0
    return out


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hankelnull.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        assert main(["generate", "--Nt", "many", "--out", str(tmp_path / "o")]) == 3

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert main(["generate", "--preset", "bogus", "--out", str(tmp_path / "o")]) == 3

    def test_missing_system_is_config_error(self, tmp_path, capsys):
        assert main(["recover", "--stats", "whatever.json", "--out", str(tmp_path / "o")]) == 3


class TestGenerate:
    def test_writes_datasets_and_manifest(self, gen_dir):
        clean = load_dataset(gen_dir / "dataset_noiseless.jsonl")
        noisy = load_dataset(gen_dir / "dataset_noisy.jsonl")
        assert clean.Nt == noisy.Nt == 8
        assert clean.N == 25 and clean.m == 2 and clean.p == 3
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["Nt"] == 8
        assert manifest["config"]["noise"]["u"]["m2"] == 0.0
        # the noiseless simulation and the noise are timed apart
        assert {"generate_s", "noise_s", "write_s"} <= manifest["timings"].keys()

    def test_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["generate", "--preset", "reference", "--Nt", "3", "--N", "20", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out / "dataset_noisy.jsonl")
        assert ds.Nt == 3 and ds.N == 20
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["Nt"] == 3
        assert manifest["config"]["system"]["A"] == DEMO_SYSTEM["A"]

    def test_window_longer_than_records_is_rejected(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "o"
        rc = main(["generate", "--config", cfg_file, "--N", "1", "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize("flags, fields", [(["--seed", "-1"], {}), ([], {"seed": -1})])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, flags, fields):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, **fields)))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), *flags, "--out", str(out)]) == 3
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_count_does_not_change_output(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "w1", tmp_path / "w3"
        assert main(["generate", "--config", cfg_file, "--workers", "1", "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg_file, "--workers", "3", "--out", str(b)]) == 0
        for name in ("dataset_noiseless.jsonl", "dataset_noisy.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    # below 2 * lti_sim.FORK_MIN_VALUES samples a file, each file is written in one part
    @pytest.mark.parametrize("cpus, Nt, parts", [(1, 1600, 1), (2, 8, 1), pytest.param(2, 1600, 2, marks=FORKS)])
    def test_manifest_records_cpus(self, tmp_path, cfg_file, gen_dir, big_gen_dir, monkeypatch, capsys, cpus, Nt, parts):
        monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg_file, "--Nt", str(Nt), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["cpus"] == cpus
        assert part_counts(calls) == [parts]  # the two files are written by one job, in the same parts
        for name in ("dataset_noiseless.jsonl", "dataset_noisy.jsonl"):
            assert (out / name).read_bytes() == ((gen_dir if Nt == 8 else big_gen_dir) / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)])
    def test_generate_streams_blocks(self, tmp_path, cfg_file, big_gen_dir, monkeypatch, capsys, cpus):
        # no generate_dataset or add_noise call, in this process or a forked
        # one, sees more than a block; this process makes its own part's
        # blocks, and the files are the fixture's bytes
        monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
        seen = []

        def at_most_a_block(fn):
            def call(*args, **kwargs):
                ds = fn(*args, **kwargs)
                if ds.Nt > lti_sim.BLOCK_SIZE:
                    raise AssertionError(f"{fn.__name__} made {ds.Nt} records")
                seen.append((fn.__name__, ds.Nt))
                return ds

            return call

        for name in ("generate_dataset", "add_noise"):
            monkeypatch.setattr(cli, name, at_most_a_block(getattr(cli, name)))
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg_file, "--Nt", "1600", "--out", str(out)]) == 0
        assert part_counts(calls) == [cpus]
        # four blocks, 512, 512, 512 and 64 records; at 2 CPUs this process makes the first two
        sizes = [512, 512, 512, 64][: 4 // cpus]
        assert seen == [(name, n) for n in sizes for name in ("generate_dataset", "add_noise")]
        for name in ("dataset_noiseless.jsonl", "dataset_noisy.jsonl"):
            assert (out / name).read_bytes() == (big_gen_dir / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)])
    def test_failure_in_a_later_block_leaves_no_dataset(self, tmp_path, cfg_file, monkeypatch, capsys, cpus):
        # the third block's simulation fails: in this process at 1 CPU, in
        # the forked part at 2 (and again here when that part is rerun)
        monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
        generate = cli.generate_dataset

        def fails_on_the_third_block(ss, Nt, N, L, x0_policy, rng, **kw):
            if rng.bit_generator.seed_seq.n_children_spawned == 2 * lti_sim.BLOCK_SIZE:
                raise RuntimeError("simulation failed on the third block")
            return generate(ss, Nt, N, L, x0_policy, rng, **kw)

        monkeypatch.setattr(cli, "generate_dataset", fails_on_the_third_block)
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg_file, "--Nt", "1600", "--out", str(out)]) == 3
        assert "simulation failed on the third block" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert_no_child_left()

    @FORKS
    def test_failing_child_writer_is_io_error(self, tmp_path, cfg_file, monkeypatch, capsys):
        monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
        out = tmp_path / "o"
        (out / "dataset_noiseless.jsonl").mkdir(parents=True)  # it cannot be opened as a file
        assert main(["generate", "--config", cfg_file, "--Nt", "1600", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Is a directory" in err and "dataset_noiseless.jsonl" in err
        assert not (out / "dataset_noisy.jsonl").exists()  # the file opened before it is removed
        assert_no_child_left()


class TestAggregateAndRecover:
    def test_chain_recovers_zero_moment_point(self, tmp_path, cfg_file, gen_dir, capsys):
        agg = tmp_path / "agg"
        rc = main(["aggregate", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(agg)])
        assert rc == 0
        assert (agg / "stats.json").exists()

        rec = tmp_path / "rec"
        rc = main(["recover", "--config", cfg_file, "--stats", str(agg / "stats.json"), "--out", str(rec)])
        assert rc == 0
        cand = json.loads((rec / "candidate.json").read_text())
        assert cand["m1"] == 0.0 and cand["m2"] == 0.0
        assert np.array(cand["nullspace"]).shape == (3, 10)
        lines = (rec / "landscape.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 6

    def test_dataset_and_stats_paths_agree(self, tmp_path, cfg_file, gen_dir, capsys):
        via_ds = tmp_path / "via_ds"
        rc = main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(via_ds)])
        assert rc == 0
        via_st = tmp_path / "via_st"
        rc = main(["recover", "--config", cfg_file, "--stats", str(via_ds / "stats.json"), "--out", str(via_st)])
        assert rc == 0
        assert (via_ds / "landscape.csv").read_bytes() == (via_st / "landscape.csv").read_bytes()

    def test_recover_is_deterministic(self, tmp_path, cfg_file, gen_dir, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)]) == 0
        assert (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()
        assert (a / "candidate.json").read_bytes() == (b / "candidate.json").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path, cfg_file, gen_dir, capsys):
        first = tmp_path / "first"
        assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(first)]) == 0
        second = tmp_path / "second"
        rc = main(["recover", "--config", str(first / "manifest.json"), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(second)])
        assert rc == 0
        assert (first / "landscape.csv").read_bytes() == (second / "landscape.csv").read_bytes()

    def test_no_admitted_candidate_exits_two(self, tmp_path, cfg_file, gen_dir, capsys):
        out = tmp_path / "none"
        rc = main([
            "recover", "--config", cfg_file, "--eps-sigma", "1e-30",
            "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out),
        ])
        assert rc == 2
        assert (out / "landscape.csv").exists()
        assert not (out / "candidate.json").exists()
        # the run says why: nothing falls below the threshold anywhere
        text = capsys.readouterr().out
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["threshold"] == 1e-30 and diag["admitted"] == 0
        assert diag["below_threshold"] == [6] + [0] * 10
        assert diag["spectral_gap"] is None and diag["best_on_edge"] is None
        assert "threshold 1e-30" in text
        assert f"count below: {diag['below_threshold']}" in text
        # and where it came closest: the true point (0, 0), still with
        # none of its singular values below 1e-30
        assert diag["nearest_miss"] == {"point": {"m1": 0.0, "m2": 0.0}, "below_threshold": 0}
        assert "nearest miss m1=0 m2=0 with 0 singular values below the threshold" in text

    @pytest.mark.parametrize("m2_axis, on_edge", [([0.0, 1.0, 2], True), ([-1.0, 1.0, 3], False)])
    def test_manifest_records_diagnostics(self, tmp_path, gen_dir, capsys, m2_axis, on_edge):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG, grid={"m1": [-0.5, 0.5, 3], "m2": m2_axis})))
        out = tmp_path / "rec"
        assert main(["recover", "--config", str(cfg), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        rows = [line.split(",") for line in (out / "landscape.csv").read_text().split("\n")[1:-1]]
        assert diag["threshold"] == 1e-8
        assert diag["admitted"] == sum(int(r[-1]) for r in rows) == 1
        assert len(diag["below_threshold"]) == 11 and sum(diag["below_threshold"]) == len(rows)
        assert diag["below_threshold"][3] == 1
        # noiseless records: the null space is exact, the gap is wide
        assert diag["spectral_gap"] > 1e6
        assert diag["best_on_edge"] is on_edge
        assert diag["nearest_miss"] is None

    def test_both_sources_rejected(self, tmp_path, cfg_file, gen_dir, capsys):
        rc = main([
            "recover", "--config", cfg_file,
            "--dataset", str(gen_dir / "dataset_noisy.jsonl"),
            "--stats", str(gen_dir / "dataset_noisy.jsonl"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    def test_neither_source_rejected(self, tmp_path, cfg_file, capsys):
        assert main(["recover", "--config", cfg_file, "--out", str(tmp_path / "o")]) == 3

    def test_missing_stats_file_is_io_error(self, tmp_path, cfg_file, capsys):
        rc = main(["recover", "--config", cfg_file, "--stats", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_malformed_config_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc = main(["recover", "--config", str(bad), "--stats", "s.json", "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"malformed JSON: {bad}: Expecting property name" in capsys.readouterr().err

    def test_malformed_stats_is_io_error(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "stats.json"
        bad.write_text('{"d": 10,')
        rc = main(["recover", "--config", cfg_file, "--stats", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"malformed JSON: {bad}: Expecting property name" in capsys.readouterr().err

    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        rc = main(["recover", "--config", str(bad), "--stats", "s.json", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "JSON object" in err

    @pytest.mark.parametrize("fields, flags, cause", [
        ({"system": [1]}, [], "system must be an object"),
        ({"noise": 5}, [], "noise must be an object"),
        ({"noise": 5}, ["--noise-m1", "1"], "noise must be an object"),
        ({"noise": {"u": 5, "y": SMALL_CONFIG["noise"]}}, [], "noise.u must be an object"),
        ({"noise": {"u": 5, "y": SMALL_CONFIG["noise"]}}, ["--noise-m1", "1"], "noise.u must be an object"),
        ({"noise": {"u": SMALL_CONFIG["noise"]}}, ["--noise-m1", "1"], "needs both 'u' and 'y'"),
        ({"noise": {"family": "gaussian", "m1": None, "m2": 1.0}}, [], "noise must be an object"),
        ({"grid": {"m1": 5, "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' must be [lo, hi, points]"),
        ({"grid": {"m1": [0, 1], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' must be [lo, hi, points]"),
        ({"grid": {"m1": [0, 1, None], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' must be [lo, hi, points]"),
        ({"grid": 5}, ["--grid-m1", "0", "1", "3"], "grid must map axis names"),
        ({"Nt": None}, [], "Nt must be an integer"),
        ({"eps_sigma": [1e-3]}, [], "eps_sigma must be a number"),
        ({"Nt": 99.9}, [], "Nt must be an integer, got 99.9"),
        ({"seed": True}, [], "seed must be an integer, got True"),
        ({"grid": {"m1": [0, 1.5, 2.5], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' must be [lo, hi, points] with an integer"),
        ({}, ["--grid-m1", "0", "1", "2.5"], "grid axis 'm1' must be [lo, hi, points] with an integer"),
        ({"grid": {"m1": [1, 0, 3], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' needs lo < hi"),
        ({"grid": {"m1": [0, 1, 0], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' needs at least one point"),
        ({"noise": {"family": "gaussian", "m1": True, "m2": True}}, [], "noise must be an object with a family and numbers m1, m2, got {'family': 'gaussian', 'm1': True"),
        ({"noise": {"u": {"family": "gaussian", "m1": 0.0, "m2": False}, "y": SMALL_CONFIG["noise"]}}, [], "noise.u must be an object with a family and numbers m1, m2"),
        ({"grid": {"m1": [False, True, 3], "m2": [2.5, 7, 3]}}, [], "grid axis 'm1' must be [lo, hi, points] with an integer count of points, got [False, True, 3]"),
        ({"grid": {"m1": [-0.5, 0.5, 3], "m2": [0, True, 3]}}, [], "grid axis 'm2' must be [lo, hi, points] with an integer count of points, got [0, True, 3]"),
        ({"Nt": "100"}, [], "Nt must be an integer, got '100'"),
        ({"eps_factor": "2.5"}, [], "eps_factor must be a number, got '2.5'"),
        ({"noise": {"family": "gaussian", "m1": "1", "m2": 5.0}}, [], "noise must be an object with a family and numbers m1, m2, got {'family': 'gaussian', 'm1': '1'"),
        ({"system": dict(DEMO_SYSTEM, A=[["0.8", -0.1, 0.0], [0.1, 0.7, 0.1], [0.0, -0.2, 0.6]])}, [], "system.A is not a rectangular array of numbers"),
        ({"system": dict(DEMO_SYSTEM, B=[[True, 0.0], [0.0, 1.0], [0.5, 0.5]])}, [], "system.B is not a rectangular array of numbers"),
        ({"system": dict(DEMO_SYSTEM, C=[[None, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])}, [], "system.C is not a rectangular array of numbers"),
        ({"system": dict(DEMO_SYSTEM, D=[[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]])}, [], "system.D has entries that are not finite"),
        ({"system": {k: DEMO_SYSTEM[k] for k in "ABC"}}, [], "system spec is missing matrix 'D'"),
        ({"Nt": 0}, [], "Nt, N and L must all be positive"),
        ({"eps_mode": "rel"}, [], "eps_mode must be one of ('abs', 'auto'), got 'rel'"),  # argparse guards only the flag
        ({"eps_factor": 0}, [], "eps_sigma, eps_factor and eps_rank must be positive"),
    ])
    def test_config_value_of_wrong_type_is_config_error(self, tmp_path, capsys, fields, flags, cause):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, **fields)))
        out = tmp_path / "o"
        rc = main(["recover", "--config", str(path), *flags, "--stats", "s.json", "--out", str(out)])
        assert rc == 3
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, text, cause", [
        (0, '{"meta": []}', "meta header"),
        (1, "[1, 2]", "record 0"),
        (2, '{"i": 1, "u": [[1.0, 2.0], [3.0]], "y": []}', "record 1 has u samples that are not a rectangular array"),
        (2, '{"i": 1, "u": [], "y": [[1.0], [2.0, 3.0]]}', "record 1 has y samples that are not a rectangular array"),
    ], ids=["header", "list", "ragged-u", "ragged-y"])
    def test_dataset_line_of_wrong_json_shape_is_config_error(self, tmp_path, cfg_file, gen_dir, capsys, line, text, cause):
        lines = (gen_dir / "dataset_noisy.jsonl").read_text().split("\n")
        lines[line] = text
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines))
        out = tmp_path / "o"
        rc = main(["aggregate", "--config", cfg_file, "--dataset", str(bad), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and cause in err and "Traceback" not in err
        assert not out.exists()

    @FORKS
    def test_split_dataset_load_gives_the_same_outputs(self, tmp_path, cfg_file, big_gen_dir, monkeypatch, capsys):
        dataset = str(big_gen_dir / "dataset_noisy.jsonl")
        for cpus in (1, 3):
            monkeypatch.setattr(lti_sim, "_cpus", lambda n=cpus: n)
            for command in ("aggregate", "recover"):
                calls = spy(monkeypatch, lti_sim, "_in_parts")
                out = tmp_path / f"{command}{cpus}"
                assert main([command, "--config", cfg_file, "--dataset", dataset, "--out", str(out)]) == 0
                assert json.loads((out / "manifest.json").read_text())["cpus"] == cpus
                # the load, then for recover the 6-row landscape in one part
                assert part_counts(calls) == [cpus] + ([1] if command == "recover" else [])
        for name in ("stats.json", "landscape.csv", "candidate.json"):
            assert (tmp_path / "recover1" / name).read_bytes() == (tmp_path / "recover3" / name).read_bytes()
        assert (tmp_path / "aggregate1" / "stats.json").read_bytes() == (tmp_path / "aggregate3" / "stats.json").read_bytes()

    @FORKS
    def test_recover_decides_the_load_part_count_once(self, tmp_path, cfg_file, big_gen_dir, monkeypatch, capsys):
        monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
        decided = spy(monkeypatch, lti_sim, "_processes")
        dataset = str(big_gen_dir / "dataset_noisy.jsonl")
        assert main(["recover", "--config", cfg_file, "--dataset", dataset, "--out", str(tmp_path / "o")]) == 0
        # 1,600 records of 25 x 5 samples in four blocks, then a 3 x 2 landscape, one value a row
        assert decided == [((4, 200_000), 2), ((6, 6), 1)]

    @FORKS
    def test_malformed_line_in_last_range_is_io_error(self, tmp_path, cfg_file, big_gen_dir, monkeypatch, capsys):
        monkeypatch.setattr(lti_sim, "_cpus", lambda: 3)
        lines = (big_gen_dir / "dataset_noisy.jsonl").read_text().split("\n")
        lines[1503] = lines[1503][:-9]  # record 1502, which the last of 3 processes parses
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines))
        rc = main(["recover", "--config", cfg_file, "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"malformed JSON: {bad}: record 1502: Expecting" in capsys.readouterr().err

    @pytest.mark.parametrize("line, cause", [(0, "first line is not UTF-8"), (2, "record 1 is not UTF-8")])
    def test_dataset_line_that_is_not_utf8_is_config_error(self, tmp_path, cfg_file, gen_dir, capsys, line, cause):
        lines = (gen_dir / "dataset_noisy.jsonl").read_bytes().split(b"\n")
        lines[line] = lines[line][:20] + b"\xff" + lines[line][21:]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        rc = main(["aggregate", "--config", cfg_file, "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{bad}: {cause}: 'utf-8' codec can't decode byte 0xff in position 20" in capsys.readouterr().err

    def test_mismatched_dataset_rejected(self, tmp_path, cfg_file, gen_dir, capsys):
        rc = main([
            "aggregate", "--config", cfg_file, "--N", "24",
            "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("command", ["aggregate", "recover"])
    def test_header_is_checked_against_the_config_before_any_record(self, tmp_path, cfg_file, gen_dir, capsys, command):
        # the header says N=24 and the first record does not parse: the
        # mismatch is found first
        lines = (gen_dir / "dataset_noisy.jsonl").read_text().split("\n")
        lines[0] = json.dumps({"meta": {"Nt": 8, "N": 24, "m": 2, "p": 3}})
        lines[1] = lines[1][:-9]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines))
        out = tmp_path / "o"
        assert main([command, "--config", cfg_file, "--dataset", str(bad), "--out", str(out)]) == 3
        assert "error: dataset (N=24, m=2, p=3) does not match the config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["aggregate", "recover"])
    def test_dataset_commands_never_load_the_ensemble(self, tmp_path, cfg_file, gen_dir, monkeypatch, capsys, command):
        def refused(path):
            raise AssertionError(f"load_dataset({path}) called")

        monkeypatch.setattr(lti_sim, "load_dataset", refused)
        monkeypatch.setattr(hankelnull, "load_dataset", refused)
        assert main([command, "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(tmp_path / "o")]) == 0


    def test_aggregate_input_error_is_found_before_out_exists(self, tmp_path, cfg_file, gen_dir, capsys):
        # a dataset header that does not parse, and one of the wrong length
        lines = (gen_dir / "dataset_noisy.jsonl").read_text().split("\n")
        bad = tmp_path / "bad-header.jsonl"
        bad.write_text("\n".join(['{"meta": {"Nt": 2.5, "N": 25, "m": 2, "p": 3}}', *lines[1:]]))
        for flags in (["--dataset", str(bad)], ["--N", "24", "--dataset", str(gen_dir / "dataset_noisy.jsonl")]):
            out = tmp_path / "o"
            assert main(["aggregate", "--config", cfg_file, *flags, "--out", str(out)]) == 3
            assert not out.exists()

    def test_recover_input_error_is_found_before_out_exists(self, tmp_path, cfg_file, gen_dir, capsys):
        # a stats file of the wrong JSON shape, stats that do not match the
        # config, and a dataset that does not match it
        agg = tmp_path / "agg"
        assert main(["aggregate", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(agg)]) == 0
        bad = tmp_path / "bad-stats.json"
        bad.write_text("5")
        for flags in (
            ["--stats", str(bad)],
            ["--N", "24", "--stats", str(agg / "stats.json")],
            ["--N", "24", "--dataset", str(gen_dir / "dataset_noisy.jsonl")],
        ):
            out = tmp_path / "o"
            assert main(["recover", "--config", cfg_file, *flags, "--out", str(out)]) == 3
            assert not out.exists()

    def test_manifest_records_stage_timings(self, tmp_path, cfg_file, gen_dir, capsys):
        via_ds, via_st = tmp_path / "via_ds", tmp_path / "via_st"
        assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(via_ds)]) == 0
        assert main(["recover", "--config", cfg_file, "--stats", str(via_ds / "stats.json"), "--out", str(via_st)]) == 0
        for out, keys in ((via_ds, {"load_s", "aggregate_s", "grid_s", "write_s"}), (via_st, {"load_s", "grid_s", "write_s"})):
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest["timings"]) == keys
            assert all(v >= 0.0 for v in manifest["timings"].values())
            assert "workers" not in manifest["config"]

    def test_non_finite_sample_fails_at_load(self, tmp_path, cfg_file, gen_dir, capsys):
        lines = (gen_dir / "dataset_noisy.jsonl").read_text().split("\n")
        rec = json.loads(lines[4])  # record 3
        rec["u"][2][0] = float("nan")
        lines[4] = json.dumps(rec)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines))
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["recover", "--config", cfg_file, "--dataset", str(bad), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "record 3 has non-finite samples" in err and "nan.jsonl" in err
        assert not (out / "stats.json").exists()

    @pytest.mark.parametrize("text, cause", [
        ("5", "a stats snapshot must be a JSON object, got int"),
        ('{"d": 10, "Nc": 29, "count": 1, "G": [[1, 2], [3]], "rowsum": []}', "G is not a rectangular array of numbers"),
        (json.dumps({"d": 10, "Nc": 24, "count": 1, "G": [0.0] * 100, "rowsum": [0.0] * 9}), "rowsum has shape (9,), expected (10,)"),
    ])
    def test_stats_of_wrong_json_shape_is_config_error(self, tmp_path, cfg_file, capsys, text, cause):
        bad = tmp_path / "stats.json"
        bad.write_text(text)
        out = tmp_path / "rec"
        rc = main(["recover", "--config", cfg_file, "--stats", str(bad), "--out", str(out)])
        assert rc == 3
        assert f"{bad}: {cause}" in capsys.readouterr().err
        assert not out.exists()

    def test_impossible_stats_fail_at_load(self, tmp_path, cfg_file, gen_dir, capsys):
        agg = tmp_path / "agg"
        assert main(["aggregate", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(agg)]) == 0
        obj = json.loads((agg / "stats.json").read_text())
        obj["G"][1] += 1.0  # G[0, 1] no longer equals G[1, 0]
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["recover", "--config", cfg_file, "--stats", str(bad), "--out", str(tmp_path / "rec")])
        assert rc == 3
        assert "G is not symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--eps-factor", "eps_factor"),
        ("--eps-sigma", "eps_sigma"),
        ("--eps-rank", "eps_rank"),
        ("--x0-halfwidth", "x0_halfwidth"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_is_config_error(self, tmp_path, cfg_file, gen_dir, capsys, flag, field, value):
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["recover", "--config", cfg_file, flag, value, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)])
        assert rc == 3
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    @pytest.mark.parametrize("bounds", ["[0, 1e999, 5]", "[-1e999, 1.5, 5]", "[NaN, 1.5, 5]"])
    def test_non_finite_grid_bound_is_config_error(self, tmp_path, gen_dir, capsys, bounds):
        cfg = json.dumps(SMALL_CONFIG).replace('"m1": [-0.5, 0.5, 3]', f'"m1": {bounds}')
        assert bounds in cfg
        path = tmp_path / "config.json"
        path.write_text(cfg)
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["recover", "--config", str(path), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)])
        assert rc == 3
        assert "grid axis 'm1' needs finite bounds" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    # only sizes refused at once: 2 x 10^13 points of 10 singular values
    # need 1,455 TiB, past the address space, and 10^20 points overflow the
    # mapping's size
    @pytest.mark.parametrize("flags, points", [
        (["--grid-m1", "0", "1.5", "1e13"], 2 * 10**13),
        (["--grid-m1", "0", "1.5", "1e10", "--grid-m2", "0", "1", "1e10"], 10**20),
    ])
    @pytest.mark.parametrize("command", ["recover", "sweep"])
    def test_grid_too_big_for_memory_is_config_error_before_out_exists(self, tmp_path, cfg_file, gen_dir, capsys, flags, points, command):
        out = tmp_path / "o"
        args = ["--dataset", str(gen_dir / "dataset_noisy.jsonl")] if command == "recover" else ["--Nt-list", "5", "--seeds", "0"]
        assert main([command, "--config", cfg_file, *flags, *args, "--out", str(out)]) == 3
        assert f"error: a grid of {points} points does not fit in memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid-m2", "0", "1e307", "3"], "grid axis 'm2' reaches 1e+307, where Nc*m2 (Nc=24) overflows"),
        (["--grid-m1", "0", "1e160", "2"], "grid axis 'm1' reaches 1e+160, where Nc*m1**2 (Nc=24) overflows"),
    ], ids=["m2", "m1"])
    @pytest.mark.parametrize("command", ["recover", "sweep"])
    def test_grid_that_overflows_is_config_error_before_out_exists(self, tmp_path, cfg_file, gen_dir, capsys, flags, message, command):
        out = tmp_path / "o"
        args = ["--dataset", str(gen_dir / "dataset_noisy.jsonl")] if command == "recover" else ["--Nt-list", "5", "--seeds", "0"]
        assert main([command, "--config", cfg_file, *flags, *args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    # checks that only the library makes: the excitation bound N >= 14 at
    # n = 3, m = 2, L = 2, and the nullity p*L - n, 0 at L = 1
    @pytest.mark.parametrize("command, flags, cause", [
        ("generate", ["--N", "8"], "N=8 too short for excitation order L+n=5 with m=2; need N >= 14"),
        ("sweep", ["--N", "8", "--Nt-list", "5", "--seeds", "0"], "N=8 too short for excitation order L+n=5 with m=2; need N >= 14"),
        ("recover", ["--L", "1", "--dataset", None], "nullity must be in [1, 4], got 0"),
    ], ids=["generate", "sweep", "recover"])
    def test_library_input_error_is_found_before_out_exists(self, tmp_path, cfg_file, gen_dir, capsys, command, flags, cause):
        flags = [str(gen_dir / "dataset_noisy.jsonl") if f is None else f for f in flags]
        out = tmp_path / "o"
        assert main([command, "--config", cfg_file, *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error: {cause}" in err and "Traceback" not in err
        assert not out.exists()

    def test_workers_key_of_old_manifests_is_ignored(self, tmp_path, cfg_file, gen_dir, capsys):
        old = dict(SMALL_CONFIG, workers=4)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"command": "recover", "config": old, "timings": {}, "outputs": {}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["recover", "--config", str(path), "--workers", "2", "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(a)]) == 0
        assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(b)]) == 0
        assert (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()


DISTINCT_GRID = {"m1u": [-0.5, 0.5, 3], "m2u": [0.0, 1.0, 2], "m1y": [-0.5, 0.5, 3], "m2y": [0.0, 1.0, 2]}


class TestMomentAxes:
    """The grid's axis names choose tied or split channel moments."""

    @staticmethod
    def _config(tmp_path, **fields):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, grid=DISTINCT_GRID, **fields)))
        return str(path)

    def test_four_axis_config_without_moment_mode_runs(self, tmp_path, gen_dir, capsys):
        out = tmp_path / "rec"
        rc = main(["recover", "--config", self._config(tmp_path), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)])
        assert rc == 0
        assert (out / "landscape.csv").read_text().split("\n", 1)[0] == "m1u,m2u,m1y,m2y,sigma_min,numerical_rank,admitted"
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["config"]["grid"]) == list(DISTINCT_GRID)
        assert "moment_mode" not in manifest["config"]
        assert manifest["diagnostics"]["best_on_edge"] is True  # m2u = 0 is an endpoint

    def test_four_axis_best_point_with_equal_channels_keeps_axis_names(self, tmp_path, gen_dir, capsys):
        # zero-variance noise: the best point (0, 0, 0, 0) has equal channel moments
        out = tmp_path / "rec"
        cfg = self._config(tmp_path, moment_mode="distinct")
        capsys.readouterr()
        assert main(["recover", "--config", cfg, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)]) == 0
        cand = json.loads((out / "candidate.json").read_text())
        assert list(cand) == ["m1u", "m2u", "m1y", "m2y", "sigma_min", "nullspace"]
        assert cand["m1u"] == cand["m2u"] == cand["m1y"] == cand["m2y"] == 0.0
        assert "best candidate m1u=0 m2u=0 m1y=0 m2y=0 sigma_min=" in capsys.readouterr().out

    @FORKS
    def test_no_forked_child_calls_lapack(self, tmp_path, cfg_file, gen_dir, big_gen_dir, monkeypatch, capsys):
        # with the landscape and dataset I/O cutoffs lowered, a split-grid
        # recover --stats and a recover --dataset fork at 2 CPUs, and only
        # this process may call eigvalsh, eigh or svd; the files are the
        # same bytes as at 1 CPU
        cfg = self._config(tmp_path)
        agg = tmp_path / "agg"
        assert main(["aggregate", "--config", cfg, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(agg)]) == 0
        parent = os.getpid()
        for name in ("eigvalsh", "eigh", "svd"):
            def here_only(*args, _call=getattr(np.linalg, name), _name=name, **kw):
                if os.getpid() != parent:
                    raise AssertionError(f"{_name} called in a forked process")
                return _call(*args, **kw)

            monkeypatch.setattr(np.linalg, name, here_only)
        monkeypatch.setattr(lti_sim, "FORK_MIN_VALUES", 1)
        runs = {
            "split": ["--config", cfg, "--stats", str(agg / "stats.json")],
            "dataset": ["--config", cfg_file, "--dataset", str(big_gen_dir / "dataset_noisy.jsonl")],
        }
        for cpus in (1, 2):
            monkeypatch.setattr(lti_sim, "_cpus", lambda n=cpus: n)
            for run, args in runs.items():
                calls = spy(monkeypatch, lti_sim, "_in_parts")
                out = tmp_path / f"{run}{cpus}"
                assert main(["recover", *args, "--out", str(out)]) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["cpus"] == cpus and "grid_s" in manifest["timings"]
                # the dataset load, if any, then the landscape
                assert part_counts(calls) == [cpus] * (2 if run == "dataset" else 1)
        for run in runs:
            names = ["landscape.csv", "candidate.json"] + (["stats.json"] if run == "dataset" else [])
            for name in names:
                assert (tmp_path / f"{run}1" / name).read_bytes() == (tmp_path / f"{run}2" / name).read_bytes()

    def test_tied_axis_flag_on_four_axis_config_is_config_error(self, tmp_path, gen_dir, capsys):
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main([
            "recover", "--config", self._config(tmp_path), "--grid-m1", "0", "1", "50",
            "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out),
        ])
        assert rc == 3
        assert "grid axes ['m1', 'm1u', 'm1y', 'm2u', 'm2y']" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    @pytest.mark.parametrize("grid", [[[-0.5, 0.5, 3], [0.0, 1.0, 2]], {"m1": [-0.5, 0.5, 3]}, {}])
    def test_grid_without_a_full_axis_set_is_config_error(self, tmp_path, gen_dir, capsys, grid):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, grid=grid)))
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["recover", "--config", str(path), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)])
        assert rc == 3
        assert "grid" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    @pytest.mark.parametrize("grid, mode", [(DISTINCT_GRID, "identical"), (SMALL_CONFIG["grid"], "distinct")])
    def test_moment_mode_disagreeing_with_grid_is_config_error(self, tmp_path, gen_dir, capsys, grid, mode):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, grid=grid, moment_mode=mode)))
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["recover", "--config", str(path), "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(out)])
        assert rc == 3
        assert f"moment_mode {mode!r} disagrees" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()


# per scalar config field, a flag and a value unlike SMALL_CONFIG's
SCALAR_FLAGS = {
    "Nt": ("--Nt", "9"),
    "N": ("--N", "26"),
    "L": ("--L", "3"),
    "seed": ("--seed", "8"),
    "eps_sigma": ("--eps-sigma", "1e-07"),
    "eps_mode": ("--eps-mode", "auto"),
    "eps_factor": ("--eps-factor", "3.5"),
    "eps_rank": ("--eps-rank", "0.02"),
    "x0_policy": ("--x0-policy", "zero"),
    "x0_halfwidth": ("--x0-halfwidth", "0.5"),
}

SPLIT_NOISE = {"u": SMALL_CONFIG["noise"], "y": {"family": "gaussian", "m1": 0.5, "m2": 0.25}}


class TestConfigFields:
    @pytest.mark.parametrize("name", list(_SCALARS))
    def test_flag_overrides_config_and_manifest_echoes_it(self, tmp_path, cfg_file, capsys, name):
        kind = _SCALARS[name][0]
        flag, text = SCALAR_FLAGS[name]
        value = text if isinstance(kind, tuple) else kind(text)
        base = config_to_dict(config_from_dict(SMALL_CONFIG))
        assert base[name] != value
        assert main(["generate", "--config", cfg_file, flag, text, "--out", str(tmp_path)]) == 0
        echoed = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert echoed == {**base, name: value}
        assert type(echoed[name]) is type(value)

    @pytest.mark.parametrize("noise", [SMALL_CONFIG["noise"], SPLIT_NOISE])
    def test_noise_flags_override_every_channel(self, tmp_path, capsys, noise):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, noise=noise)))
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(path), "--noise-family", "uniform", "--noise-m2", "0.5", "--out", str(out)]) == 0
        echoed = json.loads((out / "manifest.json").read_text())["config"]["noise"]
        m1_y = noise.get("y", noise)["m1"]
        assert echoed == {"u": {"family": "uniform", "m1": 0.0, "m2": 0.5}, "y": {"family": "uniform", "m1": m1_y, "m2": 0.5}}

    @pytest.mark.parametrize("fields", [{}, {"grid": DISTINCT_GRID, "noise": SPLIT_NOISE}])
    def test_dict_round_trip(self, fields):
        cfg = config_from_dict(dict(SMALL_CONFIG, **fields))
        back = config_from_dict(config_to_dict(cfg))
        assert all(np.array_equal(getattr(back.system, k), getattr(cfg.system, k)) for k in "ABCD")
        assert dataclasses.replace(back, system=cfg.system) == cfg
        assert [type(getattr(back, name)) for name in _SCALARS] == [type(getattr(cfg, name)) for name in _SCALARS]

    def test_misspelled_keys_are_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, eps_mod="auto", gird=DISTINCT_GRID, **{"Nt ": 5})))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 3
        assert "config has unknown keys ['eps_mod', 'gird', 'Nt ']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, cause", [
        ("noise", {"family": "gaussian", "m1": 1, "m2": 5, "sd": 3}, "noise has unknown keys ['sd']"),
        ("noise", dict(SPLIT_NOISE, w=1, family="gaussian"), "noise has unknown keys ['w', 'family']"),
        ("noise", dict(SPLIT_NOISE, u=dict(SPLIT_NOISE["u"], M2=5)), "noise.u has unknown keys ['M2']"),
        ("noise", dict(SPLIT_NOISE, y=dict(SPLIT_NOISE["y"], sd=1, mean=0)), "noise.y has unknown keys ['sd', 'mean']"),
        ("system", dict(DEMO_SYSTEM, E=[[0.0]], AB=[[0.0]]), "system has unknown keys ['E', 'AB']"),
    ])
    def test_misspelled_nested_keys_are_config_error(self, tmp_path, capsys, field, value, cause):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, **{field: value})))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 3
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, cause", [
        ({"family": "gaussian", "m1": float("nan"), "m2": 1.0}, "noise: noise moment m1=nan is not finite"),
        ({"family": "gaussian", "m1": 1.0, "m2": float("inf")}, "noise: noise moment m2=inf is not finite"),
        ({"family": "uniform", "m1": 0.0, "m2": 1e308}, "noise: m2=1e+308 puts the uniform endpoints too far apart"),
        (dict(SPLIT_NOISE, y={"family": "gaussian", "m1": float("nan"), "m2": 1.0}), "noise.y: noise moment m1=nan is not finite"),
    ])
    def test_bad_noise_moment_is_config_error_before_out_exists(self, tmp_path, capsys, noise, cause):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, noise=noise)))  # NaN and Infinity, as Python's json writes them
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_noise_flag_is_config_error_before_out_exists(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg_file, "--noise-m2", "nan", "--out", str(out)]) == 3
        assert "noise: noise moment m2=nan is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("halfwidth", ["-1", "1e308"])
    def test_bad_halfwidth_is_config_error_before_out_exists(self, tmp_path, cfg_file, capsys, halfwidth):
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg_file, "--x0-halfwidth", halfwidth, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "must be non-negative with 2*x0_halfwidth a finite double" in err and "Traceback" not in err
        assert not out.exists()

    def test_legacy_keys_are_accepted(self):
        # perfbench's split-grid config holds only moment_mode and grid
        cfg = config_from_dict(dict(PRESETS["reference"], moment_mode="distinct", grid=DISTINCT_GRID, workers=4))
        assert list(cfg.grid) == list(DISTINCT_GRID)

    def test_integral_json_numbers_are_integers(self):
        cfg = config_from_dict(dict(SMALL_CONFIG, Nt=1e4, grid={"m1": [-0.5, 0.5, 3.0], "m2": [0.0, 1.0, 2]}))
        assert cfg.Nt == 10000 and type(cfg.Nt) is int
        assert cfg.grid["m1"] == (-0.5, 0.5, 3) and type(cfg.grid["m1"][2]) is int


class TestValidate:
    def test_scores_recovered_candidate(self, tmp_path, cfg_file, gen_dir, capsys):
        rec = tmp_path / "rec"
        assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(rec)]) == 0
        out = tmp_path / "val"
        rc = main(["validate", "--config", cfg_file, "--candidate", str(rec / "candidate.json"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "subspace_error.json").read_text())
        assert report["theta_max"] <= 1e-8
        assert len(report["singular_values"]) == 3
        assert report["candidate"]["m1"] == 0.0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert set(timings) == {"true_nullspace_s", "angle_s"}
        assert all(v >= 0.0 for v in timings.values())

    def test_wrong_basis_shape_rejected(self, tmp_path, cfg_file, capsys):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"m1": 0.0, "m2": 0.0, "sigma_min": 0.0, "nullspace": np.eye(10)[:2].tolist()}))
        rc = main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("nullspace", [np.eye(10)[:2].tolist(), [[1, "x"]], [[1.0] + [0.0] * 9] * 3])
    def test_candidate_error_is_found_before_out_exists(self, tmp_path, cfg_file, capsys, nullspace):
        # a basis of the wrong shape for the config, not numbers, or not orthonormal
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"m1": 0.0, "m2": 0.0, "sigma_min": 0.0, "nullspace": nullspace}))
        out = tmp_path / "o"
        assert main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_basis_is_config_error(self, tmp_path, cfg_file, capsys):
        basis = np.eye(10)[:3]
        basis[1] = np.nan
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"m1": 0.0, "m2": 0.0, "sigma_min": 0.0, "nullspace": basis.tolist()}))
        rc = main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "not orthonormal" in capsys.readouterr().err

    def test_missing_candidate_is_io_error(self, tmp_path, cfg_file, capsys):
        rc = main(["validate", "--config", cfg_file, "--candidate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_malformed_candidate_is_io_error(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "candidate.json"
        bad.write_text('{"nullspace": [[1, 0],')
        rc = main(["validate", "--config", cfg_file, "--candidate", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"malformed JSON: {bad}: Expecting value" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"m1": 0.0, "m2": 0.0}'])
    def test_candidate_without_nullspace_object_is_config_error(self, tmp_path, cfg_file, capsys, text):
        cand = tmp_path / "cand.json"
        cand.write_text(text)
        rc = main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(cand) in err and "nullspace" in err


    @pytest.mark.parametrize("nullspace", [[[1, "x"]], [[1.0, 0.0], [0.0]], [[None] * 10] * 3, [[True, 0.5, 1]] + [[0.0] * 3] * 9])
    def test_candidate_nullspace_not_numbers_is_config_error(self, tmp_path, cfg_file, capsys, nullspace):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"m1": 0.0, "m2": 0.0, "sigma_min": 0.0, "nullspace": nullspace}))
        rc = main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{cand}: nullspace is not a rectangular array of numbers" in capsys.readouterr().err


class TestSweep:
    def test_rows_and_medians(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--config", cfg_file, "--Nt-list", "5,10", "--seeds", "0,1",
            "--grid-m1", "0.0", "1.0", "1", "--grid-m2", "0.0", "1.0", "1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "convergence.csv").read_text().strip().split("\n")
        assert rows[0] == "Nt,seed,theta_max,admitted"
        assert len(rows) == 1 + 4
        assert all(line.endswith(",1") for line in rows[1:])
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 2
        for line in summary[1:]:
            assert float(line.split(",")[1]) <= 1e-8

    def test_distinct_moment_grid(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, moment_mode="distinct", grid={
            "m1u": [-0.5, 0.5, 3], "m2u": [0.0, 1.0, 2], "m1y": [-0.5, 0.5, 3], "m2y": [0.0, 1.0, 2],
        })
        path = tmp_path / "distinct.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(path), "--Nt-list", "5", "--seeds", "0,1", "--out", str(out)])
        assert rc == 0
        rows = (out / "convergence.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2
        assert all(line.endswith(",1") for line in rows[1:])
        for line in rows[1:]:
            assert float(line.split(",")[2]) <= 1e-8

    def test_bad_nt_list_is_config_error(self, tmp_path, cfg_file, capsys):
        rc = main([
            "sweep", "--config", cfg_file, "--Nt-list", "5;10", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    def test_negative_seed_is_config_error(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_file, "--Nt-list", "5", "--seeds=0,-3", "--out", str(out)]) == 3
        assert "--seeds must be non-negative integers, got [0, -3]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, cause", [
        (["--Nt-list", "10,5"], "Nt_list must be ascending"),
        (["--Nt-list=0,5"], "Nt must be >= 1"),
    ])
    def test_bad_nt_values_are_config_error_before_out_exists(self, tmp_path, cfg_file, capsys, flag, cause):
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_file, *flag, "--seeds", "0", "--out", str(out)]) == 3
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nt_list, seeds, flag", [("", "0", "--Nt-list"), ("5", "", "--seeds"), ("5", ",", "--seeds")])
    def test_empty_list_is_config_error(self, tmp_path, cfg_file, capsys, nt_list, seeds, flag):
        out = tmp_path / "o"
        rc = main(["sweep", "--config", cfg_file, "--Nt-list", nt_list, "--seeds", seeds, "--out", str(out)])
        assert rc == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()


# ------------------------------------------------------------ streamed datasets

# generate and recover --dataset work one block of BLOCK_SIZE records at a
# time; their files must be the bytes of the whole ensemble generated,
# perturbed, saved and aggregated in memory. Nt: one record, one block short
# of full, one full block, two blocks and a record, and a short last block.
# The noise families and initial-state policies rotate over the sizes.
STREAM_CASES = [
    (1, {"family": "gaussian", "m1": 1.0, "m2": 5.0}, "random-bounded"),
    (511, {"family": "uniform", "m1": 1.0, "m2": 5.0}, "zero"),
    (512, {"family": "shifted-exponential", "m1": 1.0, "m2": 5.0}, "random-bounded"),
    (1025, {"family": "gaussian", "m1": 0.5, "m2": 2.0}, "zero"),
    (2000, {"u": {"family": "uniform", "m1": 1.0, "m2": 5.0}, "y": {"family": "shifted-exponential", "m1": 0.5, "m2": 2.0}}, "random-bounded"),
]
STREAMED_FILES = ("gen/dataset_noisy.jsonl", "gen/dataset_noiseless.jsonl", "rec/stats.json")


def _stream_config(tmp_path, Nt, noise, policy) -> str:
    path = tmp_path / "stream.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, Nt=Nt, noise=noise, x0_policy=policy)))
    return str(path)


def _whole_ensemble(config: str, out) -> None:
    """generate's two files and recover's stats.json as the whole ensemble
    gives them: one root from the seed, every record simulated, then
    perturbed, in memory."""
    with open(config, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh))
    rng = np.random.default_rng(cfg.seed)
    clean = generate_dataset(cfg.system, cfg.Nt, cfg.N, cfg.L, cfg.x0_policy, rng, x0_halfwidth=cfg.x0_halfwidth)
    noisy = add_noise(clean, cfg.noise_u, cfg.noise_y, rng)
    for sub in ("gen", "rec"):
        (out / sub).mkdir(parents=True)
    save_dataset(noisy, out / "gen" / "dataset_noisy.jsonl")
    save_dataset(clean, out / "gen" / "dataset_noiseless.jsonl")
    save_stats(aggregate(noisy, cfg.L), out / "rec" / "stats.json")


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)])
@pytest.mark.parametrize("Nt, noise, policy", STREAM_CASES, ids=[str(c[0]) for c in STREAM_CASES])
def test_streamed_commands_match_the_whole_ensemble(tmp_path, monkeypatch, capsys, Nt, noise, policy, cpus):
    config = _stream_config(tmp_path, Nt, noise, policy)
    _whole_ensemble(config, tmp_path / "whole")
    monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
    monkeypatch.setattr(lti_sim, "FORK_MIN_VALUES", 1)
    calls = spy(monkeypatch, lti_sim, "_in_parts")
    out = tmp_path / "streamed"
    assert main(["generate", "--config", config, "--out", str(out / "gen")]) == 0
    rc = main(["recover", "--config", config, "--dataset", str(out / "gen" / "dataset_noisy.jsonl"), "--out", str(out / "rec")])
    assert rc in (0, 2)  # the small grid need not admit the injected moments
    blocks = -(-Nt // lti_sim.BLOCK_SIZE)
    assert part_counts(calls)[:2] == [min(blocks, cpus)] * 2  # generate, then the read of recover
    for name in STREAMED_FILES:
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


def test_piped_dataset_is_streamed_in_one_pass(tmp_path, monkeypatch, capsys):
    # /dev/stdin fed by a pipe cannot be opened again, so it is read in one
    # part even where a regular file is read in two
    config = _stream_config(tmp_path, *STREAM_CASES[-1])
    _whole_ensemble(config, tmp_path / "whole")
    src = os.path.dirname(os.path.dirname(lti_sim.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from hankelnull import cli, lti_sim; "
        "lti_sim._cpus = lambda: 2; lti_sim.FORK_MIN_VALUES = 1; "
        f"sys.exit(cli.main(['aggregate', '--config', {config!r}, '--dataset', '/dev/stdin', '--out', {str(tmp_path / 'piped')!r}]))"
    )
    dataset = (tmp_path / "whole" / "gen" / "dataset_noisy.jsonl").read_bytes()
    subprocess.run([sys.executable, "-c", code], input=dataset, check=True, capture_output=True, timeout=120)
    assert json.loads((tmp_path / "piped" / "manifest.json").read_text())["cpus"] == 2
    assert (tmp_path / "piped" / "stats.json").read_bytes() == (tmp_path / "whole" / "rec" / "stats.json").read_bytes()


@FORKS
def test_parts_fork_after_blas_has_started_its_threads(tmp_path, capsys):
    # the parts simulate and aggregate, so they call BLAS and LAPACK in the
    # child; with two BLAS threads started by a large product before the
    # fork, generate and recover --dataset in two parts finish and give the
    # whole ensemble's bytes
    config = _stream_config(tmp_path, *STREAM_CASES[-1])
    _whole_ensemble(config, tmp_path / "whole")
    src = os.path.dirname(os.path.dirname(lti_sim.__file__))
    out = tmp_path / "threads"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; from hankelnull import cli, lti_sim; "
        "a = np.ones((600, 600)); a @ a; "
        "lti_sim._cpus = lambda: 2; lti_sim.FORK_MIN_VALUES = 1; "
        f"assert cli.main(['generate', '--config', {config!r}, '--out', {str(out / 'gen')!r}]) == 0; "
        f"sys.exit(cli.main(['recover', '--config', {config!r}, '--dataset', {str(out / 'gen' / 'dataset_noisy.jsonl')!r}, "
        f"'--out', {str(out / 'rec')!r}]) not in (0, 2))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=120)
    for name in STREAMED_FILES:
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name
