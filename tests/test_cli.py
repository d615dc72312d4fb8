import json
import subprocess
import sys

import numpy as np
import pytest

from hankelnull import load_dataset
from hankelnull.cli import main

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
        assert "generate_s" in manifest["timings"]

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

    def test_worker_count_does_not_change_output(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "w1", tmp_path / "w3"
        assert main(["generate", "--config", cfg_file, "--workers", "1", "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg_file, "--workers", "3", "--out", str(b)]) == 0
        for name in ("dataset_noiseless.jsonl", "dataset_noisy.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    def test_mismatched_dataset_rejected(self, tmp_path, cfg_file, gen_dir, capsys):
        rc = main([
            "aggregate", "--config", cfg_file, "--N", "24",
            "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 3


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

    def test_workers_key_of_old_manifests_is_ignored(self, tmp_path, cfg_file, gen_dir, capsys):
        old = dict(SMALL_CONFIG, workers=4)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"command": "recover", "config": old, "timings": {}, "outputs": {}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["recover", "--config", str(path), "--workers", "2", "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(a)]) == 0
        assert main(["recover", "--config", cfg_file, "--dataset", str(gen_dir / "dataset_noisy.jsonl"), "--out", str(b)]) == 0
        assert (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()


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

    def test_wrong_basis_shape_rejected(self, tmp_path, cfg_file, capsys):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"m1": 0.0, "m2": 0.0, "sigma_min": 0.0, "nullspace": np.eye(10)[:2].tolist()}))
        rc = main(["validate", "--config", cfg_file, "--candidate", str(cand), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_missing_candidate_is_io_error(self, tmp_path, cfg_file, capsys):
        rc = main(["validate", "--config", cfg_file, "--candidate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 4


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
