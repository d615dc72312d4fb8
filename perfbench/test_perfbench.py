"""Tests for the benchmark's output checks and span summary.

Small inputs only: a 200-record ensemble and a 12x12 tied grid.
"""

import numpy as np
import pytest

from hankelnull import (
    NoiseSpec,
    add_noise,
    aggregate,
    generate_dataset,
    grid_search,
    write_candidate_json,
    write_landscape_csv,
)

import checks
import spans
from worker import INJECTED, INPUT_ROWS, NULLITY, SYSTEM, _candidate


@pytest.fixture(scope="module")
def recovered(tmp_path_factory):
    rng = np.random.default_rng(3)
    noise = NoiseSpec("gaussian", 1.0, 5.0)
    st = aggregate(add_noise(generate_dataset(SYSTEM, 200, 30, 2, "random-bounded", rng), noise, noise, rng), 2)
    axes = (np.linspace(0.0, 1.5, 12), np.linspace(2.5, 7.0, 12))
    res = grid_search(st.finalize(), axes, 1e-3, NULLITY, eps_mode="auto", input_rows=INPUT_ROWS)
    out = tmp_path_factory.mktemp("rec")
    write_landscape_csv(res, out / "landscape.csv")
    write_candidate_json(res.best, out / "candidate.json")
    return st, res, out


def test_clean_outputs_pass(recovered):
    st, res, out = recovered
    rng = np.random.default_rng(0)
    assert checks.landscape(out / "landscape.csv", 144, st.finalize(), INPUT_ROWS, rng) == []
    moments, basis = _candidate(out / "candidate.json")
    assert checks.orthonormal(basis, NULLITY) == []
    assert checks.same_stats(st, st) == []
    assert checks.moment_err(moments, INJECTED) >= 0.0


def _landscape_lines(out):
    return (out / "landscape.csv").read_text().splitlines()


def test_perturbed_landscape_row_fails(recovered, tmp_path):
    st, res, out = recovered
    lines = _landscape_lines(out)
    k = lines[0].split(",").index("sigma_min")
    vals = lines[6].split(",")
    vals[k] = repr(float(vals[k]) * (1 + 1e-6))
    lines[6] = ",".join(vals)
    bad = tmp_path / "landscape.csv"
    bad.write_text("\n".join(lines) + "\n")
    # sample every row so the perturbed one is re-derived
    fails = checks.landscape(bad, 144, st.finalize(), INPUT_ROWS, _AllRows())
    assert len(fails) == 1 and "sigma_min" in fails[0]


def test_missing_landscape_row_fails(recovered, tmp_path):
    st, res, out = recovered
    bad = tmp_path / "landscape.csv"
    bad.write_text("\n".join(_landscape_lines(out)[:-1]) + "\n")
    fails = checks.landscape(bad, 144, st.finalize(), INPUT_ROWS, np.random.default_rng(0))
    assert any("one per grid point" in f for f in fails)


def test_non_orthonormal_basis_fails(recovered):
    _, basis = _candidate(recovered[2] / "candidate.json")
    skewed = np.array(basis)
    skewed[0] += 1e-6 * skewed[1]
    assert checks.orthonormal(skewed, NULLITY) != []
    assert checks.orthonormal(np.array(basis)[:2], NULLITY) != []


def test_changed_aggregate_fails(recovered):
    st = recovered[0]
    bumped = type(st)(st.d, st.Nc)
    bumped.count, bumped.G, bumped.rowsum = st.count, st.G.copy(), st.rowsum.copy()
    bumped.G[0, 0] = np.nextafter(bumped.G[0, 0], np.inf)
    assert checks.same_stats(bumped, st) != []


class _AllRows:
    """Stand-in generator whose choice() picks every row."""

    def choice(self, n, size, replace):
        return np.arange(n)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent)


def test_self_times_add_up_to_command_wall_time():
    recorded = [
        _span("bench.setup", -2.0, -1.0, None),
        _span("stats.aggregate", -1.8, -1.2, 0),
        _span("bench.op", 0.0, 10.0, None),
        _span("cli.recover", 0.5, 9.5, 2),
        _span("lti_sim.load_dataset", 1.0, 3.0, 3),
        _span("stats.aggregate", 3.0, 4.0, 3),
        _span("estimator.grid_search", 4.5, 8.0, 3),
        _span("lti_sim.generate_dataset", 5.0, 6.0, 6),
    ]
    recorded[4].counts["bytes"] = 100
    recorded[6].counts.update(points=1000, admitted=4)
    metrics, residuals = spans.summarize(recorded)
    assert residuals == [pytest.approx(0.0, abs=1e-12)]
    assert metrics["cli.recover.self_s"] == pytest.approx(2.5)
    assert metrics["estimator.self_s"] == pytest.approx(2.5)
    assert metrics["lti_sim.self_s"] == pytest.approx(3.0)
    assert metrics["estimator.grid_search.points_per_s"] == pytest.approx(1000 / 3.5)
    assert metrics["estimator.grid_search.useful_ratio"] == pytest.approx(0.25)
    assert metrics["lti_sim.load_dataset.bytes"] == 100
    # one set-up plus one operation
    assert metrics["stats.aggregate.busy_s"] == pytest.approx(0.6 + 1.0)
    assert metrics["stats.aggregate.calls"] == 2


def test_tracer_wraps_and_restores_cli_names():
    import hankelnull.cli as cli

    original = cli.grid_search
    tracer = spans.Tracer()
    with tracer.patched({"grid_search": original}) as api:
        assert cli.grid_search is api["grid_search"]
    assert cli.grid_search is original
