import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_child_left, part_counts, spy, svd_rule
from hankelnull import (
    Dataset,
    NoiseSpec,
    StateSpace,
    add_noise,
    aggregate,
    estimator,
    generate_dataset,
    generate_pe_input,
    grid_search,
    hankel,
    load_dataset,
    lti_sim,
    pe_order_check,
    random_system,
    save_dataset,
    simulate,
)
from hankelnull.cli import PRESETS, config_from_dict
from hankelnull.lti_sim import NOISE_FAMILIES

# dataset I/O forks on Linux only; the tests that force a CPU count above 1 need that
forks = pytest.mark.skipif(sys.platform != "linux", reason="dataset I/O forks on Linux only")


# ---------------------------------------------------------------- types

def test_state_space_dimension_checks():
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))


def test_demo_system_is_stable(demo_system):
    assert demo_system.spectral_radius < 1.0
    assert (demo_system.n, demo_system.m, demo_system.p) == (3, 2, 3)


def test_dataset_uniformity_check():
    # the (Nt, N, c) arrays force one N per dataset; U and Y must agree on it
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 5, 1)), np.zeros((2, 6, 1)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 5, 1)), np.zeros((0, 5, 1)))


# ---------------------------------------------------------------- simulate

def test_simulate_unit_delay():
    ss = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    assert np.array_equal(simulate(ss, [0.0], [1.0, 1.0]), [[0.0], [1.0]])


def test_simulate_zero_input_zero_state(demo_system):
    assert np.array_equal(simulate(demo_system, np.zeros(3), np.zeros((12, 2))), np.zeros((12, 3)))


def test_simulate_free_response_reads_a_column(demo_system):
    # full state output and zero input make y_1 the first column of A
    Y = simulate(demo_system, [1.0, 0.0, 0.0], np.zeros((4, 2)))
    assert np.array_equal(Y[0], [1.0, 0.0, 0.0])
    assert np.allclose(Y[1], [0.8, 0.1, 0.0], rtol=0, atol=1e-15)


def test_simulate_matches_naive_loop():
    rng = np.random.default_rng(21)
    for _ in range(5):
        ss = random_system(3, 2, 2, rng)
        x0 = rng.standard_normal(3)
        U = rng.standard_normal((15, 2))
        Y = simulate(ss, x0, U)
        x = x0.copy()
        for k in range(15):
            yk = ss.C @ x + ss.D @ U[k]
            assert np.array_equal(Y[k], yk)
            x = ss.A @ x + ss.B @ U[k]


def test_simulate_superposition():
    rng = np.random.default_rng(22)
    ss = random_system(3, 2, 2, rng)
    x1, x2 = rng.standard_normal((2, 3))
    U1, U2 = rng.standard_normal((2, 20, 2))
    lhs = simulate(ss, x1 + x2, U1 + U2)
    rhs = simulate(ss, x1, U1) + simulate(ss, x2, U2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_simulate_rejects_mismatched_shapes(demo_system):
    with pytest.raises(ValueError):
        simulate(demo_system, np.zeros(3), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        simulate(demo_system, np.zeros(2), np.zeros((5, 2)))


# ---------------------------------------------------------------- pe input

def test_generate_pe_input_demo_order():
    U = generate_pe_input(30, 2, 5, np.random.default_rng(0))
    assert U.shape == (30, 2)
    assert np.linalg.matrix_rank(hankel(U, 5)) == 10


def test_generate_pe_input_minimal_case():
    U = generate_pe_input(3, 1, 2, np.random.default_rng(1))
    assert np.linalg.matrix_rank(hankel(U, 2)) == 2


def test_generate_pe_input_infeasible():
    # a depth-3 Hankel of 5 samples has 3 columns, rank at most 3 < 6
    with pytest.raises(ValueError):
        generate_pe_input(5, 2, 3, np.random.default_rng(0))


class _ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_generate_pe_input_retry_budget():
    with pytest.raises(RuntimeError):
        generate_pe_input(10, 1, 2, _ZeroRng())


# ---------------------------------------------------------------- noise

def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", 2.0, 1.0)  # variance would be negative
    with pytest.raises(ValueError):
        NoiseSpec("poisson", 0.0, 1.0)


@pytest.mark.parametrize("family, m1, m2, cause", [
    ("gaussian", math.nan, 1.0, "noise moment m1=nan is not finite"),
    ("gaussian", 1.0, math.inf, "noise moment m2=inf is not finite"),
    ("shifted-exponential", -math.inf, 1.0, "noise moment m1=-inf is not finite"),
    ("uniform", 0.0, math.nan, "noise moment m2=nan is not finite"),
    ("uniform", 0.0, 1e308, "m2=1e+308 puts the uniform endpoints too far apart"),
    ("gaussian", 1e200, 1e300, "implies negative variance"),  # m1**2 overflows
])
def test_noise_spec_refuses_bad_moments(family, m1, m2, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        NoiseSpec(family, m1, m2)


def test_largest_accepted_moments_draw_finite_noise():
    for spec in (NoiseSpec("uniform", 0.0, 5e307), NoiseSpec("gaussian", 0.0, 1e308), NoiseSpec("shifted-exponential", 0.0, 1e308)):
        assert np.isfinite(spec.draw(np.random.default_rng(0), 1000)).all()


@pytest.mark.parametrize("m1, m2", [(1.0, 5.0), (-0.5, 2.0), (0.3, 0.0900001)])
def test_draw_is_numpys_own_formula_bitwise(m1, m2):
    var = m2 - m1 ** 2
    sd, w, s = math.sqrt(var), math.sqrt(3.0 * var), math.sqrt(var)
    literal = {
        "gaussian": lambda rng: rng.normal(m1, sd, (300, 7)),
        "uniform": lambda rng: rng.uniform(m1 - w, m1 + w, (300, 7)),
        "shifted-exponential": lambda rng: (m1 - s) + rng.exponential(s, (300, 7)),
    }
    for family, want in literal.items():
        got = NoiseSpec(family, m1, m2).draw(np.random.default_rng(3), (300, 7))
        assert got.tobytes() == want(np.random.default_rng(3)).tobytes(), family


def test_zero_noise_is_identity(demo_system):
    rng = np.random.default_rng(3)
    ds = generate_dataset(demo_system, 3, 20, 2, "zero", rng)
    zero = NoiseSpec("gaussian", 0.0, 0.0)
    out = add_noise(ds, zero, zero, rng)
    assert np.array_equal(ds.U, out.U)
    assert np.array_equal(ds.Y, out.Y)


def test_degenerate_noise_is_constant_offset():
    spec = NoiseSpec("uniform", 0.5, 0.25)
    draw = spec.draw(np.random.default_rng(0), (4, 2))
    assert np.array_equal(draw, np.full((4, 2), 0.5))


@pytest.mark.parametrize("family", ["gaussian", "uniform", "shifted-exponential"])
def test_noise_moments_match_spec(family):
    spec = NoiseSpec(family, 1.0, 5.0)
    x = spec.draw(np.random.default_rng(17), 1_200_000)
    n = x.size
    # five standard errors, estimated from the sample itself
    for power, target in ((1, 1.0), (2, 5.0)):
        emp = np.mean(x ** power)
        se = np.std(x ** power) / math.sqrt(n)
        assert abs(emp - target) < 5 * se, f"{family} moment {power}: {emp} vs {target}"


def test_uniform_moment_match_solves_endpoints():
    # (a+b)/2 = 1 and (a^2+ab+b^2)/3 = 5 solve to 1 -/+ 2*sqrt(3)
    spec = NoiseSpec("uniform", 1.0, 5.0)
    a, b = 1.0 - 2.0 * math.sqrt(3.0), 1.0 + 2.0 * math.sqrt(3.0)
    assert (a + b) / 2.0 == pytest.approx(spec.m1)
    assert (a * a + a * b + b * b) / 3.0 == pytest.approx(spec.m2)
    x = spec.draw(np.random.default_rng(5), 200_000)
    assert x.min() >= a and x.max() <= b


def test_shifted_exponential_support():
    # scale 2 and shift -1 give mean 1 and raw second moment 5
    spec = NoiseSpec("shifted-exponential", 1.0, 5.0)
    x = spec.draw(np.random.default_rng(5), 200_000)
    assert x.min() >= -1.0
    assert np.mean(x) == pytest.approx(1.0, abs=0.02)


def test_noise_per_experiment_streams_do_not_depend_on_ensemble_size(demo_system):
    ds = generate_dataset(demo_system, 2, 20, 2, "zero", np.random.default_rng(9))
    spec = NoiseSpec("gaussian", 1.0, 5.0)
    both = add_noise(ds, spec, spec, np.random.default_rng(42))
    only_first = add_noise(ds[:1], spec, spec, np.random.default_rng(42))
    assert np.array_equal(both.U[0], only_first.U[0])
    assert np.array_equal(both.Y[0], only_first.Y[0])


# ---------------------------------------------------------------- datasets

def test_generate_dataset_deterministic(demo_system):
    a = generate_dataset(demo_system, 4, 20, 2, "random-bounded", np.random.default_rng(123))
    b = generate_dataset(demo_system, 4, 20, 2, "random-bounded", np.random.default_rng(123))
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.Y, b.Y)


def _per_record_oracle(ss, Nt, N, L, seed, halfwidth=1.0):
    """generate_dataset transcribed one record at a time: stream i draws x0,
    then U, and the state recursion runs one matrix-vector step at a time."""
    out = []
    for g in np.random.default_rng(seed).spawn(Nt):
        x = g.uniform(-halfwidth, halfwidth, ss.n)
        U = generate_pe_input(N, ss.m, L + ss.n, g)
        Y = np.empty((N, ss.p))
        for k in range(N):
            Y[k] = ss.C @ x + ss.D @ U[k]
            x = ss.A @ x + ss.B @ U[k]
        out.append((U, Y))
    return out


def test_generate_dataset_matches_per_record_oracle(demo_system):
    # more than two blocks, so block offsets are exercised
    ds = generate_dataset(demo_system, 1100, 20, 2, "random-bounded", np.random.default_rng(5))
    assert (ds.U.shape, ds.Y.shape) == ((1100, 20, 2), (1100, 20, 3))
    for i, (U, Y) in enumerate(_per_record_oracle(demo_system, 1100, 20, 2, 5)):
        assert np.array_equal(ds.U[i], U)
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()


def test_generate_dataset_random_system_matches_oracle():
    ss = random_system(4, 3, 2, np.random.default_rng(40))
    ds = generate_dataset(ss, 300, 40, 3, "random-bounded", np.random.default_rng(41), x0_halfwidth=2.0)
    for i, (U, Y) in enumerate(_per_record_oracle(ss, 300, 40, 3, 41, halfwidth=2.0)):
        assert np.array_equal(ds.U[i], U)
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()


def test_prefix_of_big_ensemble_is_the_small_ensemble(demo_system):
    big = generate_dataset(demo_system, 1100, 20, 2, "random-bounded", np.random.default_rng(6))
    for k in (1, 2, 511, 513):
        small = generate_dataset(demo_system, k, 20, 2, "random-bounded", np.random.default_rng(6))
        assert np.array_equal(big[:k].U, small.U)
        assert np.array_equal(big[:k].Y, small.Y)


class _FirstDrawsZero:
    """Child stream whose first `zeros` standard-normal draws are all zero
    and consume nothing; its methods take a Generator's size and out."""

    def __init__(self, g, zeros):
        self.g, self.zeros = g, zeros

    def random(self, size=None, out=None):
        return self.g.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        if self.zeros > 0:
            self.zeros -= 1
            if out is None:
                return np.zeros(size)
            out[...] = 0.0
            return out
        return self.g.standard_normal(size, out=out)


class _RootWithBadStreams:
    """Root generator whose spawned streams at `bad` start with zero inputs."""

    def __init__(self, seed, bad, zeros=1):
        self.seed, self.bad, self.zeros = seed, bad, zeros

    def spawn(self, n):
        streams = np.random.default_rng(self.seed).spawn(n)
        return [_FirstDrawsZero(g, self.zeros) if i in self.bad else g for i, g in enumerate(streams)]


def test_excitation_failure_redraws_from_own_stream(demo_system):
    # record 3 sits in the first block and record 600 in the second
    ds = generate_dataset(demo_system, 700, 20, 2, "random-bounded", _RootWithBadStreams(8, {3, 600}))
    ref = generate_dataset(demo_system, 700, 20, 2, "random-bounded", np.random.default_rng(8))
    # a rejected all-zero draw consumes nothing, so each bad stream's retry
    # is the draw its record makes anyway
    assert np.array_equal(ds.U, ref.U)
    assert np.array_equal(ds.Y, ref.Y)


def test_excitation_failure_gives_up_after_max_tries(demo_system):
    from hankelnull.lti_sim import MAX_TRIES

    root = _RootWithBadStreams(8, {5}, zeros=MAX_TRIES - 1)
    ds = generate_dataset(demo_system, 10, 20, 2, "zero", root)
    assert pe_order_check(ds.U[5], 2 + demo_system.n)
    with pytest.raises(RuntimeError, match="record 5"):
        generate_dataset(demo_system, 10, 20, 2, "zero", _RootWithBadStreams(8, {5}, zeros=MAX_TRIES))


@pytest.mark.parametrize("Nt", [2000, 1])  # Nt=1 takes the one-row simulation path
def test_reference_data_match_the_svd_rule_bitwise(monkeypatch, Nt):
    cfg = config_from_dict({**PRESETS["reference"], "Nt": Nt})

    def generate():
        rng = np.random.default_rng(cfg.seed)
        clean = generate_dataset(cfg.system, cfg.Nt, cfg.N, cfg.L, cfg.x0_policy, rng, x0_halfwidth=cfg.x0_halfwidth)
        return clean, add_noise(clean, cfg.noise_u, cfg.noise_y, rng)

    screened = generate()
    monkeypatch.setattr(lti_sim, "pe_order_check", svd_rule)
    for got, want in zip(screened, generate()):
        assert got.U.tobytes() == want.U.tobytes()
        assert got.Y.tobytes() == want.Y.tobytes()


def _numpy_noise(g, spec, shape):
    """spec's noise drawn from g with numpy's own normal, uniform and exponential."""
    var = spec.m2 - spec.m1 ** 2
    if var == 0.0:
        return np.full(shape, spec.m1)
    if spec.family == "gaussian":
        return g.normal(spec.m1, math.sqrt(var), shape)
    if spec.family == "uniform":
        w = math.sqrt(3.0 * var)
        return g.uniform(spec.m1 - w, spec.m1 + w, shape)
    s = math.sqrt(var)
    return (spec.m1 - s) + g.exponential(s, shape)


_MOMENTS = {"gaussian": (1.0, 5.0), "uniform": (-0.5, 2.0), "shifted-exponential": (0.3, 1.0)}


def _noise_pair(u, y):
    """Specs for the two channels; "zero" is a zero-variance spec of the
    other channel's family, so that no draw is made on that side even when
    the families match."""
    def spec(kind, other):
        if kind == "zero":
            return NoiseSpec(other if other != "zero" else "gaussian", 0.5, 0.25)
        return NoiseSpec(kind, *_MOMENTS[kind])

    return spec(u, y), spec(y, u)


@pytest.mark.parametrize("Nt", [1, 7, 600])  # 600 crosses BLOCK_SIZE
@pytest.mark.parametrize("y", [*NOISE_FAMILIES, "zero"])
@pytest.mark.parametrize("u", [*NOISE_FAMILIES, "zero"])
def test_noise_matches_per_stream_draws(demo_system, u, y, Nt):
    spec_u, spec_y = _noise_pair(u, y)
    ds = generate_dataset(demo_system, Nt, 20, 2, "random-bounded", np.random.default_rng(11))
    noisy = add_noise(ds, spec_u, spec_y, np.random.default_rng(12))
    for i, g in enumerate(np.random.default_rng(12).spawn(Nt)):
        assert noisy.U[i].tobytes() == (ds.U[i] + _numpy_noise(g, spec_u, (20, 2))).tobytes()
        assert noisy.Y[i].tobytes() == (ds.Y[i] + _numpy_noise(g, spec_y, (20, 3))).tobytes()


@pytest.mark.parametrize("halfwidth", [0.7, 3.0])
def test_generate_dataset_initial_states_match_per_record_oracle(demo_system, halfwidth):
    # full state output with D = 0: each record's first output is its x0, exactly
    ds = generate_dataset(demo_system, 600, 20, 2, "random-bounded", np.random.default_rng(21), x0_halfwidth=halfwidth)
    for i, (U, Y) in enumerate(_per_record_oracle(demo_system, 600, 20, 2, 21, halfwidth=halfwidth)):
        assert np.array_equal(ds.U[i], U)
        assert ds.Y[i, 0].tobytes() == Y[0].tobytes()
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()


@pytest.mark.parametrize("halfwidth", [-1.0, 1e308, math.nan, math.inf])
def test_generate_dataset_refuses_a_bad_halfwidth_before_drawing(demo_system, halfwidth):
    rng = np.random.default_rng(21)
    with pytest.raises(ValueError, match="x0_halfwidth"):
        generate_dataset(demo_system, 5, 20, 2, "random-bounded", rng, x0_halfwidth=halfwidth)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    # the zero policy reads no half-width
    generate_dataset(demo_system, 5, 20, 2, "zero", rng, x0_halfwidth=halfwidth)


# ---------------------------------------------------------------- record streams

def _seq_root(entropy, spawn_key=(), pool_size=4, spawned=0):
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned)
    return np.random.Generator(np.random.PCG64(seq))


@pytest.mark.parametrize("n", [1, 700])
@pytest.mark.parametrize("root", [
    {"entropy": 0},
    {"entropy": 14},
    {"entropy": 2**130 + 7},
    {"entropy": [14, 3]},
    {"entropy": [1, 2, 3, 4, 5, 6]},  # longer than the pool
    {"entropy": [1, 2, 3, 4, 5, 6], "spawn_key": (2**40, 3)},  # words past the pool from both
    {"entropy": None},
    {"entropy": 14, "spawn_key": (3, 1)},  # a spawned child as root
    {"entropy": 14, "pool_size": 8},
    {"entropy": 14, "spawned": 5},  # a root that has spawned before
], ids=["0", "14", "2**130+7", "[14,3]", "6-words", "6-words-child", "None", "child", "pool-8", "spawned-5"])
def test_derived_record_streams_equal_spawn_bitwise(root, n):
    if root["entropy"] is None:  # fresh entropy from the OS, the same for both roots
        root = {**root, "entropy": np.random.SeedSequence().entropy}
    derived, spawned = _seq_root(**root), _seq_root(**root)
    Z = np.empty((n, 7))
    again = lti_sim._record_draws(derived, n, [("standard_normal", Z)])
    for i, child in enumerate(spawned.spawn(n)):
        assert np.array_equal(Z[i], child.standard_normal(7))
    # a derived stream is reseeded and makes its draws again, ending where
    # the last child's own draws leave it; a spawned one would not redraw
    last, Z[n - 1] = Z[n - 1].copy(), 0.0
    assert again(n - 1).bit_generator.state == child.bit_generator.state
    assert np.array_equal(Z[n - 1], last)
    # the root counts the n children as spawn does, and its own state is untouched
    assert derived.bit_generator.state == spawned.bit_generator.state
    assert derived.bit_generator.seed_seq.n_children_spawned == spawned.bit_generator.seed_seq.n_children_spawned
    assert derived.spawn(1)[0].bit_generator.state == spawned.spawn(1)[0].bit_generator.state


def test_generation_and_noise_count_two_ensembles_of_children(demo_system):
    rng = np.random.default_rng(14)
    ds = generate_dataset(demo_system, 300, 20, 2, "random-bounded", rng)
    spec = NoiseSpec("gaussian", 1.0, 5.0)
    add_noise(ds, spec, spec, rng)
    ref = np.random.default_rng(14)
    ref.spawn(600)
    assert rng.spawn(1)[0].bit_generator.state == ref.spawn(1)[0].bit_generator.state


def test_kept_seed_sequence_counts_the_children(demo_system):
    seq = np.random.SeedSequence(14)
    rng = np.random.default_rng(seq)
    ds = generate_dataset(demo_system, 300, 20, 2, "random-bounded", rng)
    spec = NoiseSpec("gaussian", 1.0, 5.0)
    add_noise(ds, spec, spec, rng)
    # the caller's own seed sequence counts the children, as spawn counts them
    assert seq.n_children_spawned == 600
    child = seq.spawn(1)[0]
    assert child.spawn_key == (600,)
    ref = np.random.default_rng(14)
    ref.spawn(600)
    assert np.random.PCG64(child).state == ref.spawn(1)[0].bit_generator.state


def test_other_bit_generators_keep_spawned_streams(demo_system):
    def root():
        return np.random.Generator(np.random.MT19937(5))

    # served by spawn: again(i) is child i where its draws left it, drawing nothing more
    rows = np.empty((3, 4))
    again = lti_sim._record_draws(root(), 3, [("standard_normal", rows)])
    children = root().spawn(3)
    for i, g in enumerate(children):
        assert np.array_equal(rows[i], g.standard_normal(4))
    rows[2] = 0.0
    assert np.array_equal(again(2).standard_normal(5), children[2].standard_normal(5))
    assert not rows[2].any()
    rng = root()
    ds = generate_dataset(demo_system, 40, 20, 2, "random-bounded", rng)
    for i, (U, Y) in enumerate(_per_record_oracle(demo_system, 40, 20, 2, root())):
        assert np.array_equal(ds.U[i], U)
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()
    spec = NoiseSpec("uniform", 1.0, 5.0)
    noisy = add_noise(ds, spec, spec, rng)
    for i, g in enumerate(root().spawn(80)[40:]):
        assert np.array_equal(noisy.U[i], ds.U[i] + spec.draw(g, (20, 2)))
        assert np.array_equal(noisy.Y[i], ds.Y[i] + spec.draw(g, (20, 3)))


def test_record_streams_refuse_a_seeding_they_do_not_reproduce(monkeypatch):
    monkeypatch.setattr(lti_sim, "_PCG64_MULT", lti_sim._PCG64_MULT + 2)
    seq = np.random.SeedSequence(14)
    rng = np.random.default_rng(seq)
    Z = np.zeros((10, 3))
    with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} seeds child stream 0 "):
        lti_sim._record_draws(rng, 10, [("standard_normal", Z)])
    # nothing counted, on the root or on the caller's kept seed sequence, and nothing drawn
    assert rng.bit_generator.seed_seq.n_children_spawned == seq.n_children_spawned == 0
    assert not Z.any()


def test_excitation_failure_redraws_from_derived_stream(demo_system, monkeypatch):
    # the first screen of each block rejects records 3 and 600, one in each
    real, screened = lti_sim.pe_order_check, []

    def screen(U, order):
        ok = real(U, order)
        if U.ndim == 3:
            a = lti_sim.BLOCK_SIZE * len(screened)
            screened.append(a)
            for i in (3, 600):
                if a <= i < a + ok.size:
                    ok[i - a] = False
        return ok

    monkeypatch.setattr(lti_sim, "pe_order_check", screen)
    rng = np.random.default_rng(8)
    ds = generate_dataset(demo_system, 700, 20, 2, "random-bounded", rng)
    monkeypatch.undo()
    assert screened == [0, 512]
    ref = generate_dataset(demo_system, 700, 20, 2, "random-bounded", np.random.default_rng(8))
    children = np.random.default_rng(8).spawn(700)
    redrawn = np.isin(np.arange(700), [3, 600])
    assert np.array_equal(ds.U[~redrawn], ref.U[~redrawn]) and np.array_equal(ds.Y[~redrawn], ref.Y[~redrawn])
    for i in (3, 600):
        g = children[i]
        x0 = g.uniform(-1.0, 1.0, demo_system.n)
        first = g.standard_normal((20, 2))
        assert np.array_equal(ref.U[i], first)
        # the retry is the stream's second input draw
        assert np.array_equal(ds.U[i], g.standard_normal((20, 2)))
        Y = simulate(demo_system, x0, ds.U[i])
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()
    # the redraw counts no children on the root
    assert rng.bit_generator.seed_seq.n_children_spawned == 700


def test_record_streams_are_derived_a_block_at_a_time(demo_system, monkeypatch):
    # 5 blocks of 7 children and a last one of 2; the first screen of record
    # 23, in the fourth block, fails, so its stream is derived again alone
    monkeypatch.setattr(lti_sim, "BLOCK_SIZE", 7)
    real = lti_sim.pe_order_check
    screened = []

    def screen(U, order):
        ok = real(U, order)
        if U.ndim == 3:
            a = 7 * len(screened)
            screened.append(a)
            if a <= 23 < a + ok.size:
                ok[23 - a] = False
        return ok

    monkeypatch.setattr(lti_sim, "pe_order_check", screen)
    derived = spy(monkeypatch, lti_sim, "_pcg64_states")
    rng = np.random.default_rng(8)
    Z = np.empty((37, 5))
    lti_sim._record_draws(rng, 37, [("standard_normal", Z)])
    ds = generate_dataset(demo_system, 37, 20, 2, "random-bounded", rng)
    assert screened == [0, 7, 14, 21, 28, 35]
    # no call derives more than a block's states; the replay derives one
    asked = [args[1:] for args, _ in derived]
    assert max(n for _, n in asked) == 7 and (37 + 23, 1) in asked
    children = np.random.default_rng(8).spawn(74)
    for i, g in enumerate(children[:37]):
        assert np.array_equal(Z[i], g.standard_normal(5))
    for i, g in enumerate(children[37:]):
        x0 = g.uniform(-1.0, 1.0, demo_system.n)
        U = g.standard_normal((20, 2))
        if i == 23:  # the retry is the stream's second input draw
            U = g.standard_normal((20, 2))
        assert np.array_equal(ds.U[i], U)
        Y = simulate(demo_system, x0, U)
        assert np.abs(ds.Y[i] - Y).max() <= 1e-14 * np.abs(Y).max()
    assert rng.bit_generator.seed_seq.n_children_spawned == 74


def test_dataset_indexing(demo_system):
    ds = generate_dataset(demo_system, 5, 20, 2, "zero", np.random.default_rng(13))
    assert ds[1:3].Nt == 2
    assert np.array_equal(ds[1:3].U, ds.U[1:3]) and np.array_equal(ds[1:3].Y, ds.Y[1:3])
    with pytest.raises(TypeError, match="record i is U"):
        ds[4]
    with pytest.raises(TypeError, match="record i is U"):
        list(ds)


def test_dataset_rejects_non_finite_samples():
    U, Y = np.zeros((4, 6, 1)), np.zeros((4, 6, 2))
    Y[2, 3, 1] = np.nan
    with pytest.raises(ValueError, match="record 2 has non-finite"):
        Dataset(U, Y)
    Y[2, 3, 1] = 0.0
    U[3, 0, 0] = -np.inf
    with pytest.raises(ValueError, match="record 3 has non-finite"):
        Dataset(U, Y)
    # records are checked a block at a time; one in the third block is named
    U, Y = np.zeros((2 * lti_sim.BLOCK_SIZE + 3, 6, 1)), np.zeros((2 * lti_sim.BLOCK_SIZE + 3, 6, 2))
    Y[2 * lti_sim.BLOCK_SIZE + 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match=f"record {2 * lti_sim.BLOCK_SIZE + 1} has non-finite"):
        Dataset(U, Y)


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 6)), np.zeros((4, 6)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 6, 1)), np.zeros((3, 6, 1)))


def test_generate_dataset_inputs_are_exciting(demo_system):
    ds = generate_dataset(demo_system, 20, 30, 2, "random-bounded", np.random.default_rng(2))
    order = 2 + demo_system.n
    assert all(pe_order_check(u, order) for u in ds.U)


def test_generate_dataset_zero_policy_starts_at_rest(demo_system):
    # D = 0, so a zero initial state forces y_0 = 0
    ds = generate_dataset(demo_system, 3, 20, 2, "zero", np.random.default_rng(4))
    for Y in ds.Y:
        assert np.array_equal(Y[0], np.zeros(3))


def test_generate_dataset_infeasible_length(demo_system):
    with pytest.raises(ValueError):
        generate_dataset(demo_system, 1, 10, 2, "zero", np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_dataset(demo_system, 0, 30, 2, "zero", np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_dataset(demo_system, 1, 30, 2, "sideways", np.random.default_rng(0))


def test_random_system_hits_spectral_radius():
    ss = random_system(4, 2, 3, np.random.default_rng(8), spectral_radius=0.85)
    assert ss.spectral_radius == pytest.approx(0.85, rel=1e-10)
    assert (ss.n, ss.m, ss.p) == (4, 2, 3)


# ---------------------------------------------------------------- disk format

def test_dataset_jsonl_roundtrip(tmp_path, demo_system):
    rng = np.random.default_rng(31)
    ds = generate_dataset(demo_system, 3, 20, 2, "random-bounded", rng)
    noisy = add_noise(ds, NoiseSpec("gaussian", 1.0, 5.0), NoiseSpec("gaussian", 1.0, 5.0), rng)
    path = tmp_path / "ds.jsonl"
    save_dataset(noisy, path)
    back = load_dataset(path)
    assert back.Nt == noisy.Nt
    assert np.array_equal(noisy.U, back.U)  # 17 significant digits round-trip exactly
    assert np.array_equal(noisy.Y, back.Y)


def test_dataset_jsonl_header(tmp_path, demo_system):
    ds = generate_dataset(demo_system, 2, 20, 2, "zero", np.random.default_rng(0))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[0])["meta"] == {"Nt": 2, "N": 20, "m": 2, "p": 3}
    assert json.loads(lines[1])["i"] == 0


def _per_record_writer(ds, path):
    """save_dataset transcribed one record and one float at a time."""
    def fmt(a):
        return "[" + ",".join("[" + ",".join(f"{v:.17g}" for v in row) + "]" for row in a) + "]"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": {"Nt": ds.Nt, "N": ds.N, "m": ds.m, "p": ds.p}}) + "\n")
        for i, (u, y) in enumerate(zip(ds.U, ds.Y)):
            fh.write('{"i":%d,"u":%s,"y":%s}\n' % (i, fmt(u), fmt(y)))


def test_save_dataset_bytes_match_per_record_writer(tmp_path, demo_system):
    rng = np.random.default_rng(32)
    ds = generate_dataset(demo_system, 1100, 20, 2, "random-bounded", rng)
    noisy = add_noise(ds, NoiseSpec("gaussian", 1.0, 5.0), NoiseSpec("gaussian", 1.0, 5.0), rng)
    U = noisy.U.copy()
    U[0, :7, 0] = [0.0, -0.0, 1e-300, -1e300, 123456789.0, 0.1, 5e-324]
    special = Dataset(U, noisy.Y)
    for name, d in (("clean", ds), ("noisy", noisy), ("special", special)):
        save_dataset(d, tmp_path / f"{name}.jsonl")
        _per_record_writer(d, tmp_path / f"{name}_ref.jsonl")
        assert (tmp_path / f"{name}.jsonl").read_bytes() == (tmp_path / f"{name}_ref.jsonl").read_bytes()
    back = load_dataset(tmp_path / "special.jsonl")
    assert back.U.tobytes() == special.U.tobytes() and back.Y.tobytes() == special.Y.tobytes()


# save_dataset writes a file in one part per CPU, as long as each part gets
# FORK_MIN_VALUES samples (see _processes). The tests force the CPU count
# and lower the cutoff, so the split does not depend on the machine; a spy on
# _in_parts sees the part count.
@pytest.mark.parametrize("parts", [1, pytest.param(2, marks=forks), pytest.param(3, marks=forks)])
def test_save_dataset_in_parts_matches_per_record_writer(tmp_path, demo_system, monkeypatch, parts):
    rng = np.random.default_rng(33)
    ds = add_noise(generate_dataset(demo_system, 50, 20, 2, "random-bounded", rng), NoiseSpec("gaussian", 1.0, 5.0), NoiseSpec("gaussian", 1.0, 5.0), rng)
    # the block size does not divide Nt, so the last block is short, and 3
    # does not divide the 8 blocks, so the parts differ in size
    monkeypatch.setattr(lti_sim, "BLOCK_SIZE", 7)
    assert ds.Nt % 7 != 0 and ds.Nt % 3 != 0
    monkeypatch.setattr(lti_sim, "_cpus", lambda: parts)
    monkeypatch.setattr(lti_sim, "FORK_MIN_VALUES", 1)
    calls = spy(monkeypatch, lti_sim, "_in_parts")
    save_dataset(ds, tmp_path / "ds.jsonl")
    _per_record_writer(ds, tmp_path / "ref.jsonl")
    assert (tmp_path / "ds.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    # a part holds at least a record
    save_dataset(ds[:1], tmp_path / "one.jsonl")
    assert part_counts(calls) == [parts, 1]
    _per_record_writer(ds[:1], tmp_path / "one_ref.jsonl")
    assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "one_ref.jsonl").read_bytes()
    # each block formatted in slices of 3 records, which divide neither the
    # block nor Nt, so slices end mid-block and the last block ends mid-slice
    monkeypatch.setattr(lti_sim, "FORMAT_VALUES", 3 * ds.N * (ds.m + ds.p))
    save_dataset(ds, tmp_path / "sliced.jsonl")
    assert part_counts(calls) == [parts, 1, parts]
    assert (tmp_path / "sliced.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def _traced_peak(fn):
    """fn()'s result, the peak of memory traced while it ran and the bytes
    still traced when it returned (tracemalloc counts Python objects and
    numpy arrays, the same on every run, unlike the process's RSS)."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


def test_save_dataset_formats_one_slice_at_a_time(tmp_path, demo_system, monkeypatch):
    # one part; 600 records fill one whole block. A sample formatted at once
    # costs its float object and slots in the list and tuple (40 bytes), its
    # row of the slice (8) and its text of at most 25 bytes, copied once
    # more to encode it: no more than 128 bytes
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 1)
    rng = np.random.default_rng(34)
    ds = add_noise(generate_dataset(demo_system, 600, 20, 2, "random-bounded", rng), NoiseSpec("gaussian", 1.0, 5.0), NoiseSpec("gaussian", 1.0, 5.0), rng)
    _, peak, kept = _traced_peak(lambda: save_dataset(ds, tmp_path / "ds.jsonl"))
    assert peak - kept < 128 * lti_sim.FORMAT_VALUES


def test_generation_and_noise_work_in_a_bounded_extra_peak(demo_system):
    # the extra peak beyond the output arrays does not grow from 2 to 8
    # blocks, but for the initial states and the simulation's state rows:
    # four (Nt, n) arrays, which the ensemble's one recursion needs
    spec = NoiseSpec("gaussian", 1.0, 5.0)

    def extra(Nt):
        rng = np.random.default_rng(35)
        clean, peak, _ = _traced_peak(lambda: generate_dataset(demo_system, Nt, 20, 2, "random-bounded", rng))
        _, noise_peak, _ = _traced_peak(lambda: add_noise(clean, spec, spec, rng))
        out = clean.U.nbytes + clean.Y.nbytes  # each call's output arrays
        return np.array([peak - out, noise_peak - out])

    extra(lti_sim.BLOCK_SIZE)  # first calls allocate numpy's and the package's caches
    few, many = extra(2 * lti_sim.BLOCK_SIZE), extra(8 * lti_sim.BLOCK_SIZE)
    assert (many - few <= 4 * 6 * lti_sim.BLOCK_SIZE * demo_system.n * 8).all(), (few, many)


@forks
def test_save_and_load_fork_from_the_same_file_size(tmp_path, demo_system, monkeypatch):
    # 100 samples a record: Nt records give two parts of FORK_MIN_VALUES,
    # cut on blocks smaller than Nt
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
    monkeypatch.setattr(lti_sim, "BLOCK_SIZE", 50)
    Nt = 2 * lti_sim.FORK_MIN_VALUES // 100
    ds = generate_dataset(demo_system, Nt, 20, 2, "zero", np.random.default_rng(0))
    assert ds.U.size + ds.Y.size == 2 * lti_sim.FORK_MIN_VALUES
    for Nt, parts in ((Nt - 1, 1), (Nt, 2)):
        path = tmp_path / f"{Nt}.jsonl"
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        save_dataset(ds[:Nt], path)
        back = load_dataset(path)
        assert part_counts(calls) == [parts, parts]
        assert back.U.tobytes() == ds.U[:Nt].tobytes() and back.Y.tobytes() == ds.Y[:Nt].tobytes()


@pytest.mark.parametrize("sample, cause", [
    (float("nan"), "record 2 has non-finite"),
    ("1.5", "record 2 has y samples that are not numbers"),
    (True, "record 2 has y samples that are not numbers"),
    (None, "record 2 has y samples that are not numbers"),
    ([True], "record 2 has y samples that are not numbers"),
], ids=["nan", "string", "bool", "null", "bool-among-numbers"])
def test_load_dataset_names_non_finite_record(tmp_path, demo_system, sample, cause):
    ds = generate_dataset(demo_system, 4, 20, 2, "zero", np.random.default_rng(0))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().split("\n")
    rec = json.loads(lines[3])  # record 2
    if isinstance(sample, list):  # its one item goes into the first y sample alone, among numbers
        rec["y"][0][0] = sample[0]
    else:
        rec["y"] = [[sample] * len(row) for row in rec["y"]]
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {cause}"):
        load_dataset(path)


def test_load_dataset_rejects_wrong_record_shape(tmp_path, demo_system):
    ds = generate_dataset(demo_system, 3, 20, 2, "zero", np.random.default_rng(0))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().split("\n")
    rec = json.loads(lines[2])
    rec["u"] = rec["u"][:-1]
    rec["y"] = rec["y"][:-1]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="record 1"):
        load_dataset(path)
    # one channel each, written as flat lists rather than (N, 1) rows
    flat = tmp_path / "flat.jsonl"
    flat.write_text('{"meta": {"Nt": 1, "N": 3, "m": 1, "p": 1}}\n{"i": 0, "u": [1, 2, 3], "y": [4, 5, 6]}\n')
    with pytest.raises(ValueError, match=r"record 0 has u \(3,\) and y \(3,\), meta header says \(3, 1\) and \(3, 1\)"):
        load_dataset(flat)
    path.write_text("\n".join(lines[:1] + [lines[1]] * 4) + "\n")  # one line too many
    with pytest.raises(ValueError, match="more experiment lines"):
        load_dataset(path)


def test_load_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"Nt": 1}\n')
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_bytes(b'{"meta": {"Nt": 1, "N": 1, "m": 1, "p": 1}}\xff\n')
    with pytest.raises(ValueError, match="first line is not UTF-8"):
        load_dataset(path)
    path.write_text('{"meta": \n')
    with pytest.raises(json.JSONDecodeError, match="bad.jsonl: first line: Expecting value"):
        load_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("Nt", 50.9), ("m", True), ("N", "20"), ("p", 0), ("Nt", -2), ("N", None), ("m", 2.5),
])
def test_load_dataset_header_counts_are_positive_integers(tmp_path, demo_system, field, value):
    path = tmp_path / "ds.jsonl"
    save_dataset(generate_dataset(demo_system, 50, 20, 2, "zero", np.random.default_rng(0)), path)
    lines = path.read_text().split("\n")
    header = json.loads(lines[0])
    header["meta"][field] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: meta header's {field} is {value!r}, expected a positive integer")):
        load_dataset(path)
    # an integral float is a count
    header["meta"][field] = float(json.loads(lines[0])["meta"][field])
    path.write_text("\n".join([json.dumps(header)] + lines[1:]))
    ds = load_dataset(path)
    assert (ds.Nt, ds.N, ds.m, ds.p) == (50, 20, 2, 3)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("Nt", [10**13, 10**20])
def test_load_dataset_header_too_big_for_memory(tmp_path, demo_system, monkeypatch, cpus, Nt):
    # the arrays are allocated before any record is read or any child is
    # forked, so an allocation that fails ends the load at once
    path = tmp_path / "ds.jsonl"
    save_dataset(generate_dataset(demo_system, 50, 20, 2, "zero", np.random.default_rng(0)), path)
    lines = path.read_text().split("\n")
    lines[0] = json.dumps({"meta": {"Nt": Nt, "N": 20, "m": 2, "p": 3}})
    path.write_text("\n".join(lines))
    monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
    monkeypatch.setattr(lti_sim, "_in_parts", lambda *a: pytest.fail("a part was started"))
    decided = spy(monkeypatch, lti_sim, "_processes")
    cause = f"{path}: meta header's Nt={Nt}, N=20, m=2 and p=3 do not fit in memory"
    with pytest.raises(ValueError, match=re.escape(cause)):
        load_dataset(path)
    blocks = -(-Nt // lti_sim.BLOCK_SIZE)
    assert decided == [((blocks, Nt * 100), cpus)]  # the load would run in cpus parts of whole blocks


def test_load_dataset_rejects_meta_mismatch(tmp_path, demo_system):
    ds = generate_dataset(demo_system, 2, 20, 2, "zero", np.random.default_rng(0))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().strip().split("\n")
    path.write_text("\n".join([lines[0], lines[1]]) + "\n")  # drop one experiment
    with pytest.raises(ValueError):
        load_dataset(path)


# ---------------------------------------------------------------- split loading

# load_dataset reads a regular file in one process per CPU, as long as each
# process gets FORK_MIN_VALUES samples. The records are cut into ranges of
# whole blocks as save_dataset cuts them (see _in_parts); each process reads
# and counts the records before its range, parses its range, and only the
# last reads on to the end of the file. The tests force the CPU count, so the
# split does not depend on the machine; at 3 CPUs a 1,600-record file of
# 160,000 samples, four blocks of 512 records or fewer, is parsed in the
# ranges [0, 512), [512, 1024) and [1024, 1600).
SPLIT_NT = 1600
BAD = 1502  # a record the last of 3 processes parses


@pytest.fixture(scope="module")
def split_file(tmp_path_factory, demo_system):
    rng = np.random.default_rng(34)
    clean = generate_dataset(demo_system, SPLIT_NT, 20, 2, "random-bounded", rng)
    ds = add_noise(clean, NoiseSpec("gaussian", 1.0, 5.0), NoiseSpec("gaussian", 1.0, 5.0), rng)
    path = tmp_path_factory.mktemp("split") / "ds.jsonl"
    save_dataset(ds, path)
    return ds, path


def _outcome(monkeypatch, cpus, path):
    """What loading gives at a CPU count: the arrays' bytes, or the error's type and message."""
    monkeypatch.setattr(lti_sim, "_cpus", lambda: cpus)
    try:
        ds = load_dataset(path)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)
    return ds.U.tobytes(), ds.Y.tobytes()


def _edit(line, change):
    rec = json.loads(line)
    change(rec)
    return json.dumps(rec)


def _set_nan(rec):
    rec["y"][5][1] = float("nan")


@forks
def test_split_load_matches_one_process(monkeypatch, split_file):
    ds, path = split_file
    calls = spy(monkeypatch, lti_sim, "_in_parts")
    assert _outcome(monkeypatch, 3, path) == _outcome(monkeypatch, 1, path) == (ds.U.tobytes(), ds.Y.tobytes())
    assert part_counts(calls) == [3, 1]


@pytest.mark.parametrize("parts", [1, pytest.param(2, marks=forks)])
def test_read_hands_over_each_block_once_by_index(monkeypatch, split_file, parts):
    """read(block) runs block(k, ds) once for each block k, ds holding the
    block's records: 512 each, then the last block's 64. The calls are
    counted in a shared array, since a list filled in a forked part never
    reaches this process."""
    ds, path = split_file
    monkeypatch.setattr(lti_sim, "_cpus", lambda: parts)
    with lti_sim._DatasetReader(path) as rd:
        assert (rd.blocks, rd.parts) == (4, parts)
        calls = rd.shared((rd.blocks, 3))  # calls, records and whether they are the file's
        calls[:] = 0

        def block(k, got):
            a = k * lti_sim.BLOCK_SIZE
            same = got.U.tobytes() == ds.U[a : a + got.Nt].tobytes() and got.Y.tobytes() == ds.Y[a : a + got.Nt].tobytes()
            calls[k] += 1, got.Nt, same

        rd.read(block)
    assert calls.tolist() == [[1, 512, 1], [1, 512, 1], [1, 512, 1], [1, 64, 1]]


def _save_and_load_counting_parts(ds, path):
    """save_dataset then load_dataset, with the part count of each
    _in_parts call; a task for a pool worker."""
    counts, in_parts = [], lti_sim._in_parts

    def counted(n, parts, part):
        counts.append(parts)
        in_parts(n, parts, part)

    lti_sim._in_parts = counted
    try:
        save_dataset(ds, path)
        back = load_dataset(path)
    finally:
        lti_sim._in_parts = in_parts
    return counts, back.U, back.Y


@forks
def test_pool_worker_saves_and_loads_in_parts(tmp_path, demo_system, monkeypatch):
    # a daemonic pool worker may fork, so its dataset I/O runs in parts too
    ds = generate_dataset(demo_system, 50, 20, 2, "random-bounded", np.random.default_rng(35))
    monkeypatch.setattr(lti_sim, "BLOCK_SIZE", 7)
    monkeypatch.setattr(lti_sim, "FORK_MIN_VALUES", 1)
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        counts, U, Y = pool.apply_async(_save_and_load_counting_parts, (ds, tmp_path / "pool.jsonl")).get(timeout=60)
    assert counts == [2, 2]
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 1)
    save_dataset(ds, tmp_path / "here.jsonl")
    back = load_dataset(tmp_path / "here.jsonl")
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "here.jsonl").read_bytes()
    assert U.tobytes() == back.U.tobytes() == ds.U.tobytes() and Y.tobytes() == back.Y.tobytes() == ds.Y.tobytes()
    assert_no_child_left()


def test_small_file_is_one_range(monkeypatch, split_file, tmp_path):
    ds, path = split_file
    small = tmp_path / "small.jsonl"
    save_dataset(ds[:100], small)  # 10,000 samples
    calls = spy(monkeypatch, lti_sim, "_in_parts")
    assert _outcome(monkeypatch, 3, small) == (ds.U[:100].tobytes(), ds.Y[:100].tobytes())
    assert part_counts(calls) == [1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_in_one_pass(monkeypatch, split_file, tmp_path):
    """A file that cannot be cut, a FIFO here, is read once, from its open handle."""
    ds, path = split_file
    fifo = tmp_path / "ds.fifo"
    os.mkfifo(fifo)
    calls = spy(monkeypatch, lti_sim, "_in_parts")

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        outcome = _outcome(monkeypatch, 3, fifo)
    finally:
        writer.join()
    assert outcome == (ds.U.tobytes(), ds.Y.tobytes())
    assert part_counts(calls) == [1]


@forks
@pytest.mark.parametrize("bad_line, kind, cause", [
    (lambda line: _edit(line, _set_nan), ValueError, f"record {BAD} has non-finite samples"),
    (lambda line: _edit(line, lambda rec: rec.update(u=rec["u"][:-1])), ValueError, f"record {BAD} has u (19, 2) and y (20, 3), meta header says (20, 2) and (20, 3)"),
    (lambda line: _edit(line, lambda rec: rec.pop("y")), ValueError, f"record {BAD} needs u and y sample arrays"),
    (lambda line: _edit(line, lambda rec: rec["u"][3].pop()), ValueError, f"record {BAD} has u samples that are not a rectangular array"),
    (lambda line: _edit(line, lambda rec: rec["y"][7].append(0.5)), ValueError, f"record {BAD} has y samples that are not a rectangular array"),
    (lambda line: line[:-9], json.JSONDecodeError, f"record {BAD}: Expecting"),
    (lambda line: line[:20] + "\udcff" + line[21:], ValueError, f"record {BAD} is not UTF-8"),  # a 0xff byte
    pytest.param(lambda line: "\u00a0", json.JSONDecodeError, f"record {BAD}: Expecting", id="unicode-whitespace-only"),
])
def test_split_load_names_bad_record_by_its_index_in_the_file(monkeypatch, split_file, tmp_path, bad_line, kind, cause):
    lines = split_file[1].read_text().split("\n")
    lines[BAD + 1] = bad_line(lines[BAD + 1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines), errors="surrogateescape")
    split = _outcome(monkeypatch, 3, bad)
    assert split == _outcome(monkeypatch, 1, bad)
    assert split[0] is kind and cause in split[1]


@forks
def test_split_load_names_a_bad_record_of_the_first_process_to_fail(monkeypatch, split_file, tmp_path):
    """Bad records in more than one range: the first failure in part order is
    the first bad record in the file, so every part count names the record
    one process names."""
    lines = split_file[1].read_text().split("\n")
    # 701 is in the second of 3 ranges and the first of 2; BAD and BAD + 1
    # are in the last range of both
    for i in (701, BAD, BAD + 1):
        lines[i + 1] = _edit(lines[i + 1], lambda rec: rec.pop("y"))
    bad = tmp_path / "three.jsonl"
    bad.write_text("\n".join(lines))
    for cpus in (1, 2, 3):
        assert _outcome(monkeypatch, cpus, bad) == (ValueError, f"{bad}: record 701 needs u and y sample arrays")


@forks
def test_split_load_skips_blank_lines_at_cuts(monkeypatch, split_file, tmp_path):
    ds, path = split_file
    header, *records = path.read_text().rstrip("\n").split("\n")
    records[BAD] = _edit(records[BAD], _set_nan)
    # a blank line after every record, which no process may count
    lines = [header] + [line for rec, blank in zip(records, ["", " \t", "\r"] * SPLIT_NT) for line in (rec, blank)]
    bad = tmp_path / "blank.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    split = _outcome(monkeypatch, 3, bad)
    assert split == _outcome(monkeypatch, 1, bad)
    assert split[0] is ValueError and f"record {BAD} has non-finite samples" in split[1]
    records[BAD] = path.read_text().split("\n")[BAD + 1]
    lines = [header] + [line for rec in records for line in (rec, "  ")]
    bad.write_text("\n".join(lines) + "\n")
    assert _outcome(monkeypatch, 3, bad) == (ds.U.tobytes(), ds.Y.tobytes())


@forks
@pytest.mark.parametrize("change, cause", [
    (lambda text: text.rstrip("\n"), None),  # no final newline
    (lambda text: text.replace("\n", "\r\n"), None),
    (lambda text: text + text.split("\n")[1] + "\n", "more experiment lines than the meta header's Nt=1600"),
    (lambda text: text + "not json\n", "more experiment lines than the meta header's Nt=1600"),
    (lambda text: text[: text.rstrip("\n").rfind("\n") + 1], "1599 experiment lines disagree with the meta header's Nt=1600"),
])
def test_split_load_checks_the_line_count(monkeypatch, split_file, tmp_path, change, cause):
    ds, path = split_file
    bad = tmp_path / "count.jsonl"
    bad.write_text(change(path.read_text()))
    split = _outcome(monkeypatch, 3, bad)
    assert split == _outcome(monkeypatch, 1, bad)
    if cause is None:
        assert split == (ds.U.tobytes(), ds.Y.tobytes())
    else:
        assert split[0] is ValueError and cause in split[1]


def _fail(exc):
    raise exc


@forks
def test_concurrently_raises_the_first_failure_in_call_order():
    """_in_parts runs its parts at once, each on its contiguous range, and
    raises the first failure in part order."""
    parent = os.getpid()
    out = lti_sim._shared_empty((3, 4), "3 x 4 floats do not fit in memory")

    def record(k, lo, hi):
        out[k] = k, lo, hi, os.getpid() == parent

    lti_sim._in_parts(7, 3, record)
    assert out.tolist() == [[0, 0, 2, 1], [1, 2, 4, 0], [2, 4, 7, 0]]
    failures = {1: KeyError("first"), 2: ValueError("second")}
    with pytest.raises(KeyError, match="first"):
        lti_sim._in_parts(3, 3, lambda k, lo, hi: _fail(failures[k]) if k else None)
    failures[0] = OSError("in this process")
    with pytest.raises(OSError, match="in this process"):
        lti_sim._in_parts(3, 3, lambda k, lo, hi: _fail(failures[k]))
    with pytest.raises(ChildProcessError, match="part 1 of 2: its forked process exited with code 3"):
        lti_sim._in_parts(2, 2, lambda k, lo, hi: os._exit(3) if os.getpid() != parent else None)
    assert_no_child_left()


def test_one_call_runs_here_without_fork_machinery():
    src = os.path.dirname(os.path.dirname(lti_sim.__file__))
    code = (
        f"import os, sys; sys.path.insert(0, {src!r}); from hankelnull import lti_sim; "
        "os.fork = None; runs = []; "
        "lti_sim._in_parts(5, 1, lambda *r: runs.append((os.getpid(), *r))); "
        "assert runs == [(os.getpid(), 0, 0, 5)]; "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@forks
def test_every_text_job_forks_from_the_same_value_count(tmp_path, demo_system, monkeypatch):
    # a dataset sample and a landscape row are one value each, so at 2 CPUs
    # a job of 2 * FORK_MIN_VALUES - 1 values runs in one part and one of
    # 2 * FORK_MIN_VALUES in two; a record of 2 x (2 + 3) samples is 10 values
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
    values = 2 * lti_sim.FORK_MIN_VALUES
    ds = Dataset(np.zeros((values // 10, 2, 2)), np.zeros((values // 10, 2, 3)))
    fin = aggregate(generate_dataset(demo_system, 10, 20, 2, "zero", np.random.default_rng(0)), 2).finalize()
    for n in (values - 10, values):
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        save_dataset(ds[: n // 10], tmp_path / "ds.jsonl")
        load_dataset(tmp_path / "ds.jsonl")
        assert part_counts(calls) == [1 if n < values else 2] * 2
    for n in (values - 1, values):
        res = grid_search(fin, (np.linspace(0.0, 1.0, n), [1.0]), eps_sigma=1e-3, nullity=3)
        calls = spy(monkeypatch, lti_sim, "_in_parts")
        estimator.write_landscape_csv(res, tmp_path / "landscape.csv")
        assert part_counts(calls) == [1 if n < values else 2]


def test_benchmark_part_counts_at_two_cpus(monkeypatch):
    # the reference preset's dataset files (10,000 records of 150 samples),
    # its 200 x 200 landscape and a 20^4 landscape
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 2)
    assert lti_sim._processes(10_000, 1_500_000) == 2
    assert lti_sim._processes(40_000, 40_000) == 1
    assert lti_sim._processes(160_000, 160_000) == 2
    assert lti_sim._processes(1, 1_500_000) == 1  # at most one part a row


@forks
def test_failure_in_a_child_part_is_raised_here(tmp_path, monkeypatch):
    # a part whose child fails runs again here: a failure it repeats is
    # raised as itself, one it does not names the part
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 3)
    values = 3 * lti_sim.FORK_MIN_VALUES  # three parts
    parent = os.getpid()

    def fails_in_a_child(lo, hi, fh):
        if os.getpid() != parent:
            raise OSError("formatting failed in a child")
        fh.write("row\n" * (hi - lo))

    def fails_past_the_first_part(lo, hi, fh):
        if lo:
            raise OSError(f"formatting failed from row {lo}")
        fh.write("row\n" * (hi - lo))

    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ChildProcessError, match="part 1 of 3: its forked process exited with code 1"):
        lti_sim._write_parts((tmp_path / "rows.txt",), "header\n", 9, values, fails_in_a_child)
    with pytest.raises(OSError, match="formatting failed from row 3"):
        lti_sim._write_parts((tmp_path / "rows.txt",), "header\n", 9, values, fails_past_the_first_part)
    assert not (tmp_path / "rows.txt").exists()  # no half-written file is left
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds  # every memory file is closed


@forks
def test_part_killed_in_its_child_names_the_signal(tmp_path, monkeypatch):
    monkeypatch.setattr(lti_sim, "_cpus", lambda: 3)
    parent = os.getpid()

    def killed_in_a_child(lo, hi, fh):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        fh.write("row\n" * (hi - lo))

    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ChildProcessError, match="part 1 of 3: its forked process was killed by signal 9"):
        lti_sim._write_parts((tmp_path / "rows.txt",), "header\n", 9, 3 * lti_sim.FORK_MIN_VALUES, killed_in_a_child)
    assert not (tmp_path / "rows.txt").exists()
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds  # every memory file is closed


def test_importing_the_package_loads_no_fork_machinery():
    """The package never imports multiprocessing, and mmap loads only when a
    run maps memory: shared load arrays, or the CLI's check that a grid fits."""
    src = os.path.dirname(os.path.dirname(lti_sim.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import hankelnull; print(sorted({{'multiprocessing', 'mmap'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
