import json
import re

import numpy as np
import pytest

from conftest import noiseless_M
from hankelnull import (
    Dataset,
    NoiseSpec,
    SufficientStats,
    add_noise,
    aggregate,
    generate_dataset,
    load_stats,
    save_stats,
    stacked_hankel,
    stats,
)


def _noisy_demo(demo_system, Nt, seed=0):
    rng = np.random.default_rng(seed)
    ds = generate_dataset(demo_system, Nt, 30, 2, "random-bounded", rng)
    spec = NoiseSpec("gaussian", 1.0, 5.0)
    return add_noise(ds, spec, spec, rng)


def _dataset(*Hs):
    """Dataset whose records have the given 2 x N stacked Hankel matrices at
    L=1: one input channel in the first row, one output in the second."""
    H = np.asarray(Hs, dtype=float)
    return Dataset(H[:, 0, :, None], H[:, 1, :, None])


def test_aggregate_inner_products():
    st = aggregate(_dataset([[1.0, 2.0], [3.0, 4.0]]), 1)
    assert (st.d, st.Nc) == (2, 2)
    assert np.array_equal(st.G, [[5.0, 11.0], [11.0, 25.0]])
    assert np.array_equal(st.rowsum, [3.0, 7.0])
    assert st.count == 1


def test_aggregate_of_a_record_twice_doubles():
    H = [[1.0, 2.0], [3.0, 4.0]]
    once = aggregate(_dataset(H), 1)
    twice = aggregate(_dataset(H, H), 1)
    assert np.array_equal(twice.G, 2 * once.G)
    assert np.array_equal(twice.rowsum, 2 * once.rowsum)
    assert twice.count == 2


def test_aggregate_rejects_records_shorter_than_the_window():
    with pytest.raises(ValueError, match="need at least L=3 samples"):
        aggregate(_dataset([[1.0, 2.0], [3.0, 4.0]]), 3)


def test_merge_identity_and_commutativity():
    a = aggregate(_dataset([[1.0, 2.0], [3.0, 4.0]]), 1)
    b = aggregate(_dataset([[0.5, -1.0], [2.0, 0.0]]), 1)
    zero = SufficientStats(2, 2)
    merged = a.merge(zero)
    assert np.array_equal(merged.G, a.G) and merged.count == a.count
    ab, ba = a.merge(b), b.merge(a)
    assert np.array_equal(ab.G, ba.G)
    assert np.array_equal(ab.rowsum, ba.rowsum)


def test_merge_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        SufficientStats(2, 2).merge(SufficientStats(2, 3))


def test_sharded_merge_matches_serial(demo_system):
    ds = _noisy_demo(demo_system, 200)
    serial = aggregate(ds, 2)
    shards = [aggregate(ds[i * 25 : (i + 1) * 25], 2) for i in range(8)]
    merged = shards[0]
    for st in shards[1:]:
        merged = merged.merge(st)
    assert merged.count == serial.count == 200
    scale = np.abs(serial.G).max()
    assert np.abs(merged.G - serial.G).max() <= 1e-9 * scale
    assert np.abs(merged.rowsum - serial.rowsum).max() <= 1e-9 * np.abs(serial.rowsum).max()


def test_finalize_averages():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    one = aggregate(_dataset(H), 1).finalize()
    assert np.allclose(one.Gbar, H @ H.T, rtol=0, atol=0)
    both = aggregate(_dataset(H, 3 * H), 1).finalize()
    # (1 + 9) / 2 = 5
    assert np.allclose(both.Gbar, 5 * (H @ H.T), rtol=1e-12)


def test_finalize_empty_is_error():
    with pytest.raises(ValueError):
        SufficientStats(2, 2).finalize()


def test_noiseless_average_matches_direct_oracle(demo_system):
    rng = np.random.default_rng(2)
    ds = generate_dataset(demo_system, 25, 30, 2, "random-bounded", rng)
    fin = aggregate(ds, 2).finalize()
    M = noiseless_M(ds, 2)
    assert np.abs(fin.Gbar - M).max() <= 1e-12 * np.abs(M).max()


def test_aggregate_matches_accumulate_loop(demo_system):
    # three blocks of the default plan, the last one partial
    ds = _noisy_demo(demo_system, 1100, seed=6)
    st = aggregate(ds, 2)
    G, rowsum = 0.0, 0.0
    for u, y in zip(ds.U, ds.Y):
        H = stacked_hankel(u, y, 2)
        G, rowsum = G + H @ H.T, rowsum + H.sum(axis=1)
    assert st.count == 1100
    assert np.abs(st.G - G).max() <= 1e-13 * np.abs(G).max()
    assert np.abs(st.rowsum - rowsum).max() <= 1e-13 * np.abs(rowsum).max()


def test_aggregate_is_bitwise_repeatable(demo_system, monkeypatch):
    ds = _noisy_demo(demo_system, 120, seed=6)
    monkeypatch.setattr(stats, "BLOCK_SIZE", 32)
    a = aggregate(ds, 2)
    b = aggregate(ds[:], 2)
    assert a.G.tobytes() == b.G.tobytes()
    assert a.rowsum.tobytes() == b.rowsum.tobytes()


def test_aggregate_matches_running_accumulation(demo_system, monkeypatch):
    ds = _noisy_demo(demo_system, 150, seed=7)
    monkeypatch.setattr(stats, "BLOCK_SIZE", 64)
    tree = aggregate(ds, 2)
    running = SufficientStats(10, 29)
    for i in range(ds.Nt):
        running = running.merge(aggregate(ds[i : i + 1], 2))
    assert running.count == 150
    assert np.abs(tree.G - running.G).max() <= 1e-9 * np.abs(running.G).max()


def test_blocks_aggregated_one_by_one_sum_to_the_aggregate(demo_system):
    # three blocks, the last one partial. aggregate symmetrizes each block's
    # G before the blocks are summed; numpy's A @ A.T is exactly symmetric,
    # so that is bitwise the raw sum symmetrized once (the reference below),
    # and blocks aggregated one by one sum to it
    ds = _noisy_demo(demo_system, 1100, seed=6)
    st = aggregate(ds, 2)
    raw, rowsum = [], []
    for a in range(0, ds.Nt, stats.BLOCK_SIZE):
        Hs = stacked_hankel(ds.U[a : a + stats.BLOCK_SIZE], ds.Y[a : a + stats.BLOCK_SIZE], 2)
        raw.append(stats._tree_sum(Hs @ Hs.transpose(0, 2, 1)))
        rowsum.append(stats._tree_sum(Hs.sum(axis=2)))
    G = stats._tree_sum(np.stack(raw))
    assert st.G.tobytes() == ((G + G.T) / 2.0).tobytes()
    assert st.rowsum.tobytes() == stats._tree_sum(np.stack(rowsum)).tobytes()
    blocks = [aggregate(ds[a : a + stats.BLOCK_SIZE], 2) for a in range(0, ds.Nt, stats.BLOCK_SIZE)]
    total = stats._total(np.stack([b.G for b in blocks]), np.stack([b.rowsum for b in blocks]), st.Nc, ds.Nt)
    assert (total.d, total.Nc, total.count) == (st.d, st.Nc, st.count)
    assert total.G.tobytes() == st.G.tobytes() and total.rowsum.tobytes() == st.rowsum.tobytes()


def test_aggregate_G_is_exactly_symmetric(demo_system):
    ds = _noisy_demo(demo_system, 50, seed=8)
    st = aggregate(ds, 2)
    assert np.array_equal(st.G, st.G.T)
    assert (np.diag(st.G) >= 0).all()


def test_stats_json_roundtrip(tmp_path, demo_system):
    ds = _noisy_demo(demo_system, 30, seed=9)
    st = aggregate(ds, 2)
    path = tmp_path / "stats.json"
    save_stats(st, path)
    back = load_stats(path)
    assert np.array_equal(back.G, st.G)
    assert np.array_equal(back.rowsum, st.rowsum)
    assert (back.d, back.Nc, back.count) == (st.d, st.Nc, st.count)


def test_stats_json_roundtrip_keeps_negative_zero(tmp_path):
    st = SufficientStats(2, 3)
    st.G = np.array([[1.0, -0.0], [-0.0, 2.5]])
    st.rowsum = np.array([-0.0, 0.1])
    st.count = 4
    path = tmp_path / "stats.json"
    save_stats(st, path)
    back = load_stats(path)
    assert back.G.tobytes() == st.G.tobytes()
    assert back.rowsum.tobytes() == st.rowsum.tobytes()


def test_load_stats_rejects_bad_payload(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text('{"d": 2, "Nc": 3, "count": 1, "G": [1, 2, 3], "rowsum": [0, 0]}')
    with pytest.raises(ValueError):
        load_stats(path)
    path.write_text('{"d": 2, "Nc": 3}')
    with pytest.raises(ValueError):
        load_stats(path)
    for payload, cause in [
        ("5", "a stats snapshot must be a JSON object, got int"),
        ('[{"d": 2}]', "a stats snapshot must be a JSON object, got list"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [1, "a", 0, 1], "rowsum": [0, 0]}', "G is not a rectangular array of numbers"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [[1, 0], [0]], "rowsum": [0, 0]}', "G is not a rectangular array of numbers"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [1, 0, 0, 1], "rowsum": [[0, 0], [0]]}', "rowsum is not a rectangular array of numbers"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [1, 0, 0, 1], "rowsum": [0, null]}', "rowsum is not a rectangular array of numbers"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [1, 0, 0, 1], "rowsum": ["0", "0"]}', "rowsum is not a rectangular array of numbers"),
        ('{"d": 2, "Nc": 3, "count": 1, "G": [true, 0.5, 0.5, 1], "rowsum": [0, 0]}', "G is not a rectangular array of numbers"),
    ]:
        path.write_text(payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {cause}")):
            load_stats(path)


@pytest.mark.parametrize("payload, cause", [
    ('{"d": 2, "Nc": 3, "count": 0, "G": [1, 0, 0, 1], "rowsum": [0, 0]}', "count is 0"),
    ('{"d": 2, "Nc": 3, "count": 4, "G": [1, NaN, NaN, 1], "rowsum": [0, 0]}', "non-finite"),
    ('{"d": 2, "Nc": 3, "count": 4, "G": [1, 0, 0, 1], "rowsum": [Infinity, 0]}', "non-finite"),
    ('{"d": 2, "Nc": 3, "count": 4, "G": [1, 0.5, 0.25, 1], "rowsum": [0, 0]}', "not symmetric"),
])
def test_load_stats_rejects_impossible_aggregates(tmp_path, payload, cause):
    path = tmp_path / "stats.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match=cause):
        load_stats(path)


@pytest.mark.parametrize("field, value", [
    ("count", 2.5), ("count", True), ("d", True), ("Nc", 2.7), ("Nc", -1), ("Nc", 0), ("d", "2"), ("count", None),
])
def test_load_stats_rejects_counts_that_are_not_positive_integers(tmp_path, field, value):
    payload = {"d": 2, "Nc": 3, "count": 4, "G": [1, 0, 0, 1], "rowsum": [0, 0], field: value}
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {field} is {value!r}, expected a positive integer")):
        load_stats(path)


def test_a_record_checks_itself_when_made():
    zero = SufficientStats(2, 3)
    assert zero.count == 0
    assert np.array_equal(zero.G, np.zeros((2, 2))) and np.array_equal(zero.rowsum, np.zeros(2))
    with pytest.raises(ValueError, match="^G is not symmetric$"):
        SufficientStats(2, 3, 1, np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match=re.escape("G has shape (3, 3), expected (2, 2)")):
        SufficientStats(2, 3, 1, np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match=re.escape("rowsum has shape (3,), expected (2,)")):
        SufficientStats(2, 3, 1, np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="^G or rowsum has non-finite entries"):
        SufficientStats(2, 3, 1, np.eye(2), np.array([np.nan, 0.0]))


OVERFLOW = re.escape("G or rowsum has non-finite entries (sums that overflow a double leave them)")


def test_aggregate_whose_sums_overflow_is_refused_without_a_warning(demo_system):
    # every sample is finite, but record 3's products overflow a double; a
    # RuntimeWarning would fail this test (pytest's filterwarnings)
    ds = _noisy_demo(demo_system, 50)
    U, Y = ds.U.copy(), ds.Y.copy()
    U[3] *= 1e200
    with pytest.raises(ValueError, match=OVERFLOW):
        aggregate(Dataset(U, Y), 2)


def test_sums_of_finite_aggregates_that_overflow_are_refused(monkeypatch):
    big = SufficientStats(2, 3, 1, np.diag([1e308, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match=OVERFLOW):
        big.merge(big)
    # three one-record blocks, each G = diag(6.4e307, 0), finite; their sum is not
    monkeypatch.setattr(stats, "BLOCK_SIZE", 1)
    H = [[8e153, 8e153], [0.0, 0.0]]
    with pytest.raises(ValueError, match=OVERFLOW):
        aggregate(_dataset(H, H, H), 1)


def test_finite_sums_past_half_the_largest_double_are_kept():
    # G = diag(1e154**2, 1e154**2) is finite; symmetrizing it must not
    # overflow on the way
    st = aggregate(_dataset([[1e154, 0.0], [0.0, 1e154]]), 1)
    assert np.array_equal(st.G, np.diag([1e154 * 1e154] * 2))
    assert np.array_equal(st.rowsum, [1e154, 1e154])


def test_load_stats_names_its_path_once(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text('{"d": 2, "Nc": 3, "count": 4, "G": [1, 0, 0, 1], "rowsum": [0, 0, 0]}')
    with pytest.raises(ValueError) as err:
        load_stats(path)
    assert str(err.value) == f"{path}: rowsum has shape (3,), expected (2,)"


def test_load_stats_reads_integral_floats_as_integers(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text('{"d": 2.0, "Nc": 3.0, "count": 4.0, "G": [1, 0, 0, 1], "rowsum": [0, 0]}')
    st = load_stats(path)
    assert (st.d, st.Nc, st.count) == (2, 3, 4)
    assert all(type(v) is int for v in (st.d, st.Nc, st.count))
