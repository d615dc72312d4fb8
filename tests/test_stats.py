import numpy as np
import pytest

from conftest import noiseless_M
from hankelnull import (
    NoiseSpec,
    SufficientStats,
    add_noise,
    aggregate,
    generate_dataset,
    load_stats,
    save_stats,
    stacked_hankel,
)


def _noisy_demo(demo_system, Nt, seed=0):
    rng = np.random.default_rng(seed)
    ds = generate_dataset(demo_system, Nt, 30, 2, "random-bounded", rng)
    spec = NoiseSpec("gaussian", 1.0, 5.0)
    return add_noise(ds, spec, spec, rng)


def test_accumulate_inner_products():
    st = SufficientStats(2, 2)
    st.accumulate(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(st.G, [[5.0, 11.0], [11.0, 25.0]])
    assert np.array_equal(st.rowsum, [3.0, 7.0])
    assert st.count == 1


def test_accumulate_twice_doubles():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    st = SufficientStats(2, 2).accumulate(H)
    G1, r1 = st.G.copy(), st.rowsum.copy()
    st.accumulate(H)
    assert np.array_equal(st.G, 2 * G1)
    assert np.array_equal(st.rowsum, 2 * r1)
    assert st.count == 2


def test_accumulate_rejects_wrong_shape():
    with pytest.raises(ValueError):
        SufficientStats(2, 3).accumulate(np.zeros((2, 2)))


def test_merge_identity_and_commutativity():
    H1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    H2 = np.array([[0.5, -1.0], [2.0, 0.0]])
    a = SufficientStats(2, 2).accumulate(H1)
    b = SufficientStats(2, 2).accumulate(H2)
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
    serial = SufficientStats(10, 29)
    for e in ds:
        serial.accumulate(stacked_hankel(e, 2))
    shards = []
    for i in range(8):
        st = SufficientStats(10, 29)
        for e in ds[i * 25 : (i + 1) * 25]:
            st.accumulate(stacked_hankel(e, 2))
        shards.append(st)
    merged = shards[0]
    for st in shards[1:]:
        merged = merged.merge(st)
    assert merged.count == serial.count == 200
    scale = np.abs(serial.G).max()
    assert np.abs(merged.G - serial.G).max() <= 1e-9 * scale
    assert np.abs(merged.rowsum - serial.rowsum).max() <= 1e-9 * np.abs(serial.rowsum).max()


def test_finalize_averages():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    one = SufficientStats(2, 2).accumulate(H).finalize()
    assert np.allclose(one.Gbar, H @ H.T, rtol=0, atol=0)
    both = SufficientStats(2, 2).accumulate(H).accumulate(3 * H).finalize()
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
    loop = SufficientStats(10, 29)
    for e in ds:
        loop.accumulate(stacked_hankel(e, 2))
    assert st.count == loop.count == 1100
    assert np.abs(st.G - loop.G).max() <= 1e-13 * np.abs(loop.G).max()
    assert np.abs(st.rowsum - loop.rowsum).max() <= 1e-13 * np.abs(loop.rowsum).max()


def test_aggregate_is_bitwise_repeatable(demo_system):
    ds = _noisy_demo(demo_system, 120, seed=6)
    a = aggregate(ds, 2, block_size=32)
    b = aggregate(ds[:], 2, block_size=32)
    assert a.G.tobytes() == b.G.tobytes()
    assert a.rowsum.tobytes() == b.rowsum.tobytes()


def test_aggregate_matches_running_accumulation(demo_system):
    ds = _noisy_demo(demo_system, 150, seed=7)
    tree = aggregate(ds, 2, block_size=64)
    running = SufficientStats(10, 29)
    for e in ds:
        running.accumulate(stacked_hankel(e, 2))
    assert np.abs(tree.G - running.G).max() <= 1e-9 * np.abs(running.G).max()


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
