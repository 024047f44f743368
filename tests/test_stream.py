import numpy as np
import pytest

from ctta.harness import build_world
from ctta.model import key_stats
from ctta.numerics import SeededRng
from ctta.stream import (
    DomainSpec,
    StreamConfig,
    StreamParseError,
    generate_stream,
    make_separated,
    measure_separation,
    read_stream,
    write_stream,
)


@pytest.fixture(scope="module")
def world():
    cfg = StreamConfig(domain_order=(0,), seed=5, input_dim=6, num_classes=3)
    return cfg, build_world(cfg, noise_std=0.4, class_mean_scale=1.0)


def test_noise_free_single_class_stream_is_the_class_mean():
    means = np.array([[1.0, 2.0, 3.0]])
    spec = DomainSpec(0, np.zeros(3), np.ones(3), means, 0.0)
    cfg = StreamConfig(domain_order=(0,), batches_per_domain=2, batch_size=4, input_dim=3, num_classes=1, seed=0)
    batches = generate_stream(cfg, [spec], SeededRng(0))
    assert len(batches) == 2
    for b in batches:
        np.testing.assert_array_equal(b.samples, np.tile(means[0], (4, 1)))
        np.testing.assert_array_equal(b.class_ids, np.zeros(4, dtype=int))


def test_generation_is_deterministic_in_the_seed(world):
    cfg, w = world
    spec = DomainSpec(0, np.zeros(6), np.ones(6), w.class_means, 0.4)
    scfg = StreamConfig(domain_order=(0, 0), batches_per_domain=3, batch_size=8, input_dim=6, num_classes=3, seed=3)
    a = generate_stream(scfg, [spec], SeededRng(scfg.seed))
    b = generate_stream(scfg, [spec], SeededRng(scfg.seed))
    for x, y in zip(a, b):
        assert x.samples.tobytes() == y.samples.tobytes()
        np.testing.assert_array_equal(x.class_ids, y.class_ids)


def test_shifted_domain_moves_key_means_by_extractor_shift(world):
    cfg, w = world
    delta = SeededRng(9).normal(size=6)
    base = DomainSpec(0, np.zeros(6), np.ones(6), w.class_means, 0.4)
    shifted = DomainSpec(1, delta, np.ones(6), w.class_means, 0.4)
    scfg = StreamConfig(domain_order=(0,), batches_per_domain=100, batch_size=16, input_dim=6, num_classes=3, seed=11)
    rng_a = SeededRng(42)
    rng_b = SeededRng(42)
    batches_a = generate_stream(scfg, [base], rng_a)
    scfg_b = StreamConfig(domain_order=(1,), batches_per_domain=100, batch_size=16, input_dim=6, num_classes=3, seed=11)
    batches_b = generate_stream(scfg_b, [shifted], rng_b)
    mu_a = np.mean([key_stats(w.model, b.samples).mu for b in batches_a], axis=0)
    mu_b = np.mean([key_stats(w.model, b.samples).mu for b in batches_b], axis=0)
    sg_a = np.mean([key_stats(w.model, b.samples).sigma for b in batches_a], axis=0)
    sg_b = np.mean([key_stats(w.model, b.samples).sigma for b in batches_b], axis=0)
    np.testing.assert_allclose(mu_b - mu_a, w.model.extractor @ delta, atol=0.05)
    np.testing.assert_allclose(sg_b, sg_a, atol=0.05)


def test_make_separated_certificate_is_the_oracle(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0, 1, 2, 3), batch_size=16, input_dim=6, num_classes=3, seed=13, theta=4.0)
    specs, cert = make_separated(
        scfg, 4, 4.0, w.model, SeededRng(13).child(2), noise_std=0.4, class_means=w.class_means
    )
    assert cert.valid
    assert cert.max_intra < 4.0 < cert.min_inter
    assert cert.probe_batches >= 20
    assert len(specs) == 4


def test_make_separated_zero_noise_has_tiny_intra(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0, 1), batch_size=16, input_dim=6, num_classes=3, seed=17, theta=2.0)
    specs, cert = make_separated(
        scfg, 2, 2.0, w.model, SeededRng(17).child(2), noise_std=0.0, class_means=w.class_means
    )
    # batches differ only by sample order, so intra spread is summation noise
    assert cert.max_intra < 1e-12
    assert cert.valid


def test_make_separated_fails_when_noise_swamps_theta(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0, 1), batch_size=16, input_dim=6, num_classes=3, seed=19, theta=0.01)
    with pytest.raises(ValueError, match="cannot certify"):
        make_separated(
            scfg, 2, 0.01, w.model, SeededRng(19).child(2), noise_std=0.5, class_means=w.class_means
        )


def test_noise_increases_intra_spread(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0, 1), batch_size=16, input_dim=6, num_classes=3, seed=23, theta=6.0)
    intras = []
    for noise in (0.1, 0.3, 0.6):
        specs, cert = make_separated(
            scfg, 2, 6.0, w.model, SeededRng(23).child(2), noise_std=noise, class_means=w.class_means
        )
        intras.append(cert.max_intra)
    assert intras[0] < intras[1] < intras[2]


def test_measure_separation_trivial_geometry():
    keys = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.2, 0.0]])
    owners = np.array([0, 0, 1, 1])
    max_intra, min_inter = measure_separation(keys, owners)
    assert max_intra == pytest.approx(0.2)
    assert min_inter == pytest.approx(4.9)


def test_stream_round_trip_bit_identical(tmp_path, world):
    cfg, w = world
    spec = DomainSpec(0, np.zeros(6), np.ones(6), w.class_means, 0.4)
    scfg = StreamConfig(domain_order=(0, 0), batches_per_domain=2, batch_size=5, input_dim=6, num_classes=3, seed=29)
    batches = generate_stream(scfg, [spec], SeededRng(29))
    p1 = tmp_path / "s1.csv"
    p2 = tmp_path / "s2.csv"
    write_stream(batches, p1)
    loaded = read_stream(p1)
    write_stream(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    again = read_stream(p2)
    for a, b in zip(loaded, again):
        assert a.samples.tobytes() == b.samples.tobytes()
        np.testing.assert_array_equal(a.class_ids, b.class_ids)
        assert (a.domain_id, a.batch_index) == (b.domain_id, b.batch_index)


def test_read_stream_empty_file_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.warns(UserWarning, match="zero batches"):
        assert read_stream(path) == []
    path.write_text("batch_idx,domain_id,class_id,f0,f1\n")
    with pytest.warns(UserWarning, match="zero batches"):
        assert read_stream(path) == []


def test_read_stream_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,0,0,0.5\n")
    with pytest.raises(StreamParseError, match="expected header") as err:
        read_stream(path)
    assert err.value.line == 1

    path.write_text("batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,0,1,0.5,9.9\n")
    with pytest.raises(StreamParseError, match="expected 4 fields") as err:
        read_stream(path)
    assert err.value.line == 3

    path.write_text("batch_idx,domain_id,class_id,f0\n0,0,1,not_a_float\n")
    with pytest.raises(StreamParseError, match="not_a_float") as err:
        read_stream(path)
    assert err.value.line == 2

    path.write_text("batch_idx,domain_id,class_id,f0\n1,0,1,0.5\n0,0,1,0.5\n")
    with pytest.raises(StreamParseError, match="ascending"):
        read_stream(path)

    path.write_text("batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,1,1,0.5\n")
    with pytest.raises(StreamParseError, match="domain_id changed"):
        read_stream(path)

    # a batch of one row cannot define key statistics; the error names its first row
    path.write_text(
        "batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,0,2,0.7\n1,0,1,0.5\n2,0,1,0.1\n2,0,0,0.2\n"
    )
    with pytest.raises(StreamParseError, match="fewer than 2 rows") as err:
        read_stream(path)
    assert err.value.line == 4


def test_config_round_trip_and_unknown_keys():
    cfg = StreamConfig(domain_order=(0, 1), seed=3, theta=2.5)
    assert StreamConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        StreamConfig.from_dict({"domain_order": [0], "bogus": 1})
    with pytest.raises(ValueError):
        StreamConfig(domain_order=(), seed=0)
    with pytest.raises(ValueError):
        StreamConfig(domain_order=(0,), batch_size=1, seed=0)


def test_domain_spec_validation():
    means = np.zeros((2, 3))
    with pytest.raises(ValueError):
        DomainSpec(0, np.zeros(3), np.zeros(3), means, 0.1)  # scale must be positive
    with pytest.raises(ValueError):
        DomainSpec(0, np.zeros(2), np.ones(3), means, 0.1)  # shift dim mismatch
    with pytest.raises(ValueError):
        DomainSpec(0, np.zeros(3), np.ones(3), means, -0.1)
