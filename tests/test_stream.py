import re
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ctta import stream as stream_module
from ctta.harness import build_world
from ctta.model import key_stats
from ctta.numerics import SeededRng
from ctta.stream import (
    DomainSpec,
    LabeledBatch,
    SeparationCertificate,
    StreamConfig,
    StreamParseError,
    generate_stream,
    make_separated,
    measure_separation,
    read_stream,
    write_stream,
)
from reference import measure_separation_reference, write_stream_reference

DEMO_STREAM = Path(__file__).resolve().parent.parent / "demo" / "stream.csv"


@pytest.fixture(scope="module")
def world():
    cfg = StreamConfig(domain_order=(0,), seed=5, input_dim=6, num_classes=3)
    return cfg, build_world(cfg, noise_std=0.4)


def test_noise_free_single_class_stream_is_the_class_mean():
    means = np.array([[1.0, 2.0, 3.0]])
    spec = DomainSpec(0, np.zeros(3), means, 0.0)
    cfg = StreamConfig(domain_order=(0,), batches_per_domain=2, batch_size=4, input_dim=3, num_classes=1, seed=0)
    batches = generate_stream(cfg, [spec], SeededRng(0))
    assert len(batches) == 2
    for b in batches:
        np.testing.assert_array_equal(b.samples, np.tile(means[0], (4, 1)))
        np.testing.assert_array_equal(b.class_ids, np.zeros(4, dtype=int))


def test_generation_is_deterministic_in_the_seed(world):
    cfg, w = world
    spec = DomainSpec(0, np.zeros(6), w.class_means, 0.4)
    scfg = StreamConfig(domain_order=(0, 0), batches_per_domain=3, batch_size=8, input_dim=6, num_classes=3, seed=3)
    a = generate_stream(scfg, [spec], SeededRng(scfg.seed))
    b = generate_stream(scfg, [spec], SeededRng(scfg.seed))
    for x, y in zip(a, b):
        assert x.samples.tobytes() == y.samples.tobytes()
        np.testing.assert_array_equal(x.class_ids, y.class_ids)


def test_shifted_domain_moves_key_means_by_extractor_shift(world):
    cfg, w = world
    delta = SeededRng(9).normal(size=6)
    base = DomainSpec(0, np.zeros(6), w.class_means, 0.4)
    shifted = DomainSpec(1, delta, w.class_means, 0.4)
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
    assert cert.probe_batches == 20
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


def test_make_separated_checks_theta_through_the_table(world):
    cfg, w = world
    scfg = StreamConfig(domain_order=(0, 1), batch_size=16, input_dim=6, num_classes=3, seed=19, theta=4.0)
    with pytest.raises(ValueError, match="^theta must be "):
        make_separated(scfg, 2, 0.0, w.model, SeededRng(19), class_means=w.class_means)


def test_certificate_loader_takes_the_probe_batches_rule_of_make_separated():
    # a certificate from fewer probe batches than make_separated draws is not one it wrote
    doc = {"theta": 4.0, "max_intra": 0.9, "min_inter": 11.7, "seed": 7}
    assert SeparationCertificate.from_dict({**doc, "probe_batches": 20}).probe_batches == 20
    with pytest.raises(ValueError, match=r"^probe_batches must be Integral in \[20, inf\], got 19$"):
        SeparationCertificate.from_dict({**doc, "probe_batches": 19})


@pytest.mark.parametrize(
    "record", [StreamConfig(domain_order=(0, 1)), SeparationCertificate(4.0, 0.9, 11.7, 20, 7)]
)
def test_record_loaders_name_missing_and_unknown_keys(record):
    doc = asdict(record)
    first = next(iter(doc))  # domain_order and theta: neither has a default
    with pytest.raises(ValueError, match=f"^missing .*keys: \\['{first}'\\]$"):
        type(record).from_dict({k: v for k, v in doc.items() if k != first})
    with pytest.raises(ValueError, match=r"^unknown .*keys: \['bogus'\]$"):
        type(record).from_dict({**doc, "bogus": 1})


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


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 12),
    st.sampled_from(["one owner", "distinct owners", "some owners"]),
    st.integers(-150, 150),
)
@settings(max_examples=80, deadline=None)
@example(0, 1, 3, "one owner", 0)
@example(1, 9, 4, "one owner", 0)
@example(2, 9, 4, "distinct owners", 0)
def test_measure_separation_matches_exhaustive_pair_scan(seed, m, f, layout, exponent):
    # keys scaled by powers of two whose squares stay finite
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(m, f)) * 2.0**exponent
    owners = {
        "one owner": np.zeros(m, dtype=np.int64),
        "distinct owners": rng.permutation(m),
        "some owners": rng.integers(0, 4, size=m),
    }[layout]
    got = measure_separation(keys, owners)
    want = measure_separation_reference(keys, owners)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if layout == "one owner":
        assert got[1] == np.inf
    if layout == "distinct owners":
        assert got[0] == 0.0


def test_stream_round_trip_bit_identical(tmp_path, world):
    cfg, w = world
    spec = DomainSpec(0, np.zeros(6), w.class_means, 0.4)
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


# finite floats only: the writer refuses the rest
_AWKWARD_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [
        -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 0.1, 1e16, 123456789.5, 9.9999999995e-5,
    ]
)


@st.composite
def _writable_batches(draw):
    dim = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=4))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(sizes), max_size=len(sizes)))
    batches = []
    for rows, index in zip(sizes, np.cumsum(gaps).tolist()):
        values = draw(st.lists(_AWKWARD_FLOATS, min_size=rows * dim, max_size=rows * dim))
        class_ids = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=rows, max_size=rows))
        samples = np.array(values, dtype=np.float64).reshape(rows, dim)
        domain = draw(st.integers(min_value=0, max_value=4))
        batches.append(LabeledBatch(samples, np.array(class_ids, dtype=np.int64), domain, index))
    return batches


@given(_writable_batches())
@settings(max_examples=60, deadline=None)
def test_write_stream_writes_the_reference_writers_bytes(tmp_path_factory, batches):
    # one %-format per row against one format() call per value (fact 11)
    folder = tmp_path_factory.mktemp("written")
    write_stream(batches, folder / "stream.csv")
    write_stream_reference(batches, folder / "reference.csv")
    assert (folder / "stream.csv").read_bytes() == (folder / "reference.csv").read_bytes()
    # and read_stream reads it back, batch for batch
    shapes = [(b.batch_index, b.domain_id, b.samples.shape) for b in read_stream(folder / "stream.csv")]
    assert shapes == [(b.batch_index, b.domain_id, b.samples.shape) for b in batches]


def _batch(index, samples, class_ids=None):
    samples = np.asarray(samples, dtype=np.float64)
    if class_ids is None:
        class_ids = np.zeros(len(samples), dtype=np.int64)
    return LabeledBatch(samples, np.asarray(class_ids, dtype=np.int64), 0, index)


_GOOD = np.arange(6.0).reshape(3, 2)
# batch lists that read_stream would not read back, and the whole message,
# which names the first batch at fault
UNWRITABLE = {
    "1-d samples": (
        [_batch(0, _GOOD), _batch(1, np.arange(3.0), [0, 0, 0])],
        "batch 1: samples must be 2-d, got shape (3,)",
    ),
    "ragged widths": (
        [_batch(0, _GOOD), _batch(1, np.ones((3, 3)))],
        "batch 1: samples must have shape (None, 2), got (3, 3)",
    ),
    "width 0": ([_batch(0, np.ones((3, 0)))], "batch 0: samples have no features"),
    "nan": (
        [_batch(0, _GOOD), _batch(4, np.where(_GOOD == 5.0, np.nan, _GOOD))],
        "batch 4: samples contains non-finite entries",
    ),
    "-inf": ([_batch(2, np.where(_GOOD == 1.0, -np.inf, _GOOD))], "batch 2: samples contains non-finite entries"),
    "1-row batch": ([_batch(0, _GOOD), _batch(1, _GOOD[:1])], "batch 1: samples has 1 rows, needs at least 2"),
    "bool samples": (
        [_batch(0, _GOOD), LabeledBatch(_GOOD > 2.0, np.zeros(3, dtype=np.int64), 0, 1)],
        "batch 1: samples must be an array of numbers, got dtype bool",
    ),
    "3 ids for 2 rows": ([_batch(0, _GOOD[:2], [0, 1, 2])], "batch 0: class ids of shape (3,) for 2 rows"),
    "2 ids for 3 rows": ([_batch(0, _GOOD, [0, 1])], "batch 0: class ids of shape (2,) for 3 rows"),
    "2-d class ids": ([_batch(0, _GOOD, [[0], [1], [2]])], "batch 0: class ids of shape (3, 1) for 3 rows"),
    "descending indices": ([_batch(5, _GOOD), _batch(3, _GOOD)], "batch 3: batch index not above the previous 5"),
    "repeated index": ([_batch(5, _GOOD), _batch(5, _GOOD)], "batch 5: batch index not above the previous 5"),
}


@pytest.mark.parametrize("name", list(UNWRITABLE))
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_write_stream_refuses_what_read_stream_would_not_read_back(tmp_path, name, existing):
    batches, message = UNWRITABLE[name]
    path = tmp_path / "stream.csv"
    if existing:
        path.write_bytes(DEMO_STREAM.read_bytes())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_stream(batches, path)
    # the file is neither created nor truncated
    if existing:
        assert path.read_bytes() == DEMO_STREAM.read_bytes()
    else:
        assert not path.exists()


def test_read_stream_empty_file_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.warns(UserWarning, match="zero batches"):
        assert read_stream(path) == []
    path.write_text("batch_idx,domain_id,class_id,f0,f1\n")
    with pytest.warns(UserWarning, match="zero batches"):
        assert read_stream(path) == []


def test_read_stream_refuses_a_header_without_feature_columns(tmp_path):
    # data rows under it once read into width-0 batches, which write_stream refuses
    path = tmp_path / "no-features.csv"
    path.write_text("batch_idx,domain_id,class_id\n0,0,1\n0,0,2\n")
    with pytest.raises(StreamParseError, match="^line 1: header has no feature columns$") as err:
        read_stream(path)
    assert err.value.line == 1
    # without data rows it is the header write_stream gives zero batches
    write_stream([], path)
    assert path.read_text() == "batch_idx,domain_id,class_id\n"
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
    with pytest.raises(StreamParseError, match="ascending") as err:
        read_stream(path)
    assert err.value.line == 3

    path.write_text("batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,1,1,0.5\n")
    with pytest.raises(StreamParseError, match="domain_id changed") as err:
        read_stream(path)
    assert err.value.line == 3

    path.write_text("batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n\n0,0,1,0.5\n")
    with pytest.raises(StreamParseError, match="expected 4 fields, got 1") as err:
        read_stream(path)
    assert err.value.line == 3

    for bad in ("nan", "1e999", "-inf"):
        path.write_text(f"batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,0,1,{bad}\n")
        with pytest.raises(StreamParseError, match="non-finite feature value") as err:
            read_stream(path)
        assert err.value.line == 3

    # a batch of one row cannot define key statistics; the error names its first row
    path.write_text(
        "batch_idx,domain_id,class_id,f0\n0,0,1,0.5\n0,0,2,0.7\n1,0,1,0.5\n2,0,1,0.1\n2,0,0,0.2\n"
    )
    with pytest.raises(StreamParseError, match="fewer than 2 rows") as err:
        read_stream(path)
    assert err.value.line == 4


def test_config_round_trip_and_unknown_keys():
    cfg = StreamConfig(domain_order=(0, 1), seed=3, theta=2.5)
    assert StreamConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(ValueError, match="unknown"):
        StreamConfig.from_dict({"domain_order": [0], "bogus": 1})
    with pytest.raises(ValueError):
        StreamConfig(domain_order=(), seed=0)
    with pytest.raises(ValueError):
        StreamConfig(domain_order=(0,), batch_size=1, seed=0)


@pytest.mark.parametrize("order", [5, None, 2.5, "012"], ids=["int", "null", "float", "string"])
def test_config_names_a_domain_order_that_is_not_a_list(order):
    with pytest.raises(ValueError, match=f"^domain_order must be a list, got {re.escape(repr(order))}$"):
        StreamConfig.from_dict({"domain_order": order, "theta": 4.0})


def test_domain_spec_validation():
    means = np.zeros((2, 3))
    with pytest.raises(ValueError):
        DomainSpec(0, np.zeros(2), means, 0.1)  # shift dim mismatch
    with pytest.raises(ValueError):
        DomainSpec(0, np.zeros(3), means, -0.1)


def _data_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines[1:]


def assert_same_batches(got, want):
    """Bit-for-bit equality of parsed batches, signed zeros included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.samples.dtype == b.samples.dtype == np.float64
        assert a.samples.shape == b.samples.shape
        assert a.samples.flags.c_contiguous
        np.testing.assert_array_equal(a.samples.view(np.int64), b.samples.view(np.int64))
        assert a.class_ids.dtype == b.class_ids.dtype == np.int64
        np.testing.assert_array_equal(a.class_ids, b.class_ids)
        assert (a.domain_id, a.batch_index) == (b.domain_id, b.batch_index)
        assert type(a.domain_id) is type(a.batch_index) is int


def _odd_values_stream() -> str:
    rows = [
        "batch_idx,domain_id,class_id,f0,f1,f2",
        "0,3,0,-0,5e-324,1.79769313e+308",
        "0,3,2,-1e-310,0.1,-2.5E-3",
        "7,0,1,1,-1,1e22",
        "7,0,1,123456789,0.000123456789,-0.0",
        "7,0,0,1e-05,3.14159265,-7",
    ]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("source", ["demo", "odd_values", "generated"])
def test_batch_parser_matches_line_parser_bit_for_bit(tmp_path, monkeypatch, world, source):
    path = tmp_path / "stream.csv"
    if source == "demo":
        path.write_bytes(DEMO_STREAM.read_bytes())
    elif source == "odd_values":
        path.write_text(_odd_values_stream())
    else:
        cfg, w = world
        spec = DomainSpec(0, np.zeros(6), w.class_means, 0.4)
        scfg = StreamConfig(
            domain_order=(0, 0, 0), batches_per_domain=3, batch_size=2, input_dim=6,
            num_classes=3, seed=3,
        )
        write_stream(generate_stream(scfg, [spec], SeededRng(3)), path)
    lines = _data_lines(path.read_text())
    dim = len(path.read_text().split("\n", 1)[0].split(",")) - 3
    want = stream_module._parse_lines(lines, dim)

    def no_fallback(*args):
        raise AssertionError("valid input fell back to the line parser")

    monkeypatch.setattr(stream_module, "_parse_lines", no_fallback)
    assert_same_batches(read_stream(path), want)


def _set_field(lines, row, col, value):
    parts = lines[row].split(",")
    parts[col] = value
    return lines[:row] + [",".join(parts)] + lines[row + 1 :]


def _relabel_batch(lines, batch, index):
    rows = range(1 + 16 * batch, 1 + 16 * (batch + 1))
    return [f"{index},{line.split(',', 1)[1]}" if i in rows else line for i, line in enumerate(lines)]


# Edits of the demo stream (file line 1 is the header; batch b, row r is file
# line 2 + 16 * b + r) and the outcome read_stream had before batches were
# parsed as blocks: None where it parses, else (line, message).
STREAM_EDITS = {
    "blank line": (lambda L: L[:40] + [""] + L[40:], (41, "expected 11 fields, got 1")),
    "05 batch prefix": (lambda L: _set_field(L, 1 + 16 * 5 + 7, 0, "05"), None),
    "leading space": (lambda L: _set_field(L, 1 + 16 * 2 + 3, 4, " 1.5"), None),
    "plus sign": (lambda L: _set_field(L, 1 + 16 * 2 + 3, 4, "+1.5"), None),
    "underscore": (lambda L: _set_field(L, 1 + 16 * 2 + 3, 4, "1_0"), None),
    "nan": (lambda L: _set_field(L, 1 + 16 * 4 + 9, 6, "nan"), (75, "non-finite feature value")),
    "1e999": (lambda L: _set_field(L, 1 + 16 * 4 + 9, 6, "1e999"), (75, "non-finite feature value")),
    "class id beyond int64": (
        lambda L: _set_field(L, 1 + 16 * 4 + 9, 2, "99999999999999999999"),
        (75, "class_id 99999999999999999999 outside int64"),
    ),
    "class id below int64": (
        lambda L: _set_field(L, 1 + 16 * 7 + 2, 2, "-9223372036854775809"),
        (116, "class_id -9223372036854775809 outside int64"),
    ),
    "one-row batch": (
        lambda L: L[: 1 + 16 * 3] + L[16 * 4 :],
        (50, "batch 3 has fewer than 2 rows"),
    ),
    "domain change in batch": (
        lambda L: _set_field(L, 1 + 16 * 12 + 5, 1, "2"),
        (199, "domain_id changed within batch 12"),
    ),
    "descending index": (
        lambda L: _set_field(L, 1 + 16 * 12 + 5, 0, "3"),
        (199, "batch_idx 3 not ascending"),
    ),
    "descending batch": (
        lambda L: _relabel_batch(L, 12, 3),
        (194, "batch_idx 3 not ascending"),
    ),
    "repeated index joins batches": (lambda L: _relabel_batch(L, 12, 11), None),
    "wrong field count": (lambda L: L[:30] + [L[30] + ",0.5"] + L[31:], (31, "expected 11 fields, got 12")),
    # in batch 0 index and domain are both 0, so the shifted columns still parse
    "field moved to the previous row": (
        lambda L: L[:2] + [L[2] + ",0.5", L[3].rsplit(",", 1)[0]] + L[4:],
        (3, "expected 11 fields, got 12"),
    ),
    "no final newline": (lambda L: L[:-1], None),
    "no feature columns": (
        lambda L: [",".join(line.split(",")[:3]) for line in L],
        (1, "header has no feature columns"),
    ),
}


@pytest.mark.parametrize("name", list(STREAM_EDITS))
def test_read_stream_on_edited_demo_streams(tmp_path, name):
    edit, expected = STREAM_EDITS[name]
    lines = edit(DEMO_STREAM.read_text().split("\n"))
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines))
    if expected is None:
        want = stream_module._parse_lines(_data_lines(path.read_text()), 8)
        assert_same_batches(read_stream(path), want)
    else:
        line, message = expected
        with pytest.raises(StreamParseError) as err:
            read_stream(path)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


# what a token swap puts in a field; 2**63 is the smallest int past int64
STREAM_TOKENS = ["", "nan", "1e309", "+3", " 3", "1_0", str(2**63)]


def _edit_stream(data, text: str) -> str:
    """``text`` after one seeded edit: truncated, a line deleted or
    duplicated, a comma added, or one field swapped for a token."""
    kind = data.draw(st.sampled_from(["truncate", "delete", "duplicate", "comma", "token"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text)))]
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "comma":
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + "," + lines[i][at:]
    else:
        fields = lines[i].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(STREAM_TOKENS))
        lines[i] = ",".join(fields)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def stream_head(tmp_path_factory):
    """The demo stream's header and first 6 batches, and a scratch directory."""
    lines = DEMO_STREAM.read_text().split("\n")
    return "\n".join(lines[: 1 + 16 * 6]) + "\n", tmp_path_factory.mktemp("stream-edits")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_stream_reads_to_itself_or_fails_with_one_value_error(stream_head, data):
    text, root = stream_head
    for _ in range(data.draw(st.integers(1, 3))):
        text = _edit_stream(data, text)
    path, again = root / "edited.csv", root / "again.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the two documented warnings of a stream without batches
        warnings.filterwarnings("ignore", r"stream file .* (is empty: )?(contains )?zero batches$", UserWarning)
        try:
            batches = read_stream(path)
        except ValueError:  # StreamParseError included
            event("refused")
            return
        event("read" if batches else "read, no batches")
        write_stream(batches, again)
        back = read_stream(again)
    # the format keeps 9 significant digits, so a wider value (2**63 in a
    # feature column) reads back rounded; the demo's values are not wider
    rounded = [
        replace(b, samples=np.array([float("%.9g" % v) for v in b.samples.flat]).reshape(b.samples.shape))
        for b in batches
    ]
    assert_same_batches(back, rounded)
