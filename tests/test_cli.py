import hashlib
import json
from pathlib import Path

import pytest

from ctta.cli import main
from ctta.stream import read_stream

DEMO = Path(__file__).resolve().parent.parent / "demo"


def write_config(path, **overrides):
    doc = {
        "domain_order": [0, 1, 2],
        "batches_per_domain": 5,
        "batch_size": 16,
        "input_dim": 8,
        "num_classes": 3,
        "seed": 0,
        "theta": 4.0,
        "n_d": 6,
        "k_steps": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "config.json")
    stream = root / "stream.csv"
    cert = root / "certificate.json"
    code = main(
        [
            "gen-stream",
            "--config", str(config),
            "--seed", "7",
            "--out", str(stream),
            "--certificate", str(cert),
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    assert code == 0
    return root, config, stream, cert


def test_gen_stream_outputs(generated):
    root, config, stream, cert = generated
    batches = read_stream(stream)
    assert len(batches) == 15
    assert all(b.samples.shape == (16, 8) for b in batches)
    doc = json.loads(cert.read_text())
    assert doc["max_intra"] < doc["theta"] < doc["min_inter"]
    assert doc["probe_batches"] >= 20


def test_run_twice_is_byte_identical(generated, tmp_path):
    root, config, stream, cert = generated
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "run",
                "--config", str(config),
                "--stream", str(stream),
                "--seed", "7",
                "--out-dir", str(out),
                "--certificate", str(cert),
                "--noise-std", "0.4",
                "--class-mean-scale", "1.0",
            ]
        )
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "pools_class_final.json").read_bytes() == (b / "pools_class_final.json").read_bytes()
    assert (a / "pools_domain_final.json").read_bytes() == (b / "pools_domain_final.json").read_bytes()


def test_run_writes_metrics_with_contracted_header(generated, tmp_path):
    root, config, stream, cert = generated
    out = tmp_path / "run"
    main(
        [
            "run",
            "--config", str(config),
            "--stream", str(stream),
            "--seed", "7",
            "--out-dir", str(out),
            "--certificate", str(cert),
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == (
        "batch_idx,domain_id_true,error_rate,mean_entropy,loss_d,loss_c,"
        "pool_d_size,pool_c_size,fissioned_d,fissioned_c,param_count"
    )
    assert len(lines) == 16
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {
        "overall_error",
        "per_domain_error",
        "final_pool_sizes",
        "total_fissions",
        "total_fusions",
    }
    # domain boundaries: two crossings for three domains
    assert (out / "pools_domain_boundary_5.json").exists()
    assert (out / "pools_domain_boundary_10.json").exists()


def test_verify_passes_on_certified_stream(generated):
    root, config, stream, cert = generated
    code = main(
        [
            "verify",
            "--config", str(config),
            "--stream", str(stream),
            "--certificate", str(cert),
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    assert code == 0


def test_verify_fails_when_hypotheses_broken(generated, capsys):
    root, config, stream, cert = generated
    code = main(
        [
            "verify",
            "--config", str(config),
            "--stream", str(stream),
            "--certificate", str(cert),
            "--gamma-d", "1000.0",
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    assert code == 1
    assert "hypothesis" in capsys.readouterr().out


def test_gradcheck_exits_zero(capsys):
    code = main(["gradcheck", "--num-configs", "6", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_sweep_writes_one_metrics_file_per_point(generated, tmp_path):
    root, config, stream, cert = generated
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config", str(config),
            "--stream", str(stream),
            "--seed", "7",
            "--out-dir", str(out),
            "--param", "gamma_h",
            "--values", "0.5,2.0",
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    assert code == 0
    assert (out / "metrics_gamma_h_0.5.csv").exists()
    assert (out / "metrics_gamma_h_2.0.csv").exists()
    assert (out / "summary_gamma_h_0.5.json").exists()


def test_verify_passes_on_the_shipped_demo_stream():
    code = main(
        [
            "verify",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--certificate", str(DEMO / "certificate.json"),
        ]
    )
    assert code == 0


# sha256 of the README demo run's outputs, measured with numpy 2.4.6 before the
# pools moved to array storage; any change to the engine's arithmetic shows here.
DEMO_RUN_SHA256 = {
    "metrics.csv": "9921f754c39991c77943e9080ac8cd6fa0a4b93a8b5d10fb3c93e477b2b4b44b",
    "summary.json": "7c5270d573fa2f825b80fa1583a3720417a8dd522d47287f4109db427af25e2e",
    "pools_class_final.json": "38e079f81ae06d80d3205f4a8b6f638f9160c1bcc54d74846a4c6be256b08a1a",
    "pools_domain_final.json": "a558437f54b2dd5867acff63c0086f197f4e01ded496ab5fe42b078c24b37f80",
}


def test_demo_run_outputs_match_golden_bytes(tmp_path):
    code = main(
        [
            "run",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--seed", "7",
            "--certificate", str(DEMO / "certificate.json"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_RUN_SHA256
    }
    assert digests == DEMO_RUN_SHA256


def test_unknown_subcommand_and_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--bogus"])
    assert exc.value.code == 2


def test_unknown_config_keys_exit_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain_order": [0], "seed": 0, "mystery": 3}))
    code = main(
        ["gen-stream", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "s.csv")]
    )
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_stream_file_exits_1(generated, tmp_path, capsys):
    root, config, stream, cert = generated
    code = main(
        [
            "run",
            "--config", str(config),
            "--stream", str(tmp_path / "missing.csv"),
            "--seed", "3",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1


def test_gamma_d_defaults_to_half_theta_with_certificate(generated, tmp_path, capsys):
    root, config, stream, cert = generated
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--config", str(config),
            "--stream", str(stream),
            "--seed", "7",
            "--out-dir", str(out),
            "--certificate", str(cert),
            "--noise-std", "0.4",
            "--class-mean-scale", "1.0",
        ]
    )
    assert code == 0
    # with gamma_d = theta/2 on a certified stream, each domain fissions once
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    fissioned = [int(r.split(",")[8]) for r in rows]
    assert sum(fissioned) == 3
