import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctta.cli import _dump_json, _json_text, load_config_file, main
from ctta.harness import Hyperparams, build_world, run_ctta
from ctta.numerics import SeededRng
from ctta.pools import ClassPromptPool, DomainPromptPool
from ctta.stream import SeparationCertificate, StreamConfig, read_stream, write_stream
from instancegen import load_pool

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


def test_verify_fails_when_hypotheses_broken(generated, tmp_path, capsys):
    root, config, stream, cert = generated
    # gamma_d far above the certificate's theta
    config = write_config(tmp_path / "config.json", gamma_d=1000.0)
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
    assert code == 1
    assert "hypothesis" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"seed": None}, "missing certificate keys: ['seed']"),
        ({"margin": 1.0}, "unknown certificate keys: ['margin']"),
    ],
)
def test_verify_names_a_missing_or_unknown_certificate_key(tmp_path, capsys, edit, message):
    doc = json.loads((DEMO / "certificate.json").read_text())
    doc.update(edit)
    doc = {k: v for k, v in doc.items() if v is not None}
    cert = tmp_path / "certificate.json"
    cert.write_text(json.dumps(doc))
    code = main(
        [
            "verify",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--certificate", str(cert),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc", [5, "theta", []], ids=["number", "string", "list"])
def test_verify_names_a_certificate_that_is_not_an_object(tmp_path, capsys, doc):
    cert = tmp_path / "certificate.json"
    cert.write_text(json.dumps(doc))
    code = main(
        [
            "verify",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--certificate", str(cert),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: certificate must be a JSON object\n"


@pytest.mark.parametrize("doc", [5, "theta", []], ids=["number", "string", "list"])
@pytest.mark.parametrize(
    "cls, what",
    [
        (SeparationCertificate, "certificate"),
        (StreamConfig, "stream config"),
        (Hyperparams, "hyperparameter"),
    ],
)
def test_record_loaders_name_a_document_that_is_not_an_object(cls, what, doc):
    with pytest.raises(ValueError, match=f"^{what} must be a JSON object$"):
        cls.from_dict(doc)


def test_gradcheck_exits_zero(capsys):
    code = main(["gradcheck", "--num-configs", "6", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--num-configs", "0", "num_configs must be Integral in [1, inf], got 0"),
        ("--step", "0", "step must be Real in (0, inf), got 0.0"),
        ("--step", "nan", "step must be Real in (0, inf), got nan"),
        ("--step", "inf", "step must be Real in (0, inf), got inf"),
        ("--tolerance", "-0.5", "tolerance must be Real in (0, inf), got -0.5"),
        ("--tolerance", "inf", "tolerance must be Real in (0, inf), got inf"),
        ("--seed", "-1", "seed must be Integral in [0, inf], got -1"),
    ],
    ids=[
        "num-configs-0", "step-0", "step-nan", "step-inf", "tolerance-negative", "tolerance-inf",
        "seed-negative",
    ],
)
def test_gradcheck_rejects_settings_naming_them(flag, value, message, capsys):
    code = main(["gradcheck", flag, value])
    assert code == 1
    assert message in capsys.readouterr().err


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
# sha256 over the boundary snapshots concatenated in sorted name order,
# measured with numpy 2.4.6 before the JSON writer left json.dump(indent=2).
DEMO_RUN_BOUNDARY_SHA256 = "9eb2a8e17dfb7a139b03f56e480899a8c898bb262f873fd10bac765f3691b597"


def boundary_digest(out: Path) -> tuple[int, str]:
    """Count and sha256 of a run's boundary snapshots, in sorted name order."""
    paths = sorted(out.glob("pools_*_boundary_*.json"), key=lambda p: p.name)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return len(paths), digest.hexdigest()


def test_demo_run_outputs_match_golden_bytes(tmp_path):
    code = main(
        [
            "run",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--seed", "7",
            "--certificate", str(DEMO / "certificate.json"),
            "--out-dir", str(tmp_path),
            "--model-out", str(tmp_path / "model.json"),
        ]
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_RUN_SHA256
    }
    assert digests == DEMO_RUN_SHA256
    assert (tmp_path / "model.json").read_bytes() == (DEMO / "model.json").read_bytes()
    # five domain boundaries, one class and one domain snapshot at each
    assert boundary_digest(tmp_path) == (10, DEMO_RUN_BOUNDARY_SHA256)
    # every snapshot reloads and writes back to the same bytes
    snapshots = sorted(tmp_path.glob("pools_*.json"))
    assert len(snapshots) == 12
    for path in snapshots:
        text = path.read_text()
        cls = ClassPromptPool if path.name.startswith("pools_class_") else DomainPromptPool
        pool = cls.from_dict(json.loads(text))
        assert json.dumps(pool.to_dict(), sort_keys=True, indent=2) + "\n" == text


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


def test_config_value_of_wrong_type_exits_1_naming_its_key(generated, tmp_path, capsys):
    root, config, stream, cert = generated
    bad = write_config(tmp_path / "config.json", softmax_over_all="false")
    code = main(
        [
            "run",
            "--config", str(bad),
            "--stream", str(stream),
            "--seed", "7",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "softmax_over_all must be bool" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # a domain order that is not a list is named before anything is read
    for value in (5, None, 2.5):
        bad = write_config(tmp_path / "config.json", domain_order=value)
        code = main(
            [
                "run",
                "--config", str(bad),
                "--stream", str(stream),
                "--seed", "7",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert f"domain_order must be a list, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # stream config values; verify reads the seed from the config
    for key, value, rule in [
        ("batches_per_domain", 2.5, "Integral in [1, inf], got 2.5"),
        ("input_dim", 4.0, "Integral in [1, inf], got 4.0"),
        ("num_classes", 3.0, "Integral in [1, inf], got 3.0"),
        ("batch_size", True, "Integral in [2, inf], got True"),
        ("theta", True, "Real in (0, inf], got True"),
        ("domain_order", [0, 1.7, 2], "Integral in [0, inf], got 1.7"),
        ("domain_order", ["0", "1", "2"], "Integral in [0, inf], got '0'"),
        ("seed", -1, "Integral in [0, inf], got -1"),
    ]:
        bad = write_config(tmp_path / "config.json", **{key: value})
        code = main(
            ["verify", "--config", str(bad), "--stream", str(stream), "--certificate", str(cert)]
        )
        assert code == 1
        assert f"{key} must be {rule}" in capsys.readouterr().err

    # world flags, checked before the world is built
    for flag, value, rule in [
        ("--noise-std", "nan", "noise_std must be Real in [0, inf), got nan"),
        ("--noise-std", "-0.1", "noise_std must be Real in [0, inf), got -0.1"),
        ("--noise-std", "inf", "noise_std must be Real in [0, inf), got inf"),
        ("--feature-dim", "0", "feature_dim must be Integral in [1, inf], got 0"),
        ("--class-mean-scale", "nan", "class_mean_scale must be Real in (0, inf), got nan"),
        ("--class-mean-scale", "-1", "class_mean_scale must be Real in (0, inf), got -1.0"),
        ("--class-mean-scale", "0", "class_mean_scale must be Real in (0, inf), got 0.0"),
        ("--shift-scale", "nan", "shift_scale must be Real in (-inf, inf), got nan"),
        ("--shift-scale", "inf", "shift_scale must be Real in (-inf, inf), got inf"),
    ]:
        out = tmp_path / "world.csv"
        code = main(
            [
                "gen-stream",
                "--config", str(DEMO / "config.json"),
                "--seed", "7",
                "--out", str(out),
                "--certificate", str(tmp_path / "world_certificate.json"),
                flag, value,
            ]
        )
        assert code == 1
        assert rule in capsys.readouterr().err
        assert not out.exists()

    # certificate values, read by run before gamma_d is taken from theta
    for value in ("4", True):
        bad_cert = tmp_path / "certificate.json"
        bad_cert.write_text(json.dumps({**json.loads(cert.read_text()), "theta": value}))
        code = main(
            [
                "run",
                "--config", str(config),
                "--stream", str(stream),
                "--seed", "7",
                "--certificate", str(bad_cert),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert f"theta must be Real in (0, inf], got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_sweep_reads_flag_spellings_and_rejects_others(generated, tmp_path, capsys):
    root, config, stream, cert = generated

    def sweep(out, values):
        return main(
            [
                "sweep",
                "--config", str(config),
                "--stream", str(stream),
                "--seed", "7",
                "--out-dir", str(out),
                "--param", "softmax_over_all",
                "--values", values,
            ]
        )

    out, raws = tmp_path / "ok", ("1", "true", "True", "0", "false", "False")
    assert sweep(out, ",".join(raws)) == 0
    metrics = {raw: (out / f"metrics_softmax_over_all_{raw}.csv").read_bytes() for raw in raws}
    assert metrics["1"] == metrics["true"] == metrics["True"]
    assert metrics["0"] == metrics["false"] == metrics["False"]
    assert metrics["1"] != metrics["0"]
    capsys.readouterr()

    assert sweep(tmp_path / "bad", "yes,flase") == 1
    assert "'yes'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_empty_stream_is_one_error_for_every_command(generated, tmp_path, capsys, command):
    root, config, stream, cert = generated
    empty = tmp_path / "empty.csv"
    empty.write_text(stream.read_text().splitlines()[0] + "\n")
    argv = [command, "--config", str(config), "--stream", str(empty), "--seed", "7"]
    argv += {
        "run": ["--out-dir", str(tmp_path / "out")],
        "verify": ["--certificate", str(cert)],
        "sweep": ["--out-dir", str(tmp_path / "out"), "--param", "gamma_h", "--values", "1.0"],
    }[command]
    code = main(argv)
    assert code == 1
    # the reader's warning, then the command's error, each on one line
    assert capsys.readouterr().err == (
        f"warning: stream file {empty} contains zero batches\n"
        f"error: stream {empty} contains no batches\n"
    )
    assert not (tmp_path / "out").exists()


def test_gamma_d_defaults_to_half_theta_with_certificate(generated, tmp_path, capsys):
    root, config, stream, cert = generated

    def domain_fissions(config, out):
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
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        return sum(int(r.split(",")[8]) for r in rows)

    # with gamma_d = theta/2 on a certified stream, each domain fissions once
    assert domain_fissions(config, tmp_path / "run") == 3
    # a gamma_d in the config wins over the certificate: every domain matches the first
    wide = write_config(tmp_path / "config.json", gamma_d=1000.0)
    assert domain_fissions(wide, tmp_path / "wide") == 1


# sha256 of a run whose class pool overflows and compacts on most batches,
# measured with numpy 2.4.6 before compaction moved from a sorted list of
# Python edge tuples to a stable argsort of the distance triangle.
SATURATING_RUN_SHA256 = {
    "metrics.csv": "bdeb75d8e693409c6e921c6c90a143a4caf561f2cca2332476a8597393b9cafd",
    "summary.json": "7ddb9f4bc05dcfdcdb691ce6a591465407daaee24a4243b7deb20a9d83f478d6",
    "pools_class_final.json": "b02c31b3a7ce11570f979ef2be294ce1201542a424f9552c330f4faf569195f0",
    "pools_domain_final.json": "a2185f1d3f81fed27c1348e51851ed42ead04923b977877cfcba4dc0b25c36af",
}
# measured like DEMO_RUN_BOUNDARY_SHA256
SATURATING_RUN_BOUNDARY_SHA256 = "f16dce113a915aca3c95a89378c43b5dd4b21908423d0a46aabad53021f50b3e"


def test_saturating_run_outputs_match_golden_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "domain_order": [0, 1, 2, 0, 1, 2],
                "batches_per_domain": 2,
                "batch_size": 16,
                "input_dim": 8,
                "num_classes": 3,
                "seed": 0,
                "gamma_c": 0.95,
                "n_c": 4,
                "gamma_d": 1.0,
                "n_d": 6,
                "k_steps": 1,
            }
        )
    )
    stream = tmp_path / "stream.csv"
    world = ["--seed", "5", "--noise-std", "1.5"]
    assert main(["gen-stream", "--config", str(config), "--out", str(stream), *world]) == 0
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--stream", str(stream), "--out-dir", str(out), *world]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_fusions"]["class"] > 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in SATURATING_RUN_SHA256
    }
    assert digests == SATURATING_RUN_SHA256
    assert boundary_digest(out) == (10, SATURATING_RUN_BOUNDARY_SHA256)


# sha256 of a run with batch-averaged class updates and softmax weights over
# the whole pool, measured with numpy 2.4.6 before fission outcomes moved from
# {index: weight} dicts to candidate and weight arrays.
AVERAGED_RUN_SHA256 = {
    "metrics.csv": "8d67c2c1b40cec8f042694acda4f9c08d17e0093d8603078abd472d88c4932a6",
    "summary.json": "12891cf67db3daae2bcc3020f26446ccd57aa7d77e1ed40d2883f979f386419e",
    "pools_class_final.json": "f10633fbfe5e0fb177e14b71f23409d86964bf9345609a28ed50684d4891b648",
    "pools_domain_final.json": "f2571eea87507f61c4f431895e6ba276c29db791a816dc0764b47b804f03f8f1",
}


def test_averaged_softmax_over_all_run_outputs_match_golden_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "domain_order": [0, 1, 2, 0, 1, 2],
                "batches_per_domain": 2,
                "batch_size": 16,
                "input_dim": 8,
                "num_classes": 3,
                "seed": 0,
                "gamma_c": 0.9,
                "n_c": 6,
                "gamma_d": 2.0,
                "n_d": 6,
                "k_steps": 1,
                "class_update": "averaged",
                "softmax_over_all": True,
            }
        )
    )
    stream = tmp_path / "stream.csv"
    world = ["--seed", "5", "--noise-std", "1.5"]
    assert main(["gen-stream", "--config", str(config), "--out", str(stream), *world]) == 0
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--stream", str(stream), "--out-dir", str(out), *world]
    )
    assert code == 0
    # both pools match on most batches, so both weighting paths are exercised
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert sum(int(r.split(",")[8]) for r in rows) < len(rows)
    assert sum(int(r.split(",")[9]) for r in rows) < 16 * len(rows)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in AVERAGED_RUN_SHA256
    }
    assert digests == AVERAGED_RUN_SHA256


def test_gen_stream_reproduces_the_shipped_demo_files(tmp_path):
    # the regeneration command in the README
    stream, cert, model = tmp_path / "stream.csv", tmp_path / "certificate.json", tmp_path / "model.json"
    code = main(
        [
            "gen-stream",
            "--config", str(DEMO / "config.json"),
            "--seed", "7",
            "--out", str(stream),
            "--certificate", str(cert),
            "--model-out", str(model),
        ]
    )
    assert code == 0
    assert stream.read_bytes() == (DEMO / "stream.csv").read_bytes()
    assert cert.read_bytes() == (DEMO / "certificate.json").read_bytes()
    assert model.read_bytes() == (DEMO / "model.json").read_bytes()


def test_gen_stream_rejects_too_few_probe_batches_by_name(tmp_path, capsys):
    # the certificate loader's rule: a certificate from 19 probe batches would not load
    code = main(
        [
            "gen-stream",
            "--config", str(DEMO / "config.json"),
            "--seed", "7",
            "--out", str(tmp_path / "stream.csv"),
            "--certificate", str(tmp_path / "certificate.json"),
            "--probe-batches", "19",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: probe_batches must be Integral in [20, inf], got 19\n"
    assert not (tmp_path / "stream.csv").exists()


@pytest.mark.parametrize("value", ["-1", "0", "1"])
def test_gen_stream_rejects_too_few_source_samples_by_name(value, tmp_path, capsys):
    # the source statistics need a spread; checked before the model is fit
    code = main(
        [
            "gen-stream",
            "--config", str(DEMO / "config.json"),
            "--seed", "7",
            "--out", str(tmp_path / "stream.csv"),
            "--certificate", str(tmp_path / "certificate.json"),
            "--source-samples", value,
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: source_samples must be Integral in [2, inf], got {value}\n"
    )
    assert not (tmp_path / "stream.csv").exists()


def test_gen_stream_prints_a_warning_as_one_line(tmp_path, capsys):
    shown = warnings.showwarning
    code = main(
        [
            "gen-stream",
            "--config", str(DEMO / "config.json"),
            "--seed", "7",
            "--out", str(tmp_path / "stream.csv"),
            "--certificate", str(tmp_path / "certificate.json"),
            "--source-samples", "5",
        ]
    )
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: only 5 source samples; 300+ recommended for stable statistics\n"
    )
    # an in-process caller gets its own warning display back
    assert warnings.showwarning is shown


# sha256 of uncertified gen-stream outputs (no theta in the config): one
# domain, and three domains shifted along random directions by --shift-scale
UNCERTIFIED_STREAM_SHA256 = {
    "one-domain": "5a20634bdc0e85864e40e3947092c73000c70e758150ef7ea104bbd03644bf40",
    "three-domains": "828ab181f4c94e3c59cfc413139688fbffc52aea8b91ad475798d22a3f099102",
}


@pytest.mark.parametrize(
    "name, order, flags",
    [("one-domain", [0, 0], []), ("three-domains", [0, 1, 2, 1], ["--shift-scale", "3.5"])],
    ids=["one-domain", "three-domains"],
)
def test_uncertified_gen_stream_matches_golden_bytes(name, order, flags, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "domain_order": order,
                "batches_per_domain": 4,
                "batch_size": 16,
                "input_dim": 8,
                "num_classes": 3,
                "seed": 0,
            }
        )
    )
    stream, cert = tmp_path / "stream.csv", tmp_path / "certificate.json"
    argv = ["gen-stream", "--config", str(config), "--seed", "11", "--out", str(stream)]
    code = main(argv + ["--certificate", str(cert), *flags])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert not cert.exists()
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == UNCERTIFIED_STREAM_SHA256[name]


@pytest.mark.parametrize(
    "param, raw, kind",
    [("n_c", "1.5", "int"), ("gamma_h", "", "float"), ("gamma_h", "1/2", "float")],
    ids=["n_c-1.5", "gamma_h-empty", "gamma_h-1/2"],
)
def test_sweep_names_the_parameter_of_a_value_that_does_not_parse(param, raw, kind, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--seed", "7",
            "--out-dir", str(out),
            "--param", param,
            "--values", f"1,{raw}",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {param} takes {kind} values, got {raw!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scale, where",
    [
        (1e155, "mean or spread"),  # the squared deviations overflow
        (3e307, "mean or spread"),  # the softmax's shifted logits overflow too
        (5e307, "prompt-free predictions"),  # the features overflow
    ],
    ids=["1e155", "3e307", "5e307"],
)
def test_overflowing_batch_names_its_batch(tmp_path, capsys, scale, where):
    batches = read_stream(DEMO / "stream.csv")
    batches[5].samples = batches[5].samples * scale
    assert np.isfinite(batches[5].samples).all()
    stream = tmp_path / "overflow.csv"
    write_stream(batches, stream)
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config", str(DEMO / "config.json"),
            "--stream", str(stream),
            "--seed", "7",
            "--certificate", str(DEMO / "certificate.json"),
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    # one error line and no numpy warning before it
    err = capsys.readouterr().err
    assert err == f"error: batch 5: feature batch overflowed float64 in its {where}\n"
    assert not out.exists()

    hp_doc, sc_doc = load_config_file(DEMO / "config.json")
    world = build_world(StreamConfig.from_dict(dict(sc_doc, seed=7)))
    with pytest.raises(ValueError, match=r"^batch 5: feature batch overflowed") as exc:
        run_ctta(
            world.model, batches, Hyperparams.from_dict(hp_doc), world.source_stats, rng=SeededRng(7)
        )
    # the engine's own error stays attached
    assert isinstance(exc.value.__cause__, ValueError)
    assert str(exc.value.__cause__).startswith("feature batch overflowed")


_EDGE_FLOATS = [-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
_json_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | _json_floats
    | st.text()
    | st.sampled_from(["a, b", ", ", "x,\n  y", "h\u00e9, w\u00f6rld", "\u2603"])
)
_json_docs = st.recursive(
    _json_scalars,
    lambda children: (
        st.lists(children)
        | st.lists(_json_floats, min_size=1)
        | st.dictionaries(st.text() | st.sampled_from(["k, v", "\u00fc"]), children)
    ),
    max_leaves=40,
)


@given(_json_docs)
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


# edits that make a row equal to, or nearly equal to, one of an earlier document
_ROW_EDITS = {
    "same": list,
    "zero sign": lambda row: [-v if v == 0 else v for v in row],
    "next float": lambda row: [math.nextafter(v, math.inf) for v in row],
    "as ints": lambda row: [int(v) if math.isfinite(v) and v.is_integer() else v for v in row],
}
_row_picks = st.tuples(st.integers(0, 7), st.sampled_from(list(_ROW_EDITS)))
# per document: (key, prompt) picks of its entries, and one row at the top level
_doc_plans = st.lists(
    st.tuples(st.lists(st.tuples(_row_picks, _row_picks), max_size=6), _row_picks),
    min_size=1,
    max_size=5,
)


def _float_lists(value) -> int:
    if isinstance(value, dict):
        return sum(map(_float_lists, value.values()))
    if value and isinstance(value, list) and all(type(v) is float for v in value):
        return 1
    return sum(map(_float_lists, value)) if isinstance(value, list) else 0


@given(st.lists(st.lists(_json_floats, min_size=1, max_size=4), min_size=1, max_size=8), _doc_plans)
@example(
    rows=[[0.0, 2.0]],
    plans=[
        ([((0, "same"), (0, "same"))], (0, "same")),
        ([((0, "zero sign"), (0, "as ints")), ((0, "same"), (0, "next float"))], (0, "zero sign")),
        ([], (0, "as ints")),
        ([((0, "same"), (0, "same"))], (0, "same")),
    ],
)
@settings(max_examples=300, deadline=None)
def test_json_writer_memo_matches_json_dumps_across_snapshots(rows, plans):
    # rows are shared, reordered and perturbed between consecutive documents,
    # and the top-level row sits two levels above the entries' rows
    def pick(choice):
        index, edit = choice
        return _ROW_EDITS[edit](rows[index % len(rows)])

    memo: dict = {}
    for version, (entries, top) in enumerate(plans):
        doc = {
            "kind": "class",
            "version": version,
            "top": pick(top),
            "entries": [
                {"key": pick(key), "prompt": pick(prompt), "created_at": i}
                for i, (key, prompt) in enumerate(entries)
            ],
        }
        before = dict(memo)
        assert _json_text(doc, memo) == json.dumps(doc, sort_keys=True, indent=2)
        assert len(memo) <= _float_lists(doc)
        # a row the previous document had is copied, not encoded again
        assert all(memo[k] is before[k] for k in memo.keys() & before.keys())


@pytest.mark.parametrize("n", [0, 1, 5])
def test_json_writer_matches_json_dumps_on_pool_snapshots(tmp_path, n):
    rng = np.random.default_rng(n)
    class_rows, domain_rows = [], []
    for i in range(n):
        prompt = rng.normal(size=4)
        prompt[: min(i, 4)] = [-0.0, 5e-324, 1e308, -1e-310][: min(i, 4)]
        class_rows.append((rng.dirichlet(np.ones(3)), prompt, i))
        domain_rows.append((np.r_[rng.normal(size=2), rng.uniform(size=2)], -prompt, i))
    class_pool = load_pool(ClassPromptPool(5, 4, 3), class_rows)
    domain_pool = load_pool(DomainPromptPool(5, 4, 2), domain_rows)
    for doc in (class_pool.to_dict(), domain_pool.to_dict()):
        path = tmp_path / "pool.json"
        _dump_json(doc, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
