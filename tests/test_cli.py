import contextlib
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
        ("--seed", "-1", "seed must be Integral in [0, inf], got -1"),
    ],
    ids=["num-configs-0", "seed-negative"],
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
    assert capsys.readouterr().err == "error: unknown config keys: ['mystery']\n"


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
    bad = write_config(tmp_path / "config.json", n_c=6.0)
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
    assert "n_c must be Integral in [1, inf], got 6.0" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_empty_stream_is_one_error_for_every_command(generated, tmp_path, capsys, command):
    root, config, stream, cert = generated
    shown = warnings.showwarning
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
    # an in-process caller gets its own warning display back
    assert warnings.showwarning is shown


def test_a_header_and_a_blank_line_is_one_error_and_no_warning(generated, tmp_path, capsys):
    # np.loadtxt warns on data lines that are all blank; the reader refuses
    # them by the line parser's error alone
    root, config, stream, cert = generated
    header = stream.read_text().splitlines()[0]
    blank = tmp_path / "blank.csv"
    blank.write_text(header + "\n\n")
    argv = ["run", "--config", str(config), "--stream", str(blank), "--seed", "7"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    fields = len(header.split(","))
    assert capsys.readouterr().err == f"error: stream {blank}: line 2: expected {fields} fields, got 1\n"
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


# sha256 of a run whose class and domain pools both match on most batches and
# whose class pool compacts, measured with numpy 2.4.6. The name of the table
# is that of the two modes this config selected until they were deleted.
AVERAGED_RUN_SHA256 = {
    "metrics.csv": "96709258667e9a60518234bfa188388f00ed6918cc5acaa3ccfbd13197139626",
    "summary.json": "e02fa94b5cb715e281c4ef4b88eea1747ceb3817edf41ca12a515bd2d379be53",
    "pools_class_final.json": "dbc2af691c57117e3bba04de79155472206f1bed5b5c54d340feac4054715378",
    "pools_domain_final.json": "20328eb2b076ab66dd9ed75dd9b2938f355cf0ea7954a14ecca8021e6efd2cfb",
}


def test_matching_pools_run_outputs_match_golden_bytes(tmp_path):
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
    # both pools match on most batches, so both candidate softmaxes and the
    # sequential class update run on most batches
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


# sha256 of the saturate benchmark workload's seed-1 stream; CI's cmp pins
# only the d=8 demo stream
SATURATE_STREAM_SHA256 = "80d1c04ae127a61a35a41caed8817b58545c56835ff77920b1ad5badb81d2d68"


def test_saturate_gen_stream_matches_golden_bytes(tmp_path, capsys):
    # uncertified, as in the benchmark: no theta
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "domain_order": list(range(5)) * 10,
                "batches_per_domain": 3,
                "batch_size": 64,
                "input_dim": 32,
                "num_classes": 10,
            }
        )
    )
    stream = tmp_path / "stream.csv"
    argv = ["gen-stream", "--config", str(config), "--seed", "1", "--noise-std", "1.5"]
    assert main(argv + ["--out", str(stream)]) == 0
    assert capsys.readouterr() == (f"wrote 150 batches to {stream}\n", "")
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == SATURATE_STREAM_SHA256


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


def test_failed_sweep_makes_no_output_directory_and_leaves_one_that_exists(tmp_path, capsys):
    batches = read_stream(DEMO / "stream.csv")
    batches[5].samples = batches[5].samples * 1e155
    stream = tmp_path / "overflow.csv"
    write_stream(batches, stream)
    out = tmp_path / "sweep"

    def sweep():
        argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(stream)]
        argv += ["--seed", "7", "--out-dir", str(out), "--param", "gamma_h", "--values", "1.0,2.0"]
        return main(argv)

    error = "error: batch 5: feature batch overflowed float64 in its mean or spread\n"
    assert sweep() == 1
    assert capsys.readouterr().err == error
    assert not out.exists()
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    assert sweep() == 1
    assert capsys.readouterr().err == error
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


def test_run_with_an_unwritable_model_path_makes_no_output_directory(tmp_path, capsys):
    out, model = tmp_path / "out", tmp_path / "missing" / "model.json"
    code = main(
        [
            "run",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--seed", "7",
            "--certificate", str(DEMO / "certificate.json"),
            "--out-dir", str(out),
            "--model-out", str(model),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {model}: not a file in an existing directory\n"
    )
    assert not out.exists() and not model.parent.exists()


def test_run_whose_output_directory_cannot_be_made_writes_no_model(tmp_path, capsys):
    # the output directory would sit under a plain file; both paths are
    # checked before the model file is written
    (tmp_path / "afile").write_text("")
    out, model = tmp_path / "afile" / "out", tmp_path / "m.json"
    code = main(
        [
            "run",
            "--config", str(DEMO / "config.json"),
            "--stream", str(DEMO / "stream.csv"),
            "--seed", "7",
            "--certificate", str(DEMO / "certificate.json"),
            "--out-dir", str(out),
            "--model-out", str(model),
        ]
    )
    assert code == 1
    outs, err = capsys.readouterr()
    assert outs == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_sweep_whose_output_directory_cannot_be_made_runs_no_point(tmp_path, monkeypatch, capsys):
    # the output directory is checked before the first grid point, not after the last
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    calls = []
    monkeypatch.setattr("ctta.cli.run_ctta", lambda *a, **k: calls.append(a))
    argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv")]
    argv += ["--seed", "7", "--out-dir", "afile/sweep", "--param", "gamma_h", "--values", "1.0,2.0"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: cannot make afile/sweep: afile is not a directory\n")
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


_MISSING_DIR = "not a file in an existing directory"
_REFUSED = {
    # one refused output per command: a file in a missing directory, or an
    # --out-dir under a plain file
    "gen-stream": (
        ["--out", "s.csv", "--certificate", "nodir/c.json"],
        f"error: cannot write nodir/c.json: {_MISSING_DIR}\n",
    ),
    "run": (
        ["--out-dir", "out", "--model-out", "nodir/m.json"],
        f"error: cannot write nodir/m.json: {_MISSING_DIR}\n",
    ),
    "sweep": (
        ["--out-dir", "afile/sweep", "--param", "gamma_h", "--values", "1.0"],
        "error: cannot make afile/sweep: afile is not a directory\n",
    ),
}


@pytest.mark.parametrize("command", sorted(_REFUSED))
def test_a_refused_output_fails_before_the_source_fit(command, tmp_path, monkeypatch, capsys):
    # the inputs and the output plan are checked before build_world fits the model
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    calls = []
    monkeypatch.setattr("ctta.cli.build_world", lambda *a, **k: calls.append(a))
    argv = [command, "--config", str(DEMO / "config.json"), "--seed", "7"]
    if command != "gen-stream":
        argv += ["--stream", str(DEMO / "stream.csv")]
    flags, error = _REFUSED[command]
    assert main(argv + flags) == 1
    assert capsys.readouterr() == ("", error)
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error):
    """``main(argv)`` exits 1 with ``error`` as its one stderr line, before
    the source fit and without making its ``--out-dir``."""
    calls = []
    monkeypatch.setattr("ctta.cli.build_world", lambda *a, **k: calls.append(a))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", error)
    assert calls == []
    assert not (tmp_path / "out").exists()


def _demo_argv(command, tmp_path, config=DEMO / "config.json"):
    argv = [command, "--config", str(config), "--stream", str(DEMO / "stream.csv")]
    if command == "run":
        argv += ["--seed", "7", "--out-dir", str(tmp_path / "out")]
    return argv + ["--certificate", str(DEMO / "certificate.json")]


def test_a_config_with_fewer_classes_than_the_stream_is_refused(tmp_path, monkeypatch, capsys):
    # it used to score every sample of class 2 against a model that cannot predict it
    config = write_config(tmp_path / "config.json", num_classes=2)
    error = f"error: stream {DEMO / 'stream.csv'}: batch 0 has class id 2, outside [0, 2)\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, _demo_argv("run", tmp_path, config), error)


def test_a_config_of_another_width_than_the_stream_is_refused_before_the_fit(tmp_path, monkeypatch, capsys):
    # it used to fit the source model first and then fail on batch 0's shape
    config = write_config(tmp_path / "config.json", input_dim=5)
    error = f"error: stream {DEMO / 'stream.csv'}: batch 0 has 8 features, the config's input_dim is 5\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, _demo_argv("run", tmp_path, config), error)


def test_a_stream_without_feature_columns_is_refused_at_its_header(tmp_path, monkeypatch, capsys):
    # it used to read into width-0 batches and fail on batch 0's width
    stream = tmp_path / "stream.csv"
    lines = (DEMO / "stream.csv").read_text().splitlines()
    stream.write_text("".join(",".join(line.split(",")[:3]) + "\n" for line in lines))
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(stream), "--seed", "7"]
    argv += ["--out-dir", str(tmp_path / "out")]
    error = f"error: stream {stream}: line 1: header has no feature columns\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error)


def test_a_stream_that_is_not_utf8_is_refused_naming_the_file(tmp_path, monkeypatch, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_bytes(b"\x89PNG\r\n")
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(stream), "--seed", "7"]
    argv += ["--out-dir", str(tmp_path / "out")]
    error = f"error: stream {stream}: 'utf-8' codec can't decode byte 0x89 in position 0: invalid start byte\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error)


def test_a_certificate_that_is_not_json_is_refused_naming_the_file(tmp_path, monkeypatch, capsys):
    cert = tmp_path / "certificate.json"
    cert.write_text('{\n  "theta": ,\n}\n')
    argv = _demo_argv("run", tmp_path)[:-1] + [str(cert)]
    error = f"error: certificate {cert}: Expecting value: line 2 column 12 (char 13)\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error)


@pytest.mark.parametrize("command", ["gen-stream", "run", "verify", "sweep"])
def test_a_config_that_is_not_json_is_refused_naming_the_file(command, tmp_path, monkeypatch, capsys):
    # the decoder's position used to print alone: "error: Expecting value: ..."
    config = tmp_path / "config.json"
    config.write_text('{\n  "seed": ,\n}\n')
    argv = {
        "gen-stream": ["gen-stream", "--config", str(config), "--seed", "7", "--out", str(tmp_path / "out")],
        "run": _demo_argv("run", tmp_path, config),
        "verify": _demo_argv("verify", tmp_path, config),
        "sweep": ["sweep", "--config", str(config), "--stream", str(DEMO / "stream.csv"), "--seed", "7"]
        + ["--out-dir", str(tmp_path / "out"), "--param", "gamma_h", "--values", "1.0"],
    }[command]
    error = f"error: config {config}: Expecting value: line 2 column 11 (char 12)\n"
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_gen_stream_refuses_domain_ids_that_are_not_0_to_n(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", domain_order=[0, 2, 0])
    argv = ["gen-stream", "--config", str(config), "--seed", "7", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: domain_order ids must be 0..N-1\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_sweep_refuses_an_unknown_hyperparameter(tmp_path, capsys):
    argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv"), "--seed", "7"]
    argv += ["--out-dir", str(tmp_path / "out"), "--param", "theta", "--values", "1.0"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: unknown hyperparameter 'theta'\n")
    assert not (tmp_path / "out").exists()


def test_verify_prints_each_violation_and_exits_1_under_a_forged_certificate(tmp_path, capsys):
    # theta 1000 passes the hypotheses and sets gamma_d to 500, so the first
    # batch of domain 1 matches domain 0's prompt
    cert = tmp_path / "certificate.json"
    doc = json.loads((DEMO / "certificate.json").read_text())
    cert.write_text(json.dumps({**doc, "theta": 1000.0, "min_inter": 2000.0}))
    assert main(_demo_argv("verify", tmp_path)[:-1] + [str(cert)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "verify: status=lemma_violation batches=60 domains=3",
        "  violation: batch 10: first encounter of domain 1 matched existing prompts instead of fissioning",
        "  violation: batch 10: matched entry 0 of domain 0 while in domain 1",
    ]
    assert len(out) > 3 and all(line.startswith("  violation: batch ") for line in out[1:])


def test_verify_refuses_a_certificate_measured_at_another_seed(tmp_path, monkeypatch, capsys):
    # it used to pass at seed 8 with the certificate measured at seed 7
    cert = DEMO / "certificate.json"
    error = f"error: certificate {cert} was measured at seed 7, not at the run's seed 8\n"
    argv = _demo_argv("verify", tmp_path) + ["--seed", "8"]
    _refused_before_the_fit(tmp_path, monkeypatch, capsys, argv, error)


def test_verify_without_a_seed_takes_the_certificates_seed(tmp_path, monkeypatch, capsys):
    # it used to build the world of the config's seed 0
    seeds = []
    real = build_world
    monkeypatch.setattr("ctta.cli.build_world", lambda sc, **k: seeds.append(sc.seed) or real(sc, **k))
    assert main(_demo_argv("verify", tmp_path)) == 0
    assert seeds == [7]
    assert capsys.readouterr().out.startswith("verify: status=pass ")


_BAD_WEIGHTS = [
    (key, value, shown)
    for key in ("a", "alpha_std")
    for value, shown in ((math.nan, "nan"), (math.inf, "inf"), (-1, "-1"))
] + [(key, math.inf, "inf") for key in ("lr_domain", "lr_class", "init_scale")]


@pytest.mark.parametrize("key, value, shown", _BAD_WEIGHTS, ids=[f"{k}-{s}" for k, _, s in _BAD_WEIGHTS])
def test_non_finite_or_negative_weight_is_rejected_naming_its_key(key, value, shown, tmp_path, capsys):
    # loaded, such a weight would fail at batch 0 without naming its key
    config = write_config(tmp_path / "config.json", **{key: value})
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--stream", str(DEMO / "stream.csv"), "--seed", "7"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key} must be Real in [0, inf), got {shown}\n"
    assert not out.exists()


def test_sweep_rejects_a_nan_weight_before_any_point_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("ctta.cli.run_ctta", lambda *a, **k: calls.append(a))
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv")]
    argv += ["--seed", "7", "--out-dir", str(out), "--param", "a", "--values", "1.0,nan"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: a must be Real in [0, inf), got nan\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("key, value", [("softmax_over_all", False), ("class_update", "sequential")])
def test_removed_config_keys_are_unknown(key, value, tmp_path, capsys):
    config = write_config(tmp_path / "config.json", **{key: value})
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--stream", str(DEMO / "stream.csv"), "--seed", "7"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown config keys: [{key!r}]\n"
    assert not out.exists()


_REMOVED_FLAGS = [
    (command, flag, value)
    for command in ("gen-stream", "run", "verify", "sweep")
    for flag, value in (("--feature-dim", "8"), ("--class-mean-scale", "1.0"), ("--source-samples", "300"))
] + [("gen-stream", "--probe-batches", "20")]


@pytest.mark.parametrize("command, flag, value", _REMOVED_FLAGS)
def test_removed_world_flags_are_usage_errors(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--config", str(DEMO / "config.json"), "--seed", "7", flag, value]
    stream = ["--stream", str(DEMO / "stream.csv")]
    argv += {
        "gen-stream": ["--out", str(out)],
        "run": [*stream, "--out-dir", str(out)],
        "verify": [*stream, "--certificate", str(DEMO / "certificate.json")],
        "sweep": [*stream, "--out-dir", str(out), "--param", "gamma_h", "--values", "1.0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--step", "1e-5"), ("--tolerance", "1e-4")])
def test_removed_gradcheck_flags_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["--out", "--certificate", "--model-out"])
def test_gen_stream_with_an_unwritable_output_writes_nothing(bad, tmp_path, capsys):
    paths = {
        "--out": tmp_path / "stream.csv",
        "--certificate": tmp_path / "certificate.json",
        "--model-out": tmp_path / "model.json",
    }
    paths[bad] = tmp_path / "missing" / paths[bad].name
    argv = ["gen-stream", "--config", str(DEMO / "config.json"), "--seed", "7"]
    code = main(argv + [str(x) for flag, path in paths.items() for x in (flag, path)])
    assert code == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {paths[bad]}: not a file in an existing directory\n"
    )
    assert list(tmp_path.iterdir()) == []


# (command, output flag, the earlier flag whose file it names): an input's
# file, or one that another output names
_SAME_FILE = [
    ("run", "--model-out", "--stream"),
    ("run", "--model-out", "--config"),
    ("run", "--model-out", "--certificate"),
    ("gen-stream", "--out", "--config"),
    ("gen-stream", "--certificate", "--out"),
    ("gen-stream", "--model-out", "--out"),
    ("gen-stream", "--model-out", "--certificate"),
]


@pytest.mark.parametrize("spelling", ["dotted", "hard link"])
@pytest.mark.parametrize("command, flag, other", _SAME_FILE)
def test_an_output_naming_an_input_or_another_output_writes_nothing(
    command, flag, other, spelling, tmp_path, capsys
):
    # every named file exists, the outputs as on a rerun, so that a link to
    # the other flag's file can be made
    names = {
        "--config": "config.json",
        "--stream": "stream.csv",
        "--certificate": "certificate.json",
        "--out": "out.csv",
        "--model-out": "model.json",
    }
    flags = ["--config", "--stream" if command == "run" else "--out", "--certificate", "--model-out"]
    paths = {f: tmp_path / names[f] for f in flags}
    for f, path in paths.items():
        demo = DEMO / names[f]
        path.write_bytes(demo.read_bytes() if demo.exists() else b"kept")
    if spelling == "dotted":
        paths[flag] = f"{tmp_path}/./{names[other]}"
    else:
        paths[flag] = tmp_path / "link"
        paths[flag].hardlink_to(paths[other])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [command, "--seed", "7", *(x for f, path in paths.items() for x in (f, str(path)))]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {paths[flag]}: {flag} names the same file as {other}\n"
    )
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_gen_stream_with_every_output_on_one_new_file_writes_nothing(tmp_path, capsys):
    path = tmp_path / "s.csv"
    argv = ["gen-stream", "--config", str(DEMO / "config.json"), "--seed", "7"]
    argv += ["--out", str(path), "--certificate", str(path), "--model-out", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {path}: --certificate names the same file as --out\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_a_repeated_value_before_any_point_runs(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv")]
    argv += ["--seed", "7", "--out-dir", str(out), "--param", "gamma_h", "--values", "1.0,2.0,1.0"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --values repeats '1.0'\n")
    assert not out.exists()


def _tree(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_run_onto_its_own_stream_in_out_dir_writes_nothing(tmp_path, capsys):
    # the stream is the file that run's fixed metrics.csv would replace
    out = tmp_path / "out"
    out.mkdir()
    stream = out / "metrics.csv"
    stream.write_bytes((DEMO / "stream.csv").read_bytes())
    before = _tree(tmp_path)
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(stream), "--seed", "7"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {stream}: metrics.csv in --out-dir names the same file as --stream\n"
    )
    assert _tree(tmp_path) == before


def test_sweep_onto_its_own_stream_in_out_dir_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    stream = out / "metrics_n_d_4.csv"
    stream.write_bytes((DEMO / "stream.csv").read_bytes())
    before = _tree(tmp_path)
    argv = ["sweep", "--config", str(DEMO / "config.json"), "--stream", str(stream), "--seed", "7"]
    assert main(argv + ["--out-dir", str(out), "--param", "n_d", "--values", "4,5"]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {stream}: metrics_n_d_4.csv in --out-dir names the same file as --stream\n"
    )
    assert _tree(tmp_path) == before


def test_run_whose_fixed_output_is_a_directory_writes_no_model(tmp_path, capsys):
    out, model = tmp_path / "out", tmp_path / "m.json"
    (out / "summary.json").mkdir(parents=True)
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv")]
    argv += ["--seed", "7", "--out-dir", str(out), "--model-out", str(model)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {out / 'summary.json'}: summary.json in --out-dir is not a regular file\n"
    )
    assert _tree(tmp_path) == {"out": None, "out/summary.json": None}


def test_an_output_that_is_a_fifo_is_refused_not_replaced(tmp_path, capsys):
    # publishing replaces a file; a FIFO or device such as /dev/null would go
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = ["gen-stream", "--config", str(DEMO / "config.json"), "--seed", "7"]
    argv += ["--out", str(tmp_path / "s.csv"), "--certificate", str(tmp_path / "c.json")]
    argv += ["--model-out", str(fifo)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {fifo}: --model-out is not a regular file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"] and stat.S_ISFIFO(fifo.stat().st_mode)


def test_a_writer_failing_partway_leaves_every_file_as_it_was(tmp_path, monkeypatch, capsys):
    # a rerun into an existing output directory: the model and metrics.csv are
    # staged before summary.json's writer fails, and neither replaces its file
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv")]
    argv += ["--seed", "7", "--out-dir", str(tmp_path / "out"), "--model-out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    capsys.readouterr()
    for path in tmp_path.rglob("*.*"):
        path.write_bytes(b"kept")
    before = _tree(tmp_path)

    def full(doc, path, memo=None):
        Path(path).write_text("half")
        raise OSError("No space left on device")

    monkeypatch.setattr("ctta.cli._dump_json", full)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: No space left on device\n")
    assert _tree(tmp_path) == before


@pytest.fixture(scope="module")
def demo_run():
    """One real run of the demo stream, which the property below replays in
    place of ``run_ctta`` so that each case costs a setup and the writes."""
    hp_doc, sc_doc = load_config_file(DEMO / "config.json")
    world = build_world(StreamConfig.from_dict(dict(sc_doc, seed=7)))
    stream = read_stream(DEMO / "stream.csv")
    return run_ctta(world.model, stream, Hyperparams.from_dict(hp_doc), world.source_stats, rng=SeededRng(7))


def _disk_full(*args):
    raise OSError("disk full")


_DEMO_NAMES = {"--config": "config.json", "--stream": "stream.csv", "--certificate": "certificate.json"}
# every file a command writes in --out-dir for the demo inputs; the demo
# stream changes domain at batches 10, 20, 30, 40 and 50
_FIXED = {
    "run": ["metrics.csv", "summary.json"] + [
        f"pools_{kind}_{when}.json"
        for when in [*(f"boundary_{i}" for i in range(10, 60, 10)), "final"]
        for kind in ("class", "domain")
    ],
    "sweep": [
        f"{kind}_gamma_h_{v}.{ext}" for v in ("1.0", "2.0") for kind, ext in (("metrics", "csv"), ("summary", "json"))
    ],
}
_OUTPUT_FLAGS = {"gen-stream": ["--out", "--certificate", "--model-out"], "run": ["--model-out"], "sweep": []}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_command_writes_its_whole_plan_or_nothing(demo_run, data):
    # Layouts: each output flag names a fresh file, an existing file or
    # directory, a file in a missing directory, an input's file, another
    # output's file or (run) a fixed name in --out-dir, or --model-out is
    # unset. --out-dir is fresh, existing, a file or under a file; in an
    # existing one a few fixed names are files, directories or an input's
    # file. Half the cases draw only layouts that must be written. A drawn
    # writer may fail while staging.
    def replay(model, stream, hp, source_stats, *, rng, on_batch_start=None):
        for batch in stream:
            if on_batch_start is not None:
                on_batch_start(batch, demo_run.class_pool, demo_run.domain_pool)
        return demo_run

    command = data.draw(st.sampled_from(["gen-stream", "run", "sweep"]))
    writable = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out_dir, ok = root / "out", True
        inputs = {flag: root / name for flag, name in _DEMO_NAMES.items()}
        if command == "gen-stream":
            inputs = {"--config": inputs["--config"]}
        elif command == "sweep":
            del inputs["--certificate"]
        if command != "gen-stream":
            layouts = ["fresh", "existing", "file", "under file"]
            layout = data.draw(st.sampled_from(layouts[: 2 if writable else 4]))
            if layout == "file":
                out_dir.write_text("")
            elif layout == "under file":
                (root / "afile").write_text("")
                out_dir = root / "afile" / "out"
            elif layout == "existing":
                out_dir.mkdir()
                for name in data.draw(st.lists(st.sampled_from(_FIXED[command]), max_size=3, unique=True)):
                    states = ["file", "directory", "input"]
                    state = data.draw(st.sampled_from(states[: 1 if writable else 3]))
                    if state == "input":
                        inputs[data.draw(st.sampled_from(sorted(inputs)))] = out_dir / name
                    elif state == "file":
                        (out_dir / name).write_text("old")
                    else:
                        (out_dir / name).mkdir()
                    ok = ok and state == "file"
            ok = ok and layout in ("fresh", "existing")
        for flag, path in inputs.items():
            path.write_bytes((DEMO / _DEMO_NAMES[flag]).read_bytes())
        outputs = {}
        for flag in _OUTPUT_FLAGS[command]:
            kinds = ["fresh", "file", "directory", "no directory", "input", "output", "fixed"]
            kinds = kinds[: 2 if writable else 7 if command == "run" else 6]
            if flag == "--model-out":  # the one optional output
                kinds.insert(0, "unset")
            kind = data.draw(st.sampled_from(kinds))
            if kind == "unset":
                continue
            if kind == "output" and not outputs:
                kind = "fresh"
            ok = ok and kind in ("fresh", "file")
            if kind in ("input", "output"):
                path = data.draw(st.sampled_from(sorted((inputs if kind == "input" else outputs).values())))
            elif kind == "fixed":
                path = out_dir / data.draw(st.sampled_from(_FIXED["run"]))
            else:
                path = root / ("missing/" if kind == "no directory" else "") / f"{kind}{flag}"
            if kind == "file":
                path.write_text("old")
            elif kind == "directory":
                path.mkdir()
            outputs[flag] = path
        fail = data.draw(st.integers(0, 3)) == 0
        argv = [command, "--seed", "7", *(x for f, p in {**inputs, **outputs}.items() for x in (f, str(p)))]
        if command != "gen-stream":
            argv += ["--out-dir", str(out_dir)]
        if command == "sweep":
            argv += ["--param", "gamma_h", "--values", "1.0,2.0"]
        event(f"{command} {'writes' if ok and not fail else 'fails'}")
        before = _tree(root)
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
            mp.setattr("ctta.cli.run_ctta", replay)
            if fail:  # the first JSON file of every plan follows another entry
                mp.setattr("ctta.cli._dump_json", _disk_full)
            with contextlib.redirect_stderr(err):
                code = main(argv)
        after = _tree(root)
        if ok and not fail:
            assert (code, err.getvalue()) == (0, "")
            planned = {p.relative_to(root).as_posix() for p in outputs.values()}
            planned |= {(out_dir / name).relative_to(root).as_posix() for name in _FIXED.get(command, [])}
            assert planned <= {path for path, content in after.items() if content is not None}
            changed = {path for path in after if path not in before or after[path] != before[path]}
            assert changed <= planned | {"out"}
            assert set(before) <= set(after)
        else:
            assert code == 1
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
            assert after == before


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
