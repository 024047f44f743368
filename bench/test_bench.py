"""Tests of the benchmark itself: its description file, its result line, and a
tiny run of every workload. No timing is asserted.

    PYTHONPATH=src python3 -m pytest -q bench
"""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Small enough to run in seconds, large enough that every layer is exercised
# and the saturate self-checks still hold: its first five batches fill the
# class pool without compacting, so it needs 60 batches to reach 90%.
TINY = {
    "lemma": dict(streams_per_set=2, batches_per_domain=5),
    "adapt-k10": dict(rounds=1),
    "saturate": dict(rounds=4),
}


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    all_names = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in all_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in measure.PER_LAYER.items()
    }
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _check_result(result: dict, trace: bool):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float), (m["name"], got)
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    result, record = measure.measure(workload, seed=3, seconds=0.01, trace=trace, root=tmp_path)
    _check_result(result, trace)
    assert record["problems"] == [] and record["absent_layers"] == []
    assert re.fullmatch(r"[0-9a-f]{64}", record["output_sha256"])
    stem = tmp_path / ".bench_out" / f"{name}-seed3-trace{int(trace)}"
    assert json.loads(stem.with_name(stem.name + ".json").read_text())["result"] == result
    if trace:
        header = stem.with_name(stem.name + ".spans.tsv").read_text().splitlines()[0]
        assert header == "name\tstart_ns\tend_ns\tparent\tbatch"


def test_tiny_run_outputs_repeat_per_seed(tmp_path):
    workload = dataclasses.replace(WORKLOADS["adapt-k10"], **TINY["adapt-k10"])
    _, first = measure.measure(workload, seed=5, seconds=0.01, trace=False, root=tmp_path)
    _, again = measure.measure(workload, seed=5, seconds=0.01, trace=False, root=tmp_path)
    _, other = measure.measure(workload, seed=6, seconds=0.01, trace=False, root=tmp_path)
    assert first["output_sha256"] == again["output_sha256"] != other["output_sha256"]


def test_self_check_fails_a_workload_that_stops_compacting(tmp_path):
    calm = dataclasses.replace(
        WORKLOADS["saturate"], rounds=2, config=dict(WORKLOADS["saturate"].config, gamma_c=0.005)
    )
    result, record = measure.measure(calm, seed=3, seconds=0.01, trace=False, root=tmp_path)
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert any("self-check" in p for p in record["problems"])


def test_missing_engine_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemma", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_renamed_engine_name_is_reported_absent(tmp_path, monkeypatch):
    import probe

    spanned = [
        (owner, "renamed_fission_domain" if attr == "fission_domain" else attr, name)
        for owner, attr, name in probe.SPANNED
    ]
    monkeypatch.setattr(probe, "SPANNED", spanned)
    workload = dataclasses.replace(WORKLOADS["lemma"], **TINY["lemma"])
    result, record = measure.measure(workload, seed=3, seconds=0.01, trace=True, root=tmp_path)
    assert result["correct"] is True
    assert record["absent_layers"] == ["pools.fission_domain"]
    for name in ("pools.fission_domain_us", "pools.domain_match_ratio"):
        assert result["metrics"][name] == {"value": None, "unit": SPEC_UNITS[name], "absent": True}
    assert isinstance(result["metrics"]["pools.fission_class_us"]["value"], float)
