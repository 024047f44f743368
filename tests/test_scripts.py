"""Smoke tests: the experiment scripts run in process and print their summaries."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        pytest.fail(f"{name} exited with {exc.code}")
    return capsys.readouterr().out


def test_shift_recovery_prints_final_residual(monkeypatch, capsys):
    out = run_script("shift_recovery.py", ["--batches", "12", "--k-steps", "5"], monkeypatch, capsys)
    assert "source error" in out
    assert "final residual ratio" in out and "last-10-batch error" in out


def test_repeating_domains_prints_per_round_error(monkeypatch, capsys):
    out = run_script(
        "repeating_domains.py",
        ["--domains", "2", "--rounds", "2", "--batches-per-domain", "4"],
        monkeypatch,
        capsys,
    )
    assert "certified 2 domains" in out
    assert "round 1:" in out and "rounds 2-2:" in out


def test_mutant_catalogue_texts_each_occur_exactly_once():
    # a mutant whose text has moved or doubled would no longer test anything
    catalogue = runpy.run_path(str(SCRIPTS / "mutants.py"))["CATALOGUE"]
    root = SCRIPTS.parent
    for name, (file, old, new, why) in catalogue.items():
        assert old != new and why, name
        assert (root / file).read_text().count(old) == 1, name
