"""README drift: the configuration table, the flags and the package layout it
documents match the code."""
import argparse
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from ctta.cli import build_parser
from ctta.numerics import HYPERPARAMS
from ctta.stream import StreamConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# settings that were removed from the config and the CLI
REMOVED = [
    "softmax_over_all",
    "class_update",
    "--feature-dim",
    "--class-mean-scale",
    "--source-samples",
    "--probe-batches",
    "--step",
    "--tolerance",
    "compute_source_stats",
]


def _config_table_keys() -> set[str]:
    rows = README.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}


def _long_flags() -> set[str]:
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
        if flag.startswith("--")
    }


def test_readme_config_table_lists_every_config_key():
    keys = set(HYPERPARAMS) | {f.name for f in fields(StreamConfig)}
    assert keys - _config_table_keys() == set()


def test_readme_names_every_long_flag():
    flags = _long_flags()
    assert {"--config", "--noise-std", "--out", "--values"} <= flags
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", README)) == []


def test_readme_names_no_removed_setting():
    assert [name for name in REMOVED if name in README] == []


def test_the_package_root_holds_no_names_and_loads_no_module():
    # each name has one import path, its own module, so a patched module
    # attribute (ctta.harness.run_ctta) has no alias at the root
    code = (
        "import sys, ctta; "
        "print(sorted(m for m in sys.modules if m.startswith('ctta.')), "
        "sorted(n for n in vars(ctta) if not n.startswith('__')))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[] []\n"
