"""README drift: the configuration table and the flags it documents match the code."""
import argparse
import re
from dataclasses import fields
from pathlib import Path

from ctta.cli import build_parser
from ctta.numerics import HYPERPARAMS
from ctta.stream import StreamConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

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
