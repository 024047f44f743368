"""The benchmark's workloads: seeded inputs, one repeatable set of work, output checks.

A workload builds its inputs from the seed in ``setup``, then ``run_set``
performs one fixed set of work through the engine's public entry points. The
caller times ``run_set`` and repeats it; every repeat of a set does identical
work, so its outputs (and their digest) must repeat byte for byte. ``inspect``
checks one set's outputs after the instrumentation is removed.

Why each workload exists:

- ``lemma``: a slice of the criterion-1 lemma sweep, the acceptance gate
  closest to its time budget. Small pools that go cold every 60-180 batches;
  class-pool bookkeeping dominates a step and compaction never runs.
- ``adapt-k10``: demo geometry with 10 AdamW steps per batch, through the
  CLI. The objective-heavy case, with small pools and the CLI read/write path.
- ``saturate``: d=32, C=10, b=64 with a class threshold high enough that the
  class pool overflows on nearly every batch and a domain threshold below the
  noise. Both pools are write-bound: class compaction and domain fission on
  nearly every batch.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import ctta.cli
import ctta.harness
import ctta.stream
from ctta.numerics import SeededRng

_SNAPSHOT_FILES = ("pools_class_final.json", "pools_domain_final.json")


@dataclass
class Attempt:
    """One stream or run: what it processed and what its output checks found."""

    batches: int = 0
    samples: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    batch_errors: list[float] = field(default_factory=list)


def _json_bytes(doc: dict) -> bytes:
    # The layout ``ctta run`` uses for its JSON outputs.
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def check_outputs(
    metrics_csv: str, summary: dict, input_dim: int, *, saturating: bool
) -> tuple[list[str], list[float]]:
    """Checks shared by every workload; returns problems and per-batch error rates."""
    problems = []
    errors = []
    rows = list(csv.DictReader(io.StringIO(metrics_csv)))
    if len(rows) != summary.get("num_batches"):
        problems.append(f"metrics has {len(rows)} rows, summary says {summary.get('num_batches')}")
    for row in rows:
        values = [float(row[k]) for k in ("error_rate", "mean_entropy", "loss_d", "loss_c")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"batch {row['batch_idx']}: non-finite metric {values}")
        expected = (int(row["pool_d_size"]) + int(row["pool_c_size"])) * input_dim
        if int(row["param_count"]) != expected:
            problems.append(
                f"batch {row['batch_idx']}: param_count {row['param_count']} != {expected}"
            )
        errors.append(values[0])
    if not math.isfinite(summary.get("overall_error", math.nan)):
        problems.append("summary overall_error is not finite")

    # Workload self-checks: a workload that stops doing what it was chosen for fails.
    n = max(len(rows), 1)
    compactions = summary["total_fusions"]["class"]
    domain_fissions = summary["total_fissions"]["domain"]
    if saturating:
        if compactions < 0.9 * n:
            problems.append(f"self-check: only {compactions} of {n} batches compacted")
        if domain_fissions < 0.9 * n:
            problems.append(f"self-check: only {domain_fissions} of {n} batches fissioned a domain")
    elif compactions != 0:
        problems.append(f"self-check: {compactions} class compactions, expected none")
    return problems, errors


@dataclass(frozen=True)
class LemmaWorkload:
    """Certified streams with n = 2..6 domains cycling, each checked by ``verify_lemmas``.

    Geometry and hyperparameters are those of acceptance criterion 1: 30
    batches per domain, d=8, C=3, b=16, theta=4, gamma_d=theta/2, n_d=n+3.
    """

    name: str = "lemma"
    streams_per_set: int = 10
    batches_per_domain: int = 30
    theta: float = 4.0
    noise_std: float = 0.4

    def _config(self, n: int, seed: int):
        return ctta.stream.StreamConfig(
            domain_order=tuple(range(n)),
            batches_per_domain=self.batches_per_domain,
            batch_size=16,
            input_dim=8,
            num_classes=3,
            seed=seed,
            theta=self.theta,
        )

    def setup(self, seed: int, workdir: Path) -> dict:
        worlds = {
            n: ctta.harness.build_world(self._config(n, 1000 * seed + n), noise_std=self.noise_std)
            for n in range(2, 7)
        }
        return {"seed": seed, "worlds": worlds}

    def run_set(self, state: dict, probe) -> list:
        """Generate and verify each stream; returns (stream length, report or exception)."""
        out = []
        for k in range(self.streams_per_set):
            n = 2 + k % 5
            world = state["worlds"][n]
            stream_seed = 1000 * state["seed"] + 100 + k
            cfg = self._config(n, stream_seed)
            rng = SeededRng(stream_seed)
            runs_before = len(probe.results)
            try:
                specs, cert = ctta.stream.make_separated(
                    cfg, n, self.theta, world.model, rng.child(2),
                    noise_std=self.noise_std, class_means=world.class_means,
                )
                stream = ctta.stream.generate_stream(cfg, specs, rng.child(3))
                hp = ctta.harness.Hyperparams(gamma_d=cert.theta / 2, n_d=n + 3)
                report = ctta.harness.verify_lemmas(
                    stream, cert, hp, world.model, world.source_stats, rng=rng.child(4)
                )
                result = probe.results[-1] if len(probe.results) > runs_before else None
                out.append((len(stream), report, result))
            except Exception as exc:  # noqa: BLE001 - a failed stream is counted, not fatal
                out.append((0, exc, None))
        return out

    def inspect(self, raw: list) -> list[Attempt]:
        attempts = []
        for num_batches, report, result in raw:
            if isinstance(report, Exception):
                attempts.append(Attempt(problems=[f"raised {report!r}"]))
                continue
            if report.status != "pass" or result is None:
                issues = (report.hypothesis_issues + report.violations)[:3]
                attempts.append(Attempt(problems=[f"lemma report {report.status}: {issues}"]))
                continue
            csv_text = report.metrics.to_csv()
            summary = report.metrics.summary()
            problems, errors = check_outputs(csv_text, summary, 8, saturating=False)
            digest = hashlib.sha256(csv_text.encode())
            digest.update(_json_bytes(summary))
            digest.update(_json_bytes(result.class_pool.to_dict()))
            digest.update(_json_bytes(result.domain_pool.to_dict()))
            attempts.append(
                Attempt(num_batches, 16 * num_batches, problems, digest.hexdigest(), errors)
            )
        return attempts


@dataclass(frozen=True)
class CliWorkload:
    """One long stream made by ``ctta gen-stream`` and adapted by ``ctta run``, in process."""

    name: str
    config: dict
    domains: int
    rounds: int
    world_args: tuple[str, ...] = ()
    certified: bool = False
    saturating: bool = False

    def _paths(self, workdir: Path) -> dict:
        return {
            "config": workdir / "config.json",
            "stream": workdir / "stream.csv",
            "certificate": workdir / "certificate.json",
            "out": workdir / "out",
        }

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return ctta.cli.main(argv)

    def setup(self, seed: int, workdir: Path) -> dict:
        paths = self._paths(workdir)
        config = dict(self.config, domain_order=list(range(self.domains)) * self.rounds)
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        argv = [
            "gen-stream", "--config", str(paths["config"]), "--seed", str(seed),
            "--out", str(paths["stream"]), "--certificate", str(paths["certificate"]),
            *self.world_args,
        ]
        if self._main(argv) != 0:
            raise RuntimeError(f"ctta {' '.join(argv)} failed")
        return {"seed": seed, "paths": paths}

    def run_set(self, state: dict, probe) -> list:
        paths = state["paths"]
        argv = [
            "run", "--config", str(paths["config"]), "--stream", str(paths["stream"]),
            "--seed", str(state["seed"]), "--out-dir", str(paths["out"]), *self.world_args,
        ]
        if self.certified:
            argv += ["--certificate", str(paths["certificate"])]
        code = self._main(argv)
        if probe.trace and probe.run_returned_ns is not None:
            probe.counts["write_outputs_ns"] += time.perf_counter_ns() - probe.run_returned_ns
            probe.counts["cli_runs"] += 1
        return [(code, paths["out"])]

    def inspect(self, raw: list) -> list[Attempt]:
        attempts = []
        for code, out in raw:
            if code != 0:
                attempts.append(Attempt(problems=[f"ctta run exited {code}"]))
                continue
            csv_bytes = (out / "metrics.csv").read_bytes()
            summary_bytes = (out / "summary.json").read_bytes()
            summary = json.loads(summary_bytes)
            problems, errors = check_outputs(
                csv_bytes.decode(), summary, self.config["input_dim"], saturating=self.saturating
            )
            digest = hashlib.sha256(csv_bytes + summary_bytes)
            for name in _SNAPSHOT_FILES:
                digest.update((out / name).read_bytes())
            batches = len(errors)
            attempts.append(
                Attempt(
                    batches, batches * self.config["batch_size"], problems,
                    digest.hexdigest(), errors,
                )
            )
        return attempts


WORKLOADS = {
    w.name: w
    for w in (
        LemmaWorkload(),
        CliWorkload(
            name="adapt-k10",
            config={
                "batches_per_domain": 10, "batch_size": 16, "input_dim": 8,
                "num_classes": 3, "theta": 4.0, "n_d": 6, "k_steps": 10,
            },
            domains=3,
            rounds=10,
            certified=True,
        ),
        CliWorkload(
            name="saturate",
            config={
                "batches_per_domain": 3, "batch_size": 64, "input_dim": 32,
                "num_classes": 10, "gamma_c": 0.95, "n_c": 100, "gamma_d": 1.0,
                "n_d": 20, "k_steps": 1,
            },
            domains=5,
            rounds=10,
            world_args=("--noise-std", "1.5"),
            saturating=True,
        ),
    )
}
