"""Timed loop, metric reduction and the result record of one benchmark run.

``measure`` sets a workload up several times, then repeats its set of work
in a closed loop (the next set starts when the previous one returned) until
the run's seconds are spent. With ``trace=False`` it reduces the run to the
end-to-end metrics; with ``trace=True`` it alternates untraced and traced
sets and reduces the traced ones to per-layer metrics.

Every timing is scaled to a reference host speed. The shared host this was
built on runs the whole process up to 1.8x slower for seconds to minutes at
a time. Before each set and each setup, and every 200 ms inside a run, the
benchmark times a fixed probe of small numpy calls and Python object work
(``probe.host_probe_us``), and multiplies each time by ``HOST_REF_US`` over
the latest reading. Unscaled figures stay in the run record.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from probe import HOST_REF_US, Probe, host_probe_us
from workloads import WORKLOADS

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "batch_p50_us": "us",
    "batch_p99_us": "us",
    "cpu_us_per_batch": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "overall_accuracy": "ratio",
    "success_ratio": "ratio",
}

# Per-layer metric -> (unit, span names it is computed from). A metric whose
# spans were not all found in the engine is reported as absent.
PER_LAYER = {
    "pools.fission_class_us": ("us", ["pools.fission_class"]),
    "pools.class_candidates_per_sample": ("count", ["pools.fission_class"]),
    "pools.class_match_ratio": ("ratio", ["pools.fission_class"]),
    "pools.fission_domain_us": ("us", ["pools.fission_domain"]),
    "pools.domain_match_ratio": ("ratio", ["pools.fission_domain"]),
    "pools.snapshot_us": ("us", ["pools.snapshot"]),
    "fusion.update_class_pool_us": ("us", ["fusion.update_class_pool"]),
    "fusion.class_rows_updated": ("count", ["fusion.update_class_pool"]),
    "fusion.gate_skip_ratio": ("ratio", ["fusion.update_class_pool"]),
    "fusion.update_class_pool_compacting_us": ("us", ["fusion.update_class_pool"]),
    "fusion.compactions": ("count", ["fusion.update_class_pool"]),
    "fusion.update_domain_pool_us": ("us", ["fusion.update_domain_pool"]),
    "fusion.domain_fusions": ("count", ["fusion.update_domain_pool"]),
    "objective.optimize_prompts_us": ("us", ["objective.optimize_prompts"]),
    "objective.adamw_steps": ("count", ["objective.adamw_step"]),
    "model.pseudo_labels_us": ("us", ["model.pseudo_labels"]),
    "model.key_stats_us": ("us", ["model.key_stats"]),
    "model.forward_us": ("us", ["model.forward"]),
    "harness.record_build_us": ("us", ["harness.record_build"]),
    "harness.step_self_us": ("us", []),
    "harness.ledger_us": ("us", ["harness.ledger"]),
    "stream.read_stream_us": ("us", ["stream.read_stream"]),
    "stream.make_separated_ms": ("ms", ["stream.make_separated"]),
    "stream.generate_stream_us": ("us", ["stream.generate_stream"]),
    "cli.write_outputs_ms": ("ms", ["cli.run_ctta"]),
    "trace.overhead_ratio": ("ratio", []),
}

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_TARGET_S = 2.0


class Phase:
    """The sets of one timed stretch: wall and CPU time, host speed, attempts, batch stamps."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.scales: list[float] = []  # HOST_REF_US over the host reading, time-weighted
        self.samples: list[int] = []
        self.batches: list[int] = []
        self.stamps: list[np.ndarray] = []  # host-scaled batch times, us
        self.raw_stamps: list[list[int]] = []
        self.attempts = []

    def samples_per_s(self) -> float:
        """Median over sets of samples per host-scaled second."""
        return statistics.median(
            n / (w * s) for n, w, s in zip(self.samples, self.walls, self.scales)
        )

    def cpu_us_per_batch(self) -> float:
        return statistics.median(
            1e6 * c * s / max(b, 1) for c, s, b in zip(self.cpus, self.scales, self.batches)
        )

    def batch_p50_us(self) -> float:
        return float(np.percentile(np.concatenate(self.stamps), 50))

    def batch_p99_us(self) -> float:
        return float(np.percentile(np.concatenate(self.stamps), 99))

    def unscaled(self) -> dict:
        stamps = np.concatenate([np.array(s, dtype=float) for s in self.raw_stamps]) / 1e3
        return {
            "samples_per_s": sum(self.samples) / sum(self.walls),
            "batch_p50_us": float(np.percentile(stamps, 50)),
            "batch_p99_us": float(np.percentile(stamps, 99)),
            "cpu_us_per_batch": 1e6 * sum(self.cpus) / max(sum(self.batches), 1),
        }


def _run_set(workload, state, phase: Phase, reference: list) -> None:
    """Read the host speed, then run, time and check one set."""
    probe = phase.probe
    probe.results.clear()
    probe.capacity_violations.clear()
    probe.host_us.clear()
    first_stamp = len(probe.batch_ns)
    probe.probe_host(rounds=4)
    probing0 = probe.host_probe_ns
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with probe:
        raw = workload.run_set(state, probe)
    # The in-loop host readings are the benchmark's own work, not the engine's.
    probing = (probe.host_probe_ns - probing0) / 1e9
    wall = time.perf_counter() - wall0 - probing
    cpu = time.process_time() - cpu0 - probing
    attempts = workload.inspect(raw)
    if probe.capacity_violations:
        attempts[0].problems.extend(probe.capacity_violations[:3])
    if not reference:
        reference.extend(a.digest for a in attempts)
    for a, digest in zip(attempts, reference):
        if a.digest and a.digest != digest:
            a.problems.append(f"output digest {a.digest[:12]} differs from warm-up set's {digest[:12]}")
    raw_ns = np.array(probe.batch_ns[first_stamp:], dtype=float)
    factors = HOST_REF_US / np.array(probe.batch_host_us[first_stamp:])
    phase.scales.append(
        float((raw_ns * factors).sum() / raw_ns.sum()) if raw_ns.size
        else HOST_REF_US / probe.current_host_us()
    )
    phase.stamps.append(raw_ns * factors / 1e3)
    phase.raw_stamps.append(probe.batch_ns[first_stamp:])
    phase.walls.append(wall)
    phase.cpus.append(cpu)
    phase.samples.append(sum(a.samples for a in attempts))
    phase.batches.append(sum(a.batches for a in attempts))
    phase.attempts.extend(attempts)


def _run_phases(
    workload, state, seconds: float, warmup: Phase, phases: list[Phase]
) -> list[str]:
    """Closed loop: after one untimed warm-up set, sets run back to back,
    cycling through ``phases``, until another round would overrun
    ``seconds``. Interleaving the traced and untraced phases exposes both to
    the same drift of a shared host. Returns the output digests of the
    warm-up set, one per attempt, which every later set must reproduce."""
    reference: list[str] = []
    _run_set(workload, state, warmup, reference)
    start = time.perf_counter()
    rounds = 0
    while True:
        for phase in phases:
            _run_set(workload, state, phase, reference)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return reference


def _setup(workload, seed: int, workdir: Path) -> tuple[dict, list[float], list[float]]:
    """Set up repeatedly; returns the last state, the scaled and the raw setup times."""
    scaled: list[float] = []
    raw: list[float] = []
    host_probe_us(rounds=1)  # the first call pays numpy's and json's own warm-up
    while len(raw) < SETUP_MIN_REPEATS or (
        len(raw) < SETUP_MAX_REPEATS and sum(raw) < SETUP_TARGET_S
    ):
        host = host_probe_us(rounds=4)
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * HOST_REF_US / host)
    return state, scaled, raw


def end_to_end(
    phase: Phase, setup_s: list[float], errors: list[float], attempted: int, failed: int
) -> dict:
    values = {
        "samples_per_s": phase.samples_per_s(),
        "batch_p50_us": phase.batch_p50_us(),
        "batch_p99_us": phase.batch_p99_us(),
        "cpu_us_per_batch": phase.cpu_us_per_batch(),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "overall_accuracy": 1.0 - statistics.fmean(errors) if errors else 0.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced: Phase, untraced: Phase) -> dict:
    """Stage times (scaled by the traced sets' median host probe) and counts."""
    probe = traced.probe
    calls, total, self_time = probe.span_totals()
    counts = probe.counts
    sets = len(traced.walls)
    batches = calls["harness.batch"]
    scale = statistics.median(traced.scales)
    total = Counter({name: ns * scale for name, ns in total.items()})
    self_time = Counter({name: ns * scale for name, ns in self_time.items()})
    counts["compacting_ns"] *= scale
    counts["write_outputs_ns"] *= scale

    def div(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us_per_call(name: str) -> float:
        return div(total[name] / 1e3, calls[name])

    def us_per_batch(name: str) -> float:
        return div(total[name] / 1e3, batches)

    values = {
        "pools.fission_class_us": us_per_call("pools.fission_class"),
        "pools.class_candidates_per_sample": div(counts["class_candidates"], counts["class_samples"]),
        "pools.class_match_ratio": div(counts["class_matched"], counts["class_samples"]),
        "pools.fission_domain_us": us_per_call("pools.fission_domain"),
        "pools.domain_match_ratio": div(counts["domain_matched"], counts["domain_queries"]),
        "pools.snapshot_us": us_per_call("pools.snapshot"),
        "fusion.update_class_pool_us": us_per_call("fusion.update_class_pool"),
        "fusion.class_rows_updated": div(
            counts["class_rows_updated"], calls["fusion.update_class_pool"]
        ),
        "fusion.gate_skip_ratio": div(counts["class_skipped"], counts["class_records"]),
        "fusion.update_class_pool_compacting_us": div(
            counts["compacting_ns"] / 1e3, counts["compactions"]
        ),
        "fusion.compactions": counts["compactions"] / sets,
        "fusion.update_domain_pool_us": us_per_call("fusion.update_domain_pool"),
        "fusion.domain_fusions": counts["domain_fusions"] / sets,
        "objective.optimize_prompts_us": us_per_call("objective.optimize_prompts"),
        "objective.adamw_steps": div(counts["objective.adamw_step"], batches),
        "model.pseudo_labels_us": us_per_call("model.pseudo_labels"),
        "model.key_stats_us": us_per_call("model.key_stats"),
        "model.forward_us": us_per_call("model.forward"),
        "harness.record_build_us": us_per_batch("harness.record_build"),
        "harness.step_self_us": div(self_time["harness.batch"] / 1e3, batches),
        "harness.ledger_us": us_per_batch("harness.ledger"),
        "stream.read_stream_us": div(total["stream.read_stream"] / 1e3, counts["batches_read"]),
        "stream.make_separated_ms": us_per_call("stream.make_separated") / 1e3,
        "stream.generate_stream_us": us_per_call("stream.generate_stream"),
        "cli.write_outputs_ms": div(counts["write_outputs_ns"] / 1e6, counts["cli_runs"]),
        "trace.overhead_ratio": untraced.samples_per_s() / traced.samples_per_s(),
    }
    out = {}
    for name, (unit, spans) in PER_LAYER.items():
        if any(s in probe.absent for s in spans):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs_dir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_revision(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; "unknown" outside one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": _git_revision(root),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the record kept beside it."""
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        state, setup_s, raw_setup_s = _setup(workload, seed, workdir)
        warmup = Phase(Probe(False))
        phases = [Phase(Probe(False))] + ([Phase(Probe(True))] if trace else [])
        digests = _run_phases(workload, state, seconds, warmup, phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempts = [a for p in [warmup, *phases] for a in p.attempts]
    errors = [e for a in warmup.attempts for e in a.batch_errors]
    failed = sum(1 for a in attempts if a.problems)
    if trace:
        metrics = per_layer(phases[1], phases[0])
    else:
        metrics = end_to_end(phases[0], setup_s, errors, len(attempts), failed)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sets": [len(p.walls) for p in [warmup, *phases]],
        "batches": sum(sum(p.batches) for p in [warmup, *phases]),
        "overall_error": statistics.fmean(errors) if errors else None,
        "failed_ratio": failed / len(attempts),
        "output_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "unscaled": dict(phases[0].unscaled(), setup_s=statistics.median(raw_setup_s)),
        "host_scale": statistics.median(s for p in phases for s in p.scales),
        "absent_layers": sorted(set().union(*(p.probe.absent for p in phases))),
        "problems": [p for a in attempts for p in a.problems][:20],
        "environment": environment(root, seed),
        "sets_detail": {
            "wall_s": [p.walls for p in [warmup, *phases]],
            "cpu_s": [p.cpus for p in [warmup, *phases]],
            "host_scale": [p.scales for p in [warmup, *phases]],
            "samples": [p.samples for p in [warmup, *phases]],
            "setup_s": raw_setup_s,
            "batch_ns": phases[0].raw_stamps,
            "batch_us_scaled": [s.tolist() for s in phases[0].stamps],
        },
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (out_root / f"{stem}.json").write_text(
        json.dumps(dict(record, result=result), indent=2) + "\n", encoding="utf-8"
    )
    if trace:
        phases[1].probe.write_spans(out_root / f"{stem}.spans.tsv")
    return result, record


def main_for(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    result, record = measure(WORKLOADS[workload_name], seed, seconds, trace, root)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("environment", "sets_detail")}))
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
