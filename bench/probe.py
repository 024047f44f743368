"""Instrumentation installed from outside the engine.

``Probe`` replaces module-level names that the engine's callers look up at
call time (``ctta.harness.fission_domain``, ``ctta.cli.run_ctta``, ...) with
wrappers, and puts the originals back on exit. The engine is never edited.

Two things are recorded:

- always: a timestamp at every ``on_batch_start`` (chained onto the caller's
  own callback through the ``run_ctta`` wrappers), the pool-capacity check at
  each of them, a host-speed reading every 200 ms (its time is left out of
  the batch times), and the ``RunResult`` of every run;
- with ``trace=True``: a span (name, start, end, parent, batch id) around
  each wrapped call plus one span per batch, and counts taken from the
  wrapped calls' results. Spans stay in memory until ``write_spans``.

A wrapped name that no longer exists is reported in ``absent`` instead of
failing, so renames inside the engine show up as missing layers.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

import numpy as np

_now = time.perf_counter_ns

# (owner, attribute, span name). Names the engine calls through its own module
# globals are wrapped where they are looked up, so the engine's calls land here.
SPANNED = [
    ("ctta.harness", "pseudo_labels", "model.pseudo_labels"),
    ("ctta.harness", "key_stats", "model.key_stats"),
    ("ctta.harness", "forward", "model.forward"),
    ("ctta.harness", "fission_class_batch", "pools.fission_class"),
    ("ctta.harness", "fission_domain", "pools.fission_domain"),
    ("ctta.harness", "optimize_prompts", "objective.optimize_prompts"),
    ("ctta.harness", "ClassUpdateRecord", "harness.record_build"),
    ("ctta.harness", "update_class_pool", "fusion.update_class_pool"),
    ("ctta.harness", "update_domain_pool", "fusion.update_domain_pool"),
    ("ctta.harness.ClusterLedger", "on_fission_outcome", "harness.ledger"),
    ("ctta.harness.ClusterLedger", "on_domain_update", "harness.ledger"),
    ("ctta.pools.ClassPromptPool", "to_dict", "pools.snapshot"),
    ("ctta.pools.DomainPromptPool", "to_dict", "pools.snapshot"),
    ("ctta.cli", "read_stream", "stream.read_stream"),
    ("ctta.cli", "make_separated", "stream.make_separated"),
    ("ctta.cli", "generate_stream", "stream.generate_stream"),
    ("ctta.stream", "make_separated", "stream.make_separated"),
    ("ctta.stream", "generate_stream", "stream.generate_stream"),
]
COUNTED = [("ctta.objective", "adamw_step", "objective.adamw_step")]
# The run loops: always wrapped, because the batch stamps come from them.
RUN_LOOPS = [
    ("ctta.harness", "run_ctta", "harness.run_ctta"),
    ("ctta.cli", "run_ctta", "cli.run_ctta"),
]
BATCH = "harness.batch"
HOST_PROBE_EVERY_NS = 200_000_000
# About host_probe_us() per round on an idle 2-vCPU Xeon host with Python 3.11
# and numpy 2.4; only ratios between runs matter, so any fixed value would do.
HOST_REF_US = 650.0


def host_probe_us(rounds: int) -> float:
    """Time per round of a fixed mix of small numpy calls and Python object
    work, the median of three tries. The host this benchmark was built on
    slows the whole process by up to 1.8x for seconds to minutes; timings are
    scaled by ``HOST_REF_US`` over this reading to cancel that."""
    rng = np.random.default_rng(0)
    small, square = rng.normal(size=(16, 8)), rng.normal(size=(64, 64))
    doc = {f"k{i}": list(range(i % 17)) for i in range(300)}
    times = []
    for _ in range(3):
        start = _now()
        for _ in range(rounds):
            for _ in range(20):
                float((small @ small.T).sum())
            np.sort(square @ square, axis=1)
            sorted(json.loads(json.dumps(doc)).items(), key=lambda kv: -len(kv[1]))
        times.append((_now() - start) / rounds)
    return statistics.median(times) / 1e3


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute chain; None if gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


NAME, START, END, PARENT, BATCH_ID = range(5)


class Probe:
    """Batch stamps and output captures, plus spans and counts when tracing."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.batch_ns: list[int] = []  # time from one batch start to the next
        self.batch_host_us: list[float] = []  # host speed reading each batch ran under
        self.host_us: list[float] = []  # every host probe reading, in order
        self.host_probe_ns = 0  # time spent probing the host, not the engine
        self._host_probed_at = 0
        self.capacity_violations: list[str] = []
        self.results: list = []  # RunResult of every run, in call order
        self.run_returned_ns: int | None = None  # when the last run loop returned
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._batch_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- host speed -----------------------------------------------------------

    def probe_host(self, rounds: int) -> int:
        """Read the host speed; returns the clock after the probe."""
        start = _now()
        self.host_us.append(host_probe_us(rounds))
        end = _now()
        self.host_probe_ns += end - start
        self._host_probed_at = end
        return end

    def current_host_us(self) -> float:
        """Median of the last three readings, so one stalled probe does not count."""
        return statistics.median(self.host_us[-3:])

    def _close_batch(self, ns: int) -> None:
        self.batch_ns.append(ns)
        self.batch_host_us.append(self.current_host_us())

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Probe":
        for owner, attr, name in RUN_LOOPS:
            self._install(owner, attr, name, self._run_loop_wrapper)
        if self.trace:
            for owner, attr, name in SPANNED:
                self._install(owner, attr, name, self._span_wrapper)
            for owner, attr, name in COUNTED:
                self._install(owner, attr, name, self._count_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _install(self, owner_path: str, attr: str, name: str, make_wrapper) -> None:
        owner = _resolve(owner_path)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.add(name)
            return
        # Class attributes are read from __dict__ so that a plain function
        # comes back as one (not as a bound method) when restored.
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr, orig)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, make_wrapper(orig, name))

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, start: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, 0, parent, self._batch_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_to(self, idx: int, end: int) -> None:
        """Close every open span down to and including ``idx``."""
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = end
            if top == idx:
                return

    def _span_wrapper(self, orig, name):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name, _now())
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close_to(idx, _now())
            if after is not None:
                span = self.spans[idx]
                after(self, args, kwargs, result, span[END] - span[START])
            return result

        return wrapper

    def _count_wrapper(self, orig, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    # -- run loops and batch stamps ------------------------------------------

    def _run_loop_wrapper(self, orig, name):
        def wrapper(*args, **kwargs):
            inner = kwargs.get("on_batch_start")
            last = [None]

            def on_batch_start(batch, class_pool, domain_pool):
                now = _now()
                if last[0] is not None:
                    self._close_batch(now - last[0])
                if self.trace and self._stack and self.spans[self._stack[-1]][NAME] == BATCH:
                    self._close_to(self._stack[-1], now)
                if now - self._host_probed_at >= HOST_PROBE_EVERY_NS:
                    now = self.probe_host(rounds=1)
                last[0] = now
                if self.trace:
                    self._batch_id += 1
                    self._open(BATCH, now)
                for pool in (class_pool, domain_pool):
                    if len(pool) > pool.capacity:
                        self.capacity_violations.append(
                            f"batch {batch.batch_index}: {type(pool).__name__} holds "
                            f"{len(pool)} entries, capacity {pool.capacity}"
                        )
                if inner is not None:
                    inner(batch, class_pool, domain_pool)

            kwargs["on_batch_start"] = on_batch_start
            idx = self._open(name, _now()) if self.trace else None
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _now()
                if last[0] is not None:
                    self._close_batch(end - last[0])
                if idx is not None:
                    self._close_to(idx, end)
                self.run_returned_ns = end
            self.results.append(result)
            return result

        return wrapper

    # -- reporting ------------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total duration and total self time (ns)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: list[int] = [0] * len(self.spans)
        for span in self.spans:
            dur = span[END] - span[START]
            calls[span[NAME]] += 1
            total[span[NAME]] += dur
            if span[PARENT] >= 0:
                child[span[PARENT]] += dur
        self_time: Counter = Counter()
        for i, span in enumerate(self.spans):
            self_time[span[NAME]] += span[END] - span[START] - child[i]
        return calls, total, self_time

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tbatch\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


# Counts read off the results of wrapped calls, named after the metric they feed.


def _after_fission_class(probe, args, kwargs, outcomes, dur):
    probe.counts["class_samples"] += len(outcomes)
    for o in outcomes:
        if not o.fissioned:
            probe.counts["class_matched"] += 1
            probe.counts["class_candidates"] += len(o.weights)


def _after_fission_domain(probe, args, kwargs, outcome, dur):
    probe.counts["domain_queries"] += 1
    probe.counts["domain_matched"] += int(not outcome.fissioned)


def _after_update_class(probe, args, kwargs, summary, dur):
    records = args[1] if len(args) > 1 else kwargs["records"]
    probe.counts["class_records"] += len(records)
    probe.counts["class_skipped"] += len(summary.skipped)
    probe.counts["class_rows_updated"] += len(summary.updated)
    if summary.compaction is not None:
        probe.counts["compactions"] += 1
        probe.counts["compacting_ns"] += dur


def _after_update_domain(probe, args, kwargs, summary, dur):
    probe.counts["domain_fusions"] += int(summary.fused_pair is not None)


def _after_read_stream(probe, args, kwargs, batches, dur):
    probe.counts["batches_read"] += len(batches)


_AFTER = {
    "pools.fission_class": _after_fission_class,
    "pools.fission_domain": _after_fission_domain,
    "fusion.update_class_pool": _after_update_class,
    "fusion.update_domain_pool": _after_update_domain,
    "stream.read_stream": _after_read_stream,
}
