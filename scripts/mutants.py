"""Mutation catalogue: how many hand-made faults the tier-1 suite catches.

Each catalogue entry names a file, an exact text that occurs once in it, the
text that replaces it, and why the fault matters. For every entry the script
copies the checkout into a temporary directory, applies that one mutant, runs
the tier-1 suite there with ``-x`` under a timeout, and records whether the
suite killed it (a test failed), let it survive (every test passed) or timed
out, with the first failing test and the wall time. The results go to a JSON
file. Standard library only; a full pass takes minutes, one suite run per
entry, so it is not part of tier-1 (tests/test_scripts.py only checks that
every ``old`` text still occurs exactly once, and a mutant's suite run
leaves that test out: each mutant removes its own ``old`` text, so the test
would kill every mutant the rest of the suite lets survive). A timed-out run
is neither killed nor survived: the summary counts the three apart.

    python scripts/mutants.py --out mutants.json
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0  # seconds per suite run, several times a full tier-1 pass
OCCURS_ONCE = "tests/test_scripts.py::test_mutant_catalogue_texts_each_occur_exactly_once"

# name: (file, old, new, why)
CATALOGUE: dict[str, tuple[str, str, str, str]] = {
    "merge-created-at-max": (
        "src/ctta/fusion.py",
        "np.minimum.reduceat(pool.created_at[members], starts)",
        "np.maximum.reduceat(pool.created_at[members], starts)",
        "a merged row keeps its group's earliest created_at",
    ),
    "adamw-eps": (
        "src/ctta/objective.py",
        "BETA1, BETA2, EPS = 0.9, 0.999, 1e-8",
        "BETA1, BETA2, EPS = 0.9, 0.999, 1e-7",
        "AdamW's epsilon is fixed at 1e-8",
    ),
    "objective-sigma-guard-ge": (
        "src/ctta/objective.py",
        "where=sigma > 0.0)",
        "where=sigma >= 0.0)",
        "the alignment gradient skips features of zero spread",
    ),
    "kruskal-unstable-sort": (
        "src/ctta/fusion.py",
        'edges = edges[weights[edges].argsort(kind="stable")]',
        'edges = edges[weights[edges].argsort(kind="quicksort")]',
        "Kruskal visits tied edges in (i, j) order",
    ),
    "metrics-fissioned-c-any": (
        "src/ctta/harness.py",
        "fissioned_c=int(class_outcome.fissioned.sum()),",
        "fissioned_c=int(class_outcome.fissioned.any()),",
        "metrics count every class fission of the batch",
    ),
    "class-match-ge-gamma-c": (
        "src/ctta/pools.py",
        "sims > hp.gamma_c,",
        "sims >= hp.gamma_c,",
        "class candidates lie strictly above gamma_c",
    ),
    "domain-match-le-gamma-d": (
        "src/ctta/pools.py",
        "dists < hp.gamma_d,",
        "dists <= hp.gamma_d,",
        "domain candidates lie strictly below gamma_d",
    ),
    "gate-ties-skip": (
        "src/ctta/fusion.py",
        "gated, fissioned_rows = ent > hp.gamma_h, outcome.fissioned",
        "gated, fissioned_rows = ent >= hp.gamma_h, outcome.fissioned",
        "the gate skips samples strictly above gamma_h",
    ),
    "compaction-no-clip": (
        "src/ctta/fusion.py",
        "1.0 - np.clip((normed @ normed.T)[upper_triangle(n)], -1.0, 1.0)",
        "1.0 - (normed @ normed.T)[upper_triangle(n)]",
        "a Gram entry that rounds above 1 is a zero distance, not a negative one",
    ),
    "fusion-tie-last-min": (
        "src/ctta/fusion.py",
        "e = int(weights.argmin())",
        "e = weights.size - 1 - int(weights[::-1].argmin())",
        "an n - 1 group merge takes the first of tied lightest edges",
    ),
    "class-step-no-renormalise": (
        "src/ctta/fusion.py",
        "step_keys /= np.add.reduce(step_keys, 1, keepdims=True)",
        "pass",
        "each class step renormalises its keys to sum 1",
    ),
    "compaction-no-renormalise": (
        "src/ctta/fusion.py",
        "    pool.keys /= np.add.reduce(pool.keys, 1, keepdims=True)\n",
        "",
        "merged class keys are renormalised to sum 1",
    ),
    "blend-keep-on-input": (
        "src/ctta/fusion.py",
        "inp, keep = coef * inputs, 1.0 - coef",
        "inp, keep = (1.0 - coef) * inputs, coef",
        "a blend moves a row toward its input by the coefficient, not away",
    ),
    "domain-blend-alpha-c": (
        "src/ctta/fusion.py",
        "_blend_rows(pool, idx, hp.alpha_d,",
        "_blend_rows(pool, idx, hp.alpha_c,",
        "domain keys blend at alpha_d",
    ),
    "class-steps-out-of-sample-order": (
        "src/ctta/fusion.py",
        "by_row = pos.argsort(kind=\"stable\")",
        "by_row = pos.argsort(kind=\"stable\")[::-1]",
        "each row meets its samples in sample order",
    ),
    "softmax-no-shift": (
        "src/ctta/numerics.py",
        "shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)",
        "shifted = logits",
        "the row softmax subtracts the row max before exp",
    ),
    "stream-shift-scale": (
        "src/ctta/stream.py",
        "scale = 3.0 * theta_target / min_gap",
        "scale = 2.0 * theta_target / min_gap",
        "certified shifts put the closest domain pair 3 theta apart",
    ),
    "check-outcome-newer-only": (
        "src/ctta/fusion.py",
        "if outcome.pool_version != pool.version:",
        "if outcome.pool_version > pool.version:",
        "an outcome computed before the pool last changed is stale",
    ),
    "fused-pair-reversed": (
        "src/ctta/fusion.py",
        "summary.fused_pair = (groups[j], j)",
        "summary.fused_pair = (j, groups[j])",
        "the fused pair names the surviving row first",
    ),
    "ledger-first-visit-unchecked": (
        "src/ctta/harness.py",
        "if first and not outcome.fissioned[0]:",
        "if not first and not outcome.fissioned[0]:",
        "a domain's first batch must fission",
    ),
    "ledger-drops-surviving-row": (
        "src/ctta/harness.py",
        "del self.entry_labels[j]",
        "del self.entry_labels[i]",
        "the ledger drops the row that fusion removed",
    ),
    "error-rate-counts-hits": (
        "src/ctta/harness.py",
        "np.count_nonzero(predicted != batch.class_ids)",
        "np.count_nonzero(predicted == batch.class_ids)",
        "the error rate counts wrong predictions",
    ),
    "moments-sample-std": (
        "src/ctta/numerics.py",
        "np.sqrt(np.add.reduce(centered ** 2, 0) / b)",
        "np.sqrt(np.add.reduce(centered ** 2, 0) / (b - 1))",
        "batch statistics use the population spread",
    ),
    "fresh-prompt-scale": (
        "src/ctta/pools.py",
        "* hp.init_scale",
        "* 2.0 * hp.init_scale",
        "a fissioned sample draws its fresh prompt at init_scale",
    ),
    "head-bias-sign": (
        "src/ctta/model.py",
        "features @ model.head_weight.T + model.head_bias",
        "features @ model.head_weight.T - model.head_bias",
        "the frozen head adds its bias",
    ),
    "stream-csv-8-digits": (
        "src/ctta/stream.py",
        'row_format = ",".join(["%.9g"] * dim)',
        'row_format = ",".join(["%.8g"] * dim)',
        "a stream CSV writes 9 significant digits",
    ),
    "stream-reader-reads-comments": (
        "src/ctta/stream.py",
        'comments=None, delimiter=",", ndmin=1,',
        'delimiter=",", ndmin=1,',
        "a '#' in a stream field is a character, as the line parser reads it",
    ),
    "stream-reader-row-count-unchecked": (
        "src/ctta/stream.py",
        "len(table) != len(data)",
        "len(table) < 0",
        "a blank data line is refused, not skipped",
    ),
    "stream-reader-one-row-batches": (
        "src/ctta/stream.py",
        "min(np.diff(bounds)) < 2",
        "min(np.diff(bounds)) < 1",
        "a batch of one row is refused",
    ),
    "stream-reader-descending-index": (
        "src/ctta/stream.py",
        "(index[1:] < index[:-1]).any()",
        "False",
        "batch indices ascend",
    ),
    "stream-reader-domain-change": (
        "src/ctta/stream.py",
        "(domain[1:] != domain[:-1])[same].any()",
        "False",
        "a batch has one domain",
    ),
    "stream-reader-nonfinite": (
        "src/ctta/stream.py",
        'or not all_finite(table["x"])',
        "or False",
        "a non-finite sample is refused",
    ),
    "stream-reader-separators": (
        "src/ctta/stream.py",
        'if any(sep in text for sep in "\\x1c\\x1d\\x1e\\x1f"):',
        "if False:",
        "an information separator in a field is refused, not stripped as whitespace",
    ),
    "stream-reader-warning-shown": (
        "src/ctta/stream.py",
        '            warnings.simplefilter("error")\n',
        "",
        "the reader emits only its two documented warnings",
    ),
    "cli-snapshot-aliases-live-pools": (
        "src/ctta/cli.py",
        "copy.deepcopy((class_pool, domain_pool))",
        "(class_pool, domain_pool)",
        "a boundary snapshot holds the pools as they were at that batch",
    ),
}


def tier1(root: Path) -> tuple[str, str | None, float]:
    """Run tier-1 with -x in ``root``: (status, first failing test, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
        "--deselect", OCCURS_ONCE,
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", None, seconds
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"exit {proc.returncode}", seconds


def run() -> list[dict]:
    results = []
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
    for name, (file, old, new, why) in CATALOGUE.items():
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = Path(tmp) / "repo"
            shutil.copytree(ROOT, copy, ignore=ignore)
            text = (copy / file).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: old text occurs {text.count(old)} times in {file}")
            (copy / file).write_text(text.replace(old, new))
            status, first, seconds = tier1(copy)
        results.append({"name": name, "file": file, "why": why, "status": status,
                        "first_failure": first, "seconds": round(seconds, 1)})
        print(f"{status:9} {seconds:6.1f}s  {name}  {first or ''}", flush=True)
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="mutants.json", help="JSON results file")
    args = parser.parse_args(argv)
    results = run()
    totals = {status: sum(r["status"] == status for r in results) for status in ("killed", "survived", "timeout")}
    Path(args.out).write_text(json.dumps({**totals, "total": len(results), "results": results}, indent=2) + "\n")
    print(f"killed {totals['killed']}, survived {totals['survived']}, timed out {totals['timeout']} of {len(results)}")


if __name__ == "__main__":
    main()
