"""Command-line front end: stream generation, adaptation runs, verification.

Subcommands: ``gen-stream`` (config to stream CSV plus certificate JSON),
``run`` (stream plus config to metrics CSV, summary JSON, pool snapshots),
``verify`` (certified stream to cluster-correctness verdict), ``gradcheck``
(analytic-vs-finite-difference report), ``sweep`` (one metrics file per grid
point of any hyperparameter). Exit codes: 0 success, 1 runtime failure or
failed check, 2 usage error. Errors print as ``error: <message>`` and
warnings as ``warning: <message>``, both on stderr.
"""
from __future__ import annotations

import argparse
import copy
import json
import numbers
import os
import secrets
import stat
import sys
import warnings
from array import array
from dataclasses import fields, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .harness import (
    Hyperparams,
    build_world,
    gradient_check,
    run_ctta,
    verify_lemmas,
)
from .model import save_model
from .numerics import HYPERPARAMS, SeededRng, check_keys, check_param, row_norms
from .pools import ClassPromptPool, DomainPromptPool
from .stream import (
    DomainSpec,
    SeparationCertificate,
    StreamConfig,
    generate_stream,
    make_separated,
    read_stream,
    write_stream,
)

def load_config_file(path) -> tuple[dict, dict]:
    """Split a config JSON into hyperparameter and stream-config dicts."""
    stream_keys = [f.name for f in fields(StreamConfig)]
    with open(path, encoding="utf-8") as fh:
        doc = check_keys(json.load(fh), "config", [*HYPERPARAMS, *stream_keys], ())
    hp_doc = {k: v for k, v in doc.items() if k in HYPERPARAMS}
    sc_doc = {k: v for k, v in doc.items() if k not in HYPERPARAMS}
    return hp_doc, sc_doc


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_FLOATS = frozenset({float})


@lru_cache(maxsize=None)
def _list_encoder(indent: str):
    # without an indent json runs its C encoder, which takes any item separator
    return json.JSONEncoder(separators=("," + indent, ": ")).encode


def _layout(value, newline: str, out: list[str], prev: dict, rows: dict) -> None:
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        opener = "{"
        for key in sorted(value):
            out.append(f"{opener}{inner}{encode_basestring_ascii(key)}: ")
            _layout(value[key], inner, out, prev, rows)
            opener = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        types = set(map(type, value))
        if types <= _JSON_SCALARS:
            # equal float64 bits print equally; the bytes keep -0.0 apart from
            # 0.0, and a list with any non-float item is never reused
            key = (inner, array("d", value).tobytes()) if types == _FLOATS else None
            text = prev.get(key)
            if text is None:
                # one C call writes the items and their separators as json would
                text = f"[{inner}{_list_encoder(inner)(value)[1:-1]}{newline}]"
            if key is not None:
                rows[key] = text
            out.append(text)
            return
        opener = "["
        for item in value:
            out.append(opener + inner)
            _layout(item, inner, out, prev, rows)
            opener = ","
        out.append(newline + "]")
    elif type(value) is int:
        # every snapshot entry has a counter; json.dumps takes ~15x longer
        out.append(repr(value))
    else:
        out.append(json.dumps(value))


def _json_text(doc, memo: dict | None = None) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` for documents with str
    keys. With an indent json runs its pure-Python encoder; this lays out the
    containers itself and encodes each list of scalars in one C call.

    ``memo`` carries float-list text from one document to the next: a list
    of floats whose bits and indent equal one of the previous document's is
    copied, not encoded again. On return it holds this document's float lists
    only, so consecutive snapshots of one pool share it."""
    out: list[str] = []
    rows: dict = {}
    _layout(doc, "\n", out, memo or {}, rows)
    if memo is not None:
        memo.clear()
        memo.update(rows)
    return "".join(out)


def _dump_json(doc: dict, path, memo: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc, memo) + "\n")


def _setup_args(parser: argparse.ArgumentParser, *, adapt: bool = True, seed_required: bool = True):
    """The flags ``_setup`` reads, apart from a command's own certificate."""
    parser.add_argument("--config", required=True)
    if adapt:
        parser.add_argument("--stream", required=True)
    parser.add_argument("--seed", type=int, required=seed_required, default=None)
    parser.add_argument("--noise-std", type=float, default=0.4)


def _setup(args, *, adapt: bool = True) -> tuple:
    """The one start of ``gen-stream``, ``run``, ``verify`` and ``sweep``.

    Loads the config and lets ``--seed`` override its seed. A command that
    adapts over a stream also loads its certificate, whose seed is the default
    of ``--seed`` and must equal the run's; takes ``gamma_d`` from the config,
    else half the certificate's theta; builds the Hyperparams; and reads a
    non-empty stream, which must fit the config (``_check_stream``). The
    command builds the world once its output plan is checked.
    Returns (stream config, hyperparameter doc, Hyperparams, certificate,
    stream, the ``(flag, path)`` of each file read), the Hyperparams,
    certificate and stream None when not adapting.
    """
    hp_doc, sc_doc = load_config_file(args.config)
    inputs = [("--config", args.config)]
    if args.seed is not None:
        sc_doc["seed"] = args.seed
    sc = StreamConfig.from_dict(sc_doc)
    certificate = hp = stream = None
    if adapt:
        if args.certificate:
            with open(args.certificate, encoding="utf-8") as fh:
                certificate = SeparationCertificate.from_dict(json.load(fh))
            if args.seed is None:
                sc = replace(sc, seed=certificate.seed)
            if certificate.seed != sc.seed:
                seeds = f"seed {certificate.seed}, not at the run's seed {sc.seed}"
                raise ValueError(f"certificate {args.certificate} was measured at {seeds}")
        if "gamma_d" not in hp_doc and certificate is not None:
            hp_doc["gamma_d"] = certificate.theta / 2.0
        hp = Hyperparams.from_dict(hp_doc)
        stream = read_stream(args.stream)
        if not stream:
            raise ValueError(f"stream {args.stream} contains no batches")
        _check_stream(stream, sc, args.stream)
        inputs += [("--stream", args.stream), ("--certificate", args.certificate)]
    return sc, hp_doc, hp, certificate, stream, inputs


def _check_stream(stream, sc: StreamConfig, path) -> None:
    """The stream at ``path`` must have the config's ``input_dim`` features
    and class ids in ``[0, num_classes)``; errors name its first batch at fault."""
    for batch in stream:
        ids, width = batch.class_ids, batch.samples.shape[1]
        outside = ids[(ids < 0) | (ids >= sc.num_classes)]
        if width != sc.input_dim:
            fault = f"{width} features, the config's input_dim is {sc.input_dim}"
        elif outside.size:
            fault = f"class id {outside[0]}, outside [0, {sc.num_classes})"
        else:
            continue
        raise ValueError(f"stream {path}: batch {batch.batch_index} has {fault}")


def _file_key(path) -> tuple:
    """``(key, mode)`` of ``path``. An existing file is known by its inode, so
    that links and other spellings of its path match; a file yet to be
    written is known by its real path, with mode None."""
    try:
        st = os.stat(path)
    except OSError:
        return Path(path).resolve(), None
    return (st.st_dev, st.st_ino), st.st_mode


def _in_out_dir(out_dir, name: str, write) -> tuple:
    """The plan entry of the fixed file ``name`` in ``--out-dir``."""
    return f"{name} in --out-dir", Path(out_dir) / name, write


def _run_files(out_dir, suffix: str, result_of) -> list:
    """The plan entries of one run's ``metrics<suffix>.csv`` and
    ``summary<suffix>.json`` in ``--out-dir``, written from ``result_of()``."""
    csv = lambda path: Path(path).write_text(result_of().metrics.to_csv(), encoding="utf-8")
    summary = lambda path: _dump_json(result_of().metrics.summary(), path)
    return [
        _in_out_dir(out_dir, f"metrics{suffix}.csv", csv),
        _in_out_dir(out_dir, f"summary{suffix}.json", summary),
    ]


def _check_plan(plan, inputs, out_dir=None) -> None:
    """Check a command's output plan, ``(label, path, writer)`` entries, once
    its inputs are read. ``out_dir`` must be a directory or one that can be made.
    Each path must name a new or regular file in an existing directory or in
    ``out_dir``: publishing replaces it, which must not befall a directory, a
    device or a FIFO. Nor may it be the file of an input, ``(flag, path or
    None)``, or of an earlier entry."""
    if out_dir is not None:
        found = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
        if not found.is_dir():
            raise ValueError(f"cannot make {out_dir}: {found} is not a directory")
    named = {_file_key(path)[0]: flag for flag, path in reversed(inputs) if path}
    for label, path, _ in plan:
        key, mode = _file_key(path)
        home = Path(path).parent
        if mode is not None and not stat.S_ISREG(mode):
            raise ValueError(f"cannot write {path}: {label} is not a regular file")
        if mode is None and not (home.is_dir() or out_dir is not None and home == Path(out_dir)):
            raise ValueError(f"cannot write {path}: not a file in an existing directory")
        if key in named:
            raise ValueError(f"cannot write {path}: {label} names the same file as {named[key]}")
        named[key] = label


def _publish(plan) -> None:
    """Write a checked plan. Each writer fills a temporary file in the nearest
    existing directory above its destination, so on the same filesystem; only
    then is each file's directory made (only ``--out-dir`` can be missing) and
    the file moved into place whole, in plan order. On any failure every
    staged file is removed."""
    staged = []
    try:
        for _, path, write in plan:
            home = next(p for p in Path(path).parents if p.is_dir())
            staged.append(home / f".{Path(path).name}.{secrets.token_hex(8)}.tmp")
            write(staged[-1])
        for (_, path, _), tmp in zip(plan, staged):
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise


def cmd_gen_stream(args) -> int:
    check_param("shift_scale", args.shift_scale)
    sc, *_, inputs = _setup(args, adapt=False)
    n_domains = len(set(sc.domain_order))
    if sorted(set(sc.domain_order)) != list(range(n_domains)):
        raise ValueError("domain_order ids must be 0..N-1")
    # the writers run in _publish, after the draws that bind what they write
    plan = [("--out", args.out, lambda path: write_stream(batches, path))]
    if sc.theta is not None:  # without a theta no certificate is written
        plan.append(("--certificate", args.certificate, lambda path: _dump_json(certificate.to_dict(), path)))
    if args.model_out:
        plan.append(("--model-out", args.model_out, lambda path: save_model(world.model, path, seed=sc.seed)))
    _check_plan(plan, inputs)
    world = build_world(sc, noise_std=args.noise_std)
    rng = SeededRng(sc.seed)
    certificate = None
    if sc.theta is not None:
        specs, certificate = make_separated(
            sc,
            n_domains,
            sc.theta,
            world.model,
            rng.child(2),
            noise_std=args.noise_std,
            class_means=world.class_means,
        )
    else:
        dirs = rng.child(2).normal(size=(n_domains - 1, sc.input_dim))
        dirs = dirs / row_norms(dirs, keepdims=True)
        specs = [world.source_spec] + [
            DomainSpec(
                i + 1,
                args.shift_scale * dirs[i],
                world.class_means,
                args.noise_std,
            )
            for i in range(n_domains - 1)
        ]
    batches = generate_stream(sc, specs, rng.child(3))
    _publish(plan)
    print(f"wrote {len(batches)} batches to {args.out}")
    if certificate is not None:
        print(
            f"certificate: theta={certificate.theta:g} "
            f"max_intra={certificate.max_intra:.6g} min_inter={certificate.min_inter:.6g}"
        )
    return 0


def cmd_run(args) -> int:
    sc, _, hp, _, stream, inputs = _setup(args)
    # both pools are copied before each batch that starts a new domain
    starts = {b.batch_index for a, b in zip(stream, stream[1:]) if b.domain_id != a.domain_id}
    pools: dict[str, tuple[ClassPromptPool, DomainPromptPool]] = {}

    def on_batch_start(batch, class_pool, domain_pool):
        if batch.batch_index in starts:
            pools[f"boundary_{batch.batch_index}"] = copy.deepcopy((class_pool, domain_pool))

    # the writers run in _publish, after the run that binds result
    plan = []
    if args.model_out:
        plan.append(("--model-out", args.model_out, lambda path: save_model(world.model, path, seed=sc.seed)))
    plan += _run_files(args.out_dir, "", lambda: result)
    # fusion merges rows and leaves most of them as they were, so each pool's
    # snapshots are written in batch order, each reusing its predecessor's rows
    memos = ({}, {})
    for when in [*(f"boundary_{i}" for i in sorted(starts)), "final"]:
        for i, kind in enumerate(("class", "domain")):
            write = lambda path, when=when, i=i: _dump_json(pools[when][i].to_dict(), path, memos[i])
            plan.append(_in_out_dir(args.out_dir, f"pools_{kind}_{when}.json", write))
    _check_plan(plan, inputs, args.out_dir)
    world = build_world(sc, noise_std=args.noise_std)
    result = run_ctta(
        world.model,
        stream,
        hp,
        world.source_stats,
        rng=SeededRng(sc.seed).child(4),
        on_batch_start=on_batch_start,
    )
    pools["final"] = (result.class_pool, result.domain_pool)
    _publish(plan)
    print(
        f"ran {len(stream)} batches: overall error "
        f"{result.metrics.overall_error():.4f}, outputs in {Path(args.out_dir)}"
    )
    return 0


def cmd_verify(args) -> int:
    sc, _, hp, certificate, stream, _ = _setup(args)
    world = build_world(sc, noise_std=args.noise_std)
    report = verify_lemmas(
        stream, certificate, hp, world.model, world.source_stats, rng=SeededRng(sc.seed).child(4)
    )
    print(
        f"verify: status={report.status} batches={report.num_batches} "
        f"domains={report.num_domains}"
    )
    for issue in report.hypothesis_issues:
        print(f"  hypothesis: {issue}")
    for v in report.violations:
        print(f"  violation: {v}")
    return 0 if report.passed else 1


def cmd_gradcheck(args) -> int:
    result = gradient_check(args.num_configs, seed=args.seed)
    print(
        f"gradcheck: {len(result.rel_errors)} configs, "
        f"max relative error {result.max_rel_error:.3e} "
        f"(tolerance {result.tolerance:g})"
    )
    return 0 if result.passed else 1


def _sweep_value(name: str, raw: str):
    """Parse one ``--values`` item as the type ``HYPERPARAMS`` gives ``name``."""
    convert = {numbers.Real: float, numbers.Integral: int}[HYPERPARAMS[name][0]]
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"{name} takes {convert.__name__} values, got {raw!r}") from None


def cmd_sweep(args) -> int:
    if args.param not in HYPERPARAMS:
        raise ValueError(f"unknown hyperparameter {args.param!r}")
    raws = args.values.split(",")
    for i, raw in enumerate(raws):
        if raw in raws[:i]:
            raise ValueError(f"--values repeats {raw!r}")
    sc, hp_doc, _, _, stream, inputs = _setup(args)
    points = {
        f"{args.param}_{raw}": Hyperparams.from_dict({**hp_doc, args.param: _sweep_value(args.param, raw)})
        for raw in raws
    }
    # the writers run in _publish, after every point has run
    results = {}
    plan = [e for tag in points for e in _run_files(args.out_dir, f"_{tag}", lambda tag=tag: results[tag])]
    _check_plan(plan, inputs, args.out_dir)
    world = build_world(sc, noise_std=args.noise_std)
    for tag, hp in points.items():
        results[tag] = run_ctta(world.model, stream, hp, world.source_stats, rng=SeededRng(sc.seed).child(4))
    _publish(plan)
    for tag, result in results.items():
        print(f"{tag}: overall error {result.metrics.overall_error():.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctta", description="streaming test-time adaptation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-stream", help="generate a stream CSV (plus certificate when theta is set)")
    _setup_args(p, adapt=False)
    p.add_argument("--out", required=True)
    p.add_argument("--certificate", default="certificate.json")
    p.add_argument("--shift-scale", type=float, default=2.0)
    p.add_argument("--model-out", default=None)
    p.set_defaults(func=cmd_gen_stream)

    p = sub.add_parser("run", help="adapt over a stream file and write metrics")
    _setup_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--certificate", default=None)
    p.add_argument("--model-out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check cluster correctness on a certified stream")
    _setup_args(p, seed_required=False)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="analytic gradient vs central finite differences")
    p.add_argument("--num-configs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid over one hyperparameter, one metrics file per point")
    _setup_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=cmd_sweep, certificate=None)
    return parser


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the caller's warning display comes back on return
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
