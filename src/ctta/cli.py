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
import sys
import warnings
from array import array
from dataclasses import fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .harness import (
    Hyperparams,
    build_world,
    gradient_check,
    run_ctta,
    verify_lemmas,
)
from .model import save_model
from .numerics import HYPERPARAMS, SeededRng, check_param
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
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    stream_keys = {f.name for f in fields(StreamConfig)}
    unknown = set(doc) - set(HYPERPARAMS) - stream_keys
    if unknown:
        raise ValueError(f"unknown config keys rejected: {sorted(unknown)}")
    hp_doc = {k: v for k, v in doc.items() if k in HYPERPARAMS}
    sc_doc = {k: v for k, v in doc.items() if k in stream_keys}
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
    parser.add_argument("--feature-dim", type=int, default=None)
    parser.add_argument("--class-mean-scale", type=float, default=1.0)
    parser.add_argument("--source-samples", type=int, default=300)


def _setup(args, *, adapt: bool = True) -> tuple:
    """The one start of ``gen-stream``, ``run``, ``verify`` and ``sweep``.

    Loads the config, lets ``--seed`` override its seed and builds the world.
    A command that adapts over a stream also loads its certificate, takes
    ``gamma_d`` from the config, else half the certificate's theta, builds
    the Hyperparams and reads a non-empty stream.
    Returns (stream config, world, hyperparameter doc, Hyperparams,
    certificate, stream), the last three None when not adapting.
    """
    hp_doc, sc_doc = load_config_file(args.config)
    if args.seed is not None:
        sc_doc["seed"] = args.seed
    sc = StreamConfig.from_dict(sc_doc)
    certificate = hp = stream = None
    if adapt:
        if args.certificate:
            with open(args.certificate, encoding="utf-8") as fh:
                certificate = SeparationCertificate.from_dict(json.load(fh))
        if "gamma_d" not in hp_doc and certificate is not None:
            hp_doc["gamma_d"] = certificate.theta / 2.0
        hp = Hyperparams.from_dict(hp_doc)
    world = build_world(
        sc,
        feature_dim=args.feature_dim,
        noise_std=args.noise_std,
        class_mean_scale=args.class_mean_scale,
        source_samples=args.source_samples,
    )
    if adapt:
        stream = read_stream(args.stream)
        if not stream:
            raise ValueError(f"stream {args.stream} contains no batches")
    return sc, world, hp_doc, hp, certificate, stream


def cmd_gen_stream(args) -> int:
    check_param("shift_scale", args.shift_scale)
    sc, world, *_ = _setup(args, adapt=False)
    rng = SeededRng(sc.seed)
    n_domains = len(set(sc.domain_order))
    if sorted(set(sc.domain_order)) != list(range(n_domains)):
        raise ValueError("domain_order ids must be 0..N-1")

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
            probe_batches=args.probe_batches,
        )
    else:
        dirs = rng.child(2).normal(size=(n_domains - 1, sc.input_dim))
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
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
    write_stream(batches, args.out)
    print(f"wrote {len(batches)} batches to {args.out}")
    if certificate is not None:
        _dump_json(certificate.to_dict(), args.certificate)
        print(
            f"certificate: theta={certificate.theta:g} "
            f"max_intra={certificate.max_intra:.6g} min_inter={certificate.min_inter:.6g}"
        )
    if args.model_out:
        save_model(world.model, args.model_out, seed=sc.seed)
    return 0


def cmd_run(args) -> int:
    sc, world, _, hp, _, stream = _setup(args)
    # each boundary keeps copies of the pool arrays; JSON is laid out at the end
    boundaries: list[tuple[int, ClassPromptPool, DomainPromptPool]] = []
    prev_domain: list[int | None] = [None]

    def on_batch_start(batch, class_pool, domain_pool):
        if prev_domain[0] is not None and batch.domain_id != prev_domain[0]:
            pools = copy.deepcopy((class_pool, domain_pool))
            boundaries.append((batch.batch_index, *pools))
        prev_domain[0] = batch.domain_id

    result = run_ctta(
        world.model,
        stream,
        hp,
        world.source_stats,
        rng=SeededRng(sc.seed).child(4),
        on_batch_start=on_batch_start,
    )
    # a run whose adaptation fails writes nothing
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(result.metrics.to_csv(), encoding="utf-8")
    _dump_json(result.metrics.summary(), out / "summary.json")
    # fusion merges rows and leaves most of them as they were, so each pool's
    # snapshots are written in batch order, each reusing its predecessor's rows
    class_memo: dict = {}
    domain_memo: dict = {}
    for idx, class_pool, domain_pool in boundaries:
        _dump_json(class_pool.to_dict(), out / f"pools_class_boundary_{idx}.json", class_memo)
        _dump_json(domain_pool.to_dict(), out / f"pools_domain_boundary_{idx}.json", domain_memo)
    _dump_json(result.class_pool.to_dict(), out / "pools_class_final.json", class_memo)
    _dump_json(result.domain_pool.to_dict(), out / "pools_domain_final.json", domain_memo)
    if args.model_out:
        save_model(world.model, args.model_out, seed=sc.seed)
    print(
        f"ran {len(stream)} batches: overall error "
        f"{result.metrics.overall_error():.4f}, outputs in {out}"
    )
    return 0


def cmd_verify(args) -> int:
    sc, world, _, hp, certificate, stream = _setup(args)
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
    result = gradient_check(
        args.num_configs, step=args.step, tolerance=args.tolerance, seed=args.seed
    )
    print(
        f"gradcheck: {len(result.rel_errors)} configs, "
        f"max relative error {result.max_rel_error:.3e} "
        f"(tolerance {result.tolerance:g})"
    )
    return 0 if result.passed else 1


_FLAG_SPELLINGS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False}


def _sweep_value(name: str, raw: str):
    """Parse one ``--values`` item as the type ``HYPERPARAMS`` gives ``name``."""
    kind = HYPERPARAMS[name][0]
    if kind is not bool:
        convert = {numbers.Real: float, numbers.Integral: int, str: str}[kind]
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"{name} takes {convert.__name__} values, got {raw!r}") from None
    if raw not in _FLAG_SPELLINGS:
        raise ValueError(f"{name} takes 1/true/True or 0/false/False, got {raw!r}")
    return _FLAG_SPELLINGS[raw]


def cmd_sweep(args) -> int:
    if args.param not in HYPERPARAMS:
        raise ValueError(f"unknown hyperparameter {args.param!r}")
    sc, world, hp_doc, _, _, stream = _setup(args)
    points = [
        (raw, Hyperparams.from_dict({**hp_doc, args.param: _sweep_value(args.param, raw)}))
        for raw in args.values.split(",")
    ]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for raw, hp in points:
        result = run_ctta(
            world.model, stream, hp, world.source_stats, rng=SeededRng(sc.seed).child(4)
        )
        tag = f"{args.param}_{raw}"
        (out / f"metrics_{tag}.csv").write_text(result.metrics.to_csv(), encoding="utf-8")
        _dump_json(result.metrics.summary(), out / f"summary_{tag}.json")
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
    p.add_argument("--probe-batches", type=int, default=20)
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
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
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
