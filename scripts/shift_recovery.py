#!/usr/bin/env python3
"""Shift-recovery experiment: a single shifted domain, tracked batch by batch.

The stream applies one additive input shift sized relative to the source
feature spread. The learned domain prompt should converge to the negative
shift; the printout tracks the residual ratio and the rolling error.
"""
import argparse

import numpy as np

from ctta.harness import Hyperparams, build_world, run_ctta
from ctta.model import draw_labeled_samples, pseudo_labels
from ctta.numerics import SeededRng
from ctta.stream import DomainSpec, StreamConfig, generate_stream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batches", type=int, default=40)
    ap.add_argument("--k-steps", type=int, default=50)
    ap.add_argument("--shift-multiple", type=float, default=5.0, help="shift norm in units of the source feature std")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = StreamConfig(
        domain_order=(1,),
        batches_per_domain=args.batches,
        batch_size=16,
        input_dim=8,
        num_classes=3,
        seed=args.seed,
    )
    world = build_world(cfg)
    rng = SeededRng(cfg.seed)
    direction = rng.child(2).normal(size=cfg.input_dim)
    delta = (
        direction
        / np.linalg.norm(world.model.extractor @ direction)
        * args.shift_multiple
        * np.linalg.norm(world.source_stats.sigma)
    )
    spec = DomainSpec(1, delta, np.ones(cfg.input_dim), world.class_means, world.noise_std)
    stream = generate_stream(cfg, [spec], rng.child(3))

    hp = Hyperparams(k_steps=args.k_steps)
    prompt_trace = []

    def track(batch, class_pool, domain_pool):
        if len(domain_pool):
            prompt_trace.append(domain_pool.prompts[0].copy())

    result = run_ctta(
        world.model, stream, hp, world.source_stats, rng=rng.child(4), on_batch_start=track
    )
    prompt_trace.append(result.domain_pool.prompts[0].copy())

    xs, ys = draw_labeled_samples(world.class_means, 4000, world.noise_std, rng.child(9))
    source_err = float(np.mean(pseudo_labels(world.model, xs).argmax(1) != ys))
    print(f"|delta| = {np.linalg.norm(delta):.3f}, source error = {source_err:.4f}")
    print(f"{'batch':>5} {'error':>7} {'|P+delta|/|delta|':>18}")
    errors = [r.error_rate for r in result.metrics.rows]
    for i in range(0, len(errors), max(1, len(errors) // 10)):
        p = prompt_trace[min(i, len(prompt_trace) - 1)]
        ratio = np.linalg.norm(p + delta) / np.linalg.norm(delta)
        print(f"{i:>5} {errors[i]:>7.3f} {ratio:>18.4f}")
    final = result.domain_pool.prompts[0]
    print(
        f"final residual ratio {np.linalg.norm(final + delta) / np.linalg.norm(delta):.4f}, "
        f"last-10-batch error {float(np.mean(errors[-10:])):.4f}"
    )


if __name__ == "__main__":
    main()
