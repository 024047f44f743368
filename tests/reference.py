"""Independent reference oracles used to check the engine.

These deliberately re-derive results by the most literal route available:
plain loops over the published matching and update rules, naive
agglomerative single linkage, a Kruskal that sorts Python edge tuples,
two-pass statistics, exhaustive pair scans, one ``format`` call per
written float.
They share only array coercion and arithmetic with the implementation under
test. The vector softmax, entropy, cosine and Euclidean distance below are
the textbook formulas the engine's batched forms are checked against.
"""
from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from ctta.numerics import Vector, as_array


def softmax(logits) -> Vector:
    """Numerically stable softmax of a logit vector (max-subtraction trick)."""
    x = as_array(logits, (None,), "logits")
    if x.shape[0] < 1:
        raise ValueError("softmax needs dimension >= 1")
    shifted = x - x.max()
    e = np.exp(shifted)
    return e / e.sum()


def entropy(probs) -> float:
    """Shannon entropy -sum(p ln p) in nats, with 0 ln 0 taken as 0."""
    p = as_array(probs, (None,), "probs")
    if np.any(p < 0.0):
        raise ValueError("entropy requires nonnegative entries")
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"entropy requires entries summing to 1, got {total}")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def cosine_sim(a, b) -> float:
    """Cosine similarity, clipped into [-1, 1]; undefined for zero-norm inputs."""
    va = as_array(a, (None,), "a")
    vb = as_array(b, va.shape, "b")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


def euclid(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    va = as_array(a, (None,), "a")
    vb = as_array(b, va.shape, "b")
    return float(np.linalg.norm(va - vb))


def two_pass_stats(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Textbook two-pass mean and population standard deviation."""
    b = len(rows)
    dim = rows[0].shape[0]
    mu = np.zeros(dim)
    for r in rows:
        mu += r
    mu /= b
    var = np.zeros(dim)
    for r in rows:
        var += (r - mu) ** 2
    var /= b
    return mu, np.sqrt(var)


def euclid_direct(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def _sequential_mean(rows: list[np.ndarray]) -> np.ndarray:
    acc = rows[0].copy()
    for r in rows[1:]:
        acc += r
    return acc / len(rows)


def single_linkage_bruteforce(dist: np.ndarray, num_groups: int) -> list[list[int]]:
    """Naive agglomerative single linkage by repeated closest-cluster merging.

    O(n^4)-ish scanning, fine for the <= 12 node oracle instances. Returns
    groups as sorted member lists, ordered by smallest member.
    """
    clusters = [[i] for i in range(dist.shape[0])]
    while len(clusters) > num_groups:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                if best is None or d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
    return sorted(clusters, key=min)


def kruskal_single_linkage_reference(dist: np.ndarray, num_groups: int) -> list[int]:
    """Kruskal-style union of ascending edges until ``num_groups`` components remain.

    Sorts every (weight, i, j) edge tuple in Python, so edge ties break by
    (weight, i, j) order. Returns the group id of each node, groups numbered
    by their first member: the engine's exact assignment list, not just its
    partition.
    """
    n = dist.shape[0]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(
        (dist[i, j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    components = n
    for _, i, j in edges:
        if components <= num_groups:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
    group_of_root: dict[int, int] = {}
    assignment = []
    for i in range(n):
        r = find(i)
        if r not in group_of_root:
            group_of_root[r] = len(group_of_root)
        assignment.append(group_of_root[r])
    return assignment


def class_fission_reference(keys, prompts, pseudo_labels, gamma_c, tau_c, rng, init_scale):
    """Sample-by-sample class fission, straight from the matching rule.

    For each pseudo-label y: cosine similarities ``K @ y / (|k| |y|)``, the
    indices strictly above ``gamma_c`` as candidates, softmax(sim / tau_c)
    weights normalised over the candidates, and their blend of prompts; a
    sample without candidates draws a fresh prompt from ``rng``, in sample
    order. Returns one (candidates, weights, prompt) triple per sample.
    """
    norms = np.linalg.norm(keys, axis=1)
    out = []
    for y in pseudo_labels:
        sims = (keys @ y) / (norms * math.sqrt(y @ y))
        cand = [i for i in range(keys.shape[0]) if sims[i] > gamma_c]
        if not cand:
            out.append((cand, np.empty(0), rng.normal(size=prompts.shape[1]) * init_scale))
            continue
        scores = sims / tau_c
        e = np.exp(scores[cand] - scores[cand].max())
        w = e / e.sum()
        out.append((cand, w, w @ prompts[cand]))
    return out


def partition_sets(groups_or_assignment) -> set[frozenset]:
    """Canonical form of a partition for comparison."""
    if isinstance(groups_or_assignment, dict):
        groups: dict[int, list[int]] = {}
        for i, g in groups_or_assignment.items():
            groups.setdefault(g, []).append(i)
        return {frozenset(v) for v in groups.values()}
    return {frozenset(g) for g in groups_or_assignment}


def algorithm1_reference(entries, capacity, record, gamma_h, alpha_c, created_at=0):
    """Line-by-line replay of the class-pool update pseudocode.

    ``entries`` is a list of (key, prompt, created_at) tuples; a new list is
    returned, leaving the input untouched. The batch record is replayed one
    sample at a time.
    """
    entries = [(k.copy(), p.copy(), c) for k, p, c in entries]
    for t in range(len(record)):
        prediction, learned, outcome = record.predictions[t], record.learned_prompts[t], record.outcome[t]
        if entropy(prediction) > gamma_h:
            continue
        if outcome.fissioned[0]:
            entries.append((record.pseudo_labels[t].copy(), learned.copy(), created_at))
        else:
            for i, w in sorted(zip(outcome.candidates.tolist(), outcome.weights.tolist())):
                key, prompt, created = entries[i]
                cf = alpha_c * w
                new_key = cf * prediction + (1.0 - cf) * key
                new_key = new_key / new_key.sum()
                new_prompt = w * learned + (1.0 - w) * prompt
                entries[i] = (new_key, new_prompt, created)
    if len(entries) > capacity:
        keys = [k for k, _, _ in entries]
        n = len(entries)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                num = float(keys[i] @ keys[j])
                den = math.sqrt(float(keys[i] @ keys[i])) * math.sqrt(float(keys[j] @ keys[j]))
                dist[i, j] = 1.0 - num / den
        groups = single_linkage_bruteforce(dist, capacity)
        merged = []
        for members in groups:
            key = _sequential_mean([entries[i][0] for i in members])
            merged.append(
                (
                    key / key.sum(),
                    _sequential_mean([entries[i][1] for i in members]),
                    min(entries[i][2] for i in members),
                )
            )
        entries = merged
    return entries


def algorithm2_reference(
    entries, capacity, learned_prompt, stats, outcome, alpha_d, created_at=0
):
    """Line-by-line replay of the domain-pool update pseudocode.

    ``entries`` is a list of (mu, sigma, prompt, created_at) tuples.
    """
    entries = [(m.copy(), s.copy(), p.copy(), c) for m, s, p, c in entries]
    if outcome.fissioned[0]:
        entries.append((stats.mu.copy(), stats.sigma.copy(), learned_prompt.copy(), created_at))
        if len(entries) > capacity:
            best = None
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    ci = np.concatenate((entries[i][0], entries[i][1]))
                    cj = np.concatenate((entries[j][0], entries[j][1]))
                    d = float(np.linalg.norm(ci - cj))
                    if best is None or d < best[0]:
                        best = (d, i, j)
            _, i, j = best
            mi, si, pi, ci_ = entries[i]
            mj, sj, pj, cj_ = entries[j]
            merged = (
                _sequential_mean([mi, mj]),
                _sequential_mean([si, sj]),
                _sequential_mean([pi, pj]),
                min(ci_, cj_),
            )
            entries[i] = merged
            del entries[j]
    else:
        for i, w in sorted(zip(outcome.candidates.tolist(), outcome.weights.tolist())):
            mu, sigma, prompt, created = entries[i]
            cf = alpha_d * w
            entries[i] = (
                cf * stats.mu + (1.0 - cf) * mu,
                cf * stats.sigma + (1.0 - cf) * sigma,
                w * learned_prompt + (1.0 - w) * prompt,
                created,
            )
    return entries


def round_index_reference(domain_seq: list[int]) -> list[int]:
    """Round id per batch: the domain-block sequence, its repetition period, and
    one block counter advanced wherever the domain changes."""
    blocks: list[int] = []
    for d in domain_seq:
        if not blocks or blocks[-1] != d:
            blocks.append(d)
    n = len(blocks)
    p = n
    for q in range(1, n + 1):
        if n % q == 0 and blocks == blocks[:q] * (n // q):
            p = q
            break
    out = []
    block = -1
    prev = None
    for d in domain_seq:
        if d != prev:
            block += 1
            prev = d
        out.append(block // p)
    return out


def write_stream_reference(batches, path) -> None:
    """The stream writer as it was with one ``format(x, '.9g')`` per value."""
    if batches:
        dim = batches[0].samples.shape[1]
    else:
        dim = 0
    header = ",".join(["batch_idx", "domain_id", "class_id"] + [f"f{k}" for k in range(dim)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for batch in batches:
            lead = f"{batch.batch_index},{batch.domain_id},"
            fh.write(
                "".join(
                    f"{lead}{cls},{','.join(map(format, row, repeat('.9g')))}\n"
                    for row, cls in zip(batch.samples.tolist(), batch.class_ids.tolist())
                )
            )
