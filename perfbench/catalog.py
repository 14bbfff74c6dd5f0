"""Seeded synthetic rating catalogs in MovieLens file formats.

Writes ``u.data`` (tab-separated ``user item rating timestamp``) and a
long-format ``genome.csv`` (``movieId,tagId,relevance``).  Users and
items share a small set of latent topics: an item's tag relevances are
a noisy image of its topic mixture, and users rate items near their
own topics more often and higher.  That makes the genome geometry
predictive of held-out positives, so ranking quality means something.
Item popularity has a Zipf-like tail, user activity a log-normal one,
and the 1-5 rating mix follows MovieLens-100K (about 55% at 4 or 5).

Run as ``python3 perfbench/catalog.py --shape ml100k --seed 1 --out DIR``.
"""

import argparse
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    ratings: int
    tags: int
    # Dirichlet concentration of user and item topic mixtures
    concentration: float
    topics: int = 12
    min_per_user: int = 20


SHAPES = {
    # MovieLens-100K: 943 users, 1682 items, 100k ratings
    "ml100k": Shape(users=943, items=1682, ratings=100_000, tags=300, concentration=0.3),
    # The wcf shapes use more diffuse topics than ml100k.  At 0.3, uncapped
    # wcf at gamma 0.05 on the small shape needs 11-23 outer passes
    # (70-140 s) or exits 2 on its unit-mass check (seeds 1 and 5); at 1.0
    # its ranking is barely better than random and varies by 13% (ndcg)
    # from one catalog to the next; see perfbench/README.md.
    "small": Shape(users=300, items=600, ratings=30_000, tags=100, concentration=0.5),
    "sharp": Shape(users=150, items=300, ratings=15_000, tags=60, concentration=1.0),
}

# share of ratings 1..5 in MovieLens-100K
RATING_MIX = np.array([0.0611, 0.1137, 0.2715, 0.3418, 0.2120])
TIME_RANGE = (874_724_710, 893_286_638)


def _user_activity(rng, shape: Shape) -> np.ndarray:
    """Per-user rating counts: log-normal tail, floor, exact total."""
    cap = shape.items // 2
    raw = rng.lognormal(mean=0.0, sigma=0.9, size=shape.users)
    spare = shape.ratings - shape.min_per_user * shape.users
    if spare < 0 or shape.ratings > cap * shape.users:
        raise ValueError("shape %r cannot place its ratings" % (shape,))
    counts = shape.min_per_user + np.floor(raw / raw.sum() * spare).astype(np.int64)
    counts = np.minimum(counts, cap)
    # hand out what flooring and capping left over, most active first
    order = np.argsort(-raw, kind="stable")
    k = 0
    while counts.sum() < shape.ratings:
        u = order[k % shape.users]
        if counts[u] < cap:
            counts[u] += 1
        k += 1
    return counts


def generate(shape: Shape, seed: int):
    """Return (ratings rows as int array n x 4, relevance items x tags)."""
    rng = np.random.default_rng(seed)
    alpha = np.full(shape.topics, shape.concentration)
    item_topics = rng.dirichlet(alpha, size=shape.items)
    user_topics = rng.dirichlet(alpha, size=shape.users)

    # genome: each tag leans towards a couple of topics
    tag_load = rng.gamma(0.4, 1.0, size=(shape.topics, shape.tags))
    tag_load /= tag_load.max(axis=0, keepdims=True)
    signal = item_topics @ tag_load
    signal /= signal.max(axis=1, keepdims=True)
    relevance = 0.02 + 0.9 * signal ** 1.5 + rng.normal(0.0, 0.04, signal.shape)
    relevance = np.round(np.clip(relevance, 0.001, 1.0), 5)

    popularity = rng.permutation(1.0 / np.arange(1, shape.items + 1) ** 0.8)
    affinity = user_topics @ item_topics.T  # users x items
    counts = _user_activity(rng, shape)

    # weighted sampling without replacement (Gumbel top-k), per user
    logw = np.log(popularity)[None, :] + 2.0 * np.log(affinity + 1e-3)
    keys = logw + rng.gumbel(size=logw.shape)
    ranked = np.argsort(-keys, axis=1, kind="stable")
    users = np.repeat(np.arange(shape.users), counts)
    items = np.concatenate([ranked[u, :counts[u]] for u in range(shape.users)])

    # ratings: affinity standardized within each user plus noise, cut at
    # the global quantiles that reproduce the MovieLens mix
    a = affinity[users, items]
    mean = np.bincount(users, a) / counts
    sq = np.bincount(users, (a - mean[users]) ** 2) / counts
    z = (a - mean[users]) / np.sqrt(sq[users] + 1e-12)
    z = z + rng.normal(0.0, 0.8, z.size)
    cuts = np.quantile(z, np.cumsum(RATING_MIX)[:-1])
    stars = 1 + np.searchsorted(cuts, z, side="right")
    stamps = rng.integers(TIME_RANGE[0], TIME_RANGE[1], size=z.size)

    rows = np.stack([users + 1, items + 1, stars, stamps], axis=1)
    rows = rows[rng.permutation(rows.shape[0])]
    return rows, relevance


def write_catalog(shape: Shape, seed: int, out) -> dict:
    """Write u.data and genome.csv under ``out``; return {name: sha256}."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows, relevance = generate(shape, seed)
    ratings_text = "".join("%d\t%d\t%d\t%d\n" % tuple(r) for r in rows.tolist())
    n_items, n_tags = relevance.shape
    lines = ["movieId,tagId,relevance\n"]
    for i in range(n_items):
        lines.extend("%d,%d,%.5f\n" % (i + 1, t + 1, v)
                     for t, v in enumerate(relevance[i].tolist()))
    digests = {}
    for name, text in (("u.data", ratings_text), ("genome.csv", "".join(lines))):
        data = text.encode("ascii")
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name, digest in sorted(write_catalog(SHAPES[args.shape], args.seed, args.out).items()):
        print("%s  %s" % (digest, name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
