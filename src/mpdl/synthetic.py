"""Small synthetic tasks with known structure for tests and demos."""

from __future__ import annotations

import numpy as np

from .data import PartyDataset


def linear_task(n: int, d_a: int, d_b: int, seed: int = 0,
                noise: float = 0.0) -> PartyDataset:
    """A vertically split dataset whose halves are linearly linked.

    A-side features are uniform in [0, 1]; B-side features are an
    affine image of them (plus optional Gaussian noise), rescaled back
    into [0, 1].  Labels threshold a random linear score at its median,
    so the task is balanced and learnable from either side.
    """
    rng = np.random.default_rng(seed)
    x_a = rng.uniform(0.0, 1.0, size=(n, d_a))
    m = rng.uniform(-1.0, 1.0, size=(d_a, d_b)) / np.sqrt(d_a)
    x_b = x_a @ m + rng.uniform(-0.5, 0.5, size=d_b)
    if noise > 0.0:
        x_b = x_b + rng.normal(0.0, noise, size=x_b.shape)
    lo, hi = x_b.min(axis=0), x_b.max(axis=0)
    x_b = (x_b - lo) / np.where(hi - lo == 0.0, 1.0, hi - lo)
    features = np.hstack([x_a, x_b])
    score = features @ rng.normal(size=d_a + d_b)
    labels = (score > np.median(score)).astype(np.int64)
    return PartyDataset(tuple(range(n)), features, labels)


GRAPH_NEIGHBOURS = 3


def linked_graph(n: int, d_a: int, d_b: int,
                 seed: int = 0) -> tuple[PartyDataset, np.ndarray]:
    """A feature dataset plus an undirected adjacency matrix.

    Edges connect feature-similar nodes: each node links to its
    ``GRAPH_NEIGHBOURS`` nearest neighbours in the full feature space,
    for an average degree of about 6, which gives link prediction real
    signal once features are known.
    """
    ds = linear_task(n, d_a, d_b, seed=seed)
    feats = ds.features
    sq = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    adj = np.zeros((n, n), dtype=np.int8)
    nearest = np.argsort(sq, axis=1)[:, :GRAPH_NEIGHBOURS]
    for i in range(n):
        adj[i, nearest[i]] = 1
        adj[nearest[i], i] = 1
    return ds, adj
