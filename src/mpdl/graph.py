"""Graph completion: masked cross-party products and link prediction.

One party holds the adjacency structure, the other the node features.
Node representations are the product of the two matrices; the product
is computed through a random invertible confusion matrix so neither
factor crosses in the clear.  Feature rows missing on either side are
completed with the trained dual generators before the product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PartyDataset
from .dual import DualModelPair, dual_infer
from .nn import as_batch
from .orchestrator import MpdlConfig, prepare_experiment, setup_parties
from .transport import Hub, MessageKind, ProtocolError

CONDITION_LIMIT = 1e8
CONFUSION_TRIES = 32


def node_representations(adj, feat) -> np.ndarray:
    """M_rep = adjacency @ features; unknown adjacency rows stay zero."""
    a = as_batch(adj)
    f = as_batch(feat)
    if a.shape[1] != f.shape[0]:
        raise ValueError("adjacency columns must match feature rows")
    return a @ f


@dataclass(frozen=True)
class ConfusionMatrix:
    """A well-conditioned random square mask and its cached inverse."""

    matrix: np.ndarray
    inverse: np.ndarray


def make_confusion(size: int, rng: np.random.Generator) -> ConfusionMatrix:
    """Uniform [-1, 1] square matrix, re-drawn until well conditioned
    (at most ``CONFUSION_TRIES`` draws)."""
    for _ in range(CONFUSION_TRIES):
        m = rng.uniform(-1.0, 1.0, size=(size, size))
        if np.linalg.cond(m) < CONDITION_LIMIT:
            return ConfusionMatrix(m, np.linalg.inv(m))
    raise RuntimeError("could not draw a well-conditioned confusion matrix")


def confusion_protocol(m_a, m_b, rng: np.random.Generator,
                       hub: Hub) -> np.ndarray:
    """Compute M_A @ M_B without revealing either factor.

    Two MatrixBlock messages on the caller's hub: B sends M_B masked by
    the confusion matrix, A multiplies by its factor and returns the
    masked product, and B strips the mask.  The shared inner dimension
    must exceed M_A's row count; otherwise the product has full rank
    relative to the unknowns and the counterpart could solve for the
    hidden factor, so the protocol aborts before sending anything.
    """
    m_a = as_batch(m_a)
    m_b = as_batch(m_b)
    if m_a.shape[1] != m_b.shape[0]:
        raise ValueError(f"cannot chain {m_a.shape} with {m_b.shape}")
    if m_a.shape[1] <= m_a.shape[0]:
        raise ProtocolError("confusion protocol needs the inner dimension "
                            "to exceed the left factor's rows; the product "
                            "would pin down the hidden factor")
    conf = make_confusion(m_b.shape[1], rng)
    masked_b = hub.exchange_matrix("B", "A", MessageKind.MatrixBlock,
                                   m_b @ conf.matrix, m_b.shape)
    masked_prod = hub.exchange_matrix("A", "B", MessageKind.MatrixBlock,
                                      m_a @ masked_b,
                                      (m_a.shape[0], m_b.shape[1]))
    return masked_prod @ conf.inverse


def complete_feature_matrix(pair: DualModelPair, feat_a, feat_b,
                            has_a, has_b) -> np.ndarray:
    """Fill missing per-node party features with the dual generators.

    ``has_a``/``has_b`` are boolean masks over the rows; a row missing
    on both sides cannot be completed.  Rows present on both sides are
    returned untouched.
    """
    fa = as_batch(feat_a)
    fb = as_batch(feat_b)
    has_a = np.asarray(has_a, dtype=bool)
    has_b = np.asarray(has_b, dtype=bool)
    if fa.shape[0] != fb.shape[0] or has_a.shape != (fa.shape[0],) or \
            has_b.shape != (fa.shape[0],):
        raise ValueError("feature blocks and masks must align by row")
    if not (has_a | has_b).all():
        raise ValueError("some rows are missing on both sides")
    fa = fa.copy()
    fb = fb.copy()
    need_b = has_a & ~has_b
    need_a = has_b & ~has_a
    if need_b.any():
        fb[need_b] = dual_infer(pair.a_to_b, fa[need_b])
    if need_a.any():
        fa[need_a] = dual_infer(pair.b_to_a, fb[need_a])
    return np.hstack([fa, fb])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of tied values given the mean of its ranks.

    The "average" method of ``scipy.stats.rankdata``, including its NaN
    handling: any NaN makes every rank NaN.
    """
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # run k of equal values spans sorted positions bounds[k]..bounds[k+1]-1
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0,
                             np.diff(bounds))
    return ranks


def link_auc(scores, truth) -> float:
    """Probability a held-out edge outscores a non-edge, ties at half.

    Rank-based Mann-Whitney statistic over average ranks: ties
    contribute exactly 1/2, and every rank is a half-integer, so the
    value matches pairwise counting bit for bit.  A NaN score makes
    the result NaN.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = np.asarray(truth).ravel()
    if s.shape != t.shape:
        raise ValueError("scores and truth must have equal length")
    if not np.isin(t, (0, 1)).all():
        raise ValueError("truth must be 0/1")
    pos = s[t == 1]
    neg = s[t == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes in truth")
    ranks = _average_ranks(np.concatenate([pos, neg]))
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def cosine_scores(reps: np.ndarray, edges) -> np.ndarray:
    """Cosine similarity of node representation pairs; zero rows score 0."""
    norms = np.linalg.norm(reps, axis=1)
    out = []
    for u, v in edges:
        d = norms[u] * norms[v]
        out.append(float(reps[u] @ reps[v] / d) if d > 0.0 else 0.0)
    return np.array(out)


def check_holdout_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")


def holdout_edges(adj, fraction: float, rng: np.random.Generator):
    """Remove a fraction of edges and pair them with sampled non-edges.

    Returns (training adjacency, positive pairs, negative pairs); the
    graph is treated as undirected and both triangle entries of a held
    out edge are cleared.  ``fraction`` must lie strictly between 0 and
    1, and the graph must have a non-edge for every held-out edge.
    """
    check_holdout_fraction(fraction)
    a = np.asarray(adj)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    n = a.shape[0]
    iu, ju = np.where(np.triu(a, 1) > 0)
    if iu.size == 0:
        raise ValueError("graph has no edges")
    n_hold = max(1, int(round(iu.size * fraction)))
    n_free = n * (n - 1) // 2 - iu.size
    if n_free < n_hold:
        raise ValueError(f"{n_hold} held-out edges need as many non-edges; "
                         f"the graph has {n_free}")
    pick = rng.choice(iu.size, size=n_hold, replace=False)
    pos = [(int(iu[k]), int(ju[k])) for k in pick]
    train = a.astype(np.float64).copy()
    for u, v in pos:
        train[u, v] = train[v, u] = 0.0
    neg = []
    seen = set(pos)
    while len(neg) < n_hold:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v or a[u, v] or (u, v) in seen or (v, u) in seen:
            continue
        seen.add((u, v))
        neg.append((u, v))
    return train, pos, neg


def link_prediction_auc(pair: DualModelPair, adj, feat_a, feat_b, has_a,
                        has_b, holdout_fraction: float,
                        rng: np.random.Generator, hub: Hub) -> float:
    """Score link prediction with dual-completed features.

    The adjacency holder contributes only the rows for its own nodes
    (``has_a``), keeping the masked product underdetermined, so edges
    are held out and scored within that node subset.  Scores are
    cosine similarities of the masked-product representations, which
    ``confusion_protocol`` computes over the caller's hub.
    """
    features = complete_feature_matrix(pair, feat_a, feat_b, has_a, has_b)
    a = np.asarray(adj)
    a_nodes = np.where(np.asarray(has_a, dtype=bool))[0]
    sub = a[np.ix_(a_nodes, a_nodes)]
    _, pos, neg = holdout_edges(sub, holdout_fraction, rng)
    train = a.astype(np.float64).copy()
    for u, v in pos:
        gu, gv = a_nodes[u], a_nodes[v]
        train[gu, gv] = train[gv, gu] = 0.0
    reps = confusion_protocol(train[a_nodes, :], features, rng, hub)
    pairs = pos + neg
    truth = np.array([1] * len(pos) + [0] * len(neg))
    return link_auc(cosine_scores(reps, pairs), truth)


def node_features(store: PartyDataset, ids):
    """``store``'s rows over ``ids``, zero where it has none, and its mask."""
    has = np.array([i in store.index for i in ids])
    feat = np.zeros((len(ids), store.features.shape[1]))
    feat[has] = store.rows([i for i, h in zip(ids, has) if h])
    return feat, has


def link_prediction_repeats(ds: PartyDataset, adj, config: MpdlConfig,
                            repeats: int,
                            holdout_fraction: float) -> list[float]:
    """``mpdl graph``: the AUC of each run seeded ``config.seed + r``.

    A run splits the nodes with no test block and trains the generators
    after ``setup_parties``, as ``mpdl_train`` does, on a fresh hub; it
    then scores link prediction on the two perturbed stores.
    """
    aucs = []
    for r in range(repeats):
        run = replace(config, seed=config.seed + r)
        data = prepare_experiment(ds, run.gamma, seed=run.seed,
                                  test_fraction=0.0)
        hub = Hub()
        try:
            setup = setup_parties(data, run, hub)
            setup.train_generators(hub, run)
            feat_a, has_a = node_features(setup.state_a.store, ds.ids)
            feat_b, has_b = node_features(setup.state_b.store, ds.ids)
            pair = DualModelPair(setup.state_a.model, setup.state_b.model)
            aucs.append(link_prediction_auc(
                pair, adj, feat_a, feat_b, has_a, has_b, holdout_fraction,
                np.random.default_rng(setup.fold_seed), hub))
        finally:
            hub.close()
    return aucs
