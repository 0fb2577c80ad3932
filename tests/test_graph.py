"""Masked matrix products, representation building, link AUC."""

import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from mpdl.dual import DualModelPair
from mpdl.graph import (_average_ranks, complete_feature_matrix,
                        confusion_protocol, cosine_scores, holdout_edges,
                        link_auc, link_prediction_auc, make_confusion,
                        node_representations)
from mpdl.nn import DenseLayer, Mlp, init_mlp, mlp_forward
from mpdl.synthetic import linked_graph
from mpdl.transport import Hub, MessageKind, ProtocolError, pack_matrix, \
    unpack_matrix


def identity_pair(d_a, d_b):
    """Generators that are exact linear maps, for deterministic oracles."""
    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, size=(d_b, d_a))
    f = Mlp((DenseLayer(m, np.zeros(d_b), "identity"),))
    g = Mlp((DenseLayer(np.linalg.pinv(m), np.zeros(d_a), "identity"),))
    return DualModelPair(f, g), m


# -- representations ---------------------------------------------------------------

def test_node_representations_identity_adjacency():
    feat = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(node_representations(np.eye(4), feat), feat)


def test_node_representations_zero_rows_stay_zero():
    feat = np.ones((3, 2))
    adj = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
    got = node_representations(adj, feat)
    assert np.array_equal(got[1], [0.0, 0.0])
    assert np.array_equal(got[0], [2.0, 2.0])


def test_node_representations_matches_triple_loop():
    rng = np.random.default_rng(1)
    adj = (rng.random((6, 8)) < 0.4).astype(float)
    feat = rng.normal(size=(8, 3))
    got = node_representations(adj, feat)
    for i in range(6):
        for j in range(3):
            acc = 0.0
            for k in range(8):
                acc += adj[i, k] * feat[k, j]
            assert got[i, j] == pytest.approx(acc, rel=1e-12)


def test_node_representations_shape_guard():
    with pytest.raises(ValueError):
        node_representations(np.eye(3), np.ones((4, 2)))


# -- the confusion protocol -----------------------------------------------------------

def test_make_confusion_invertible():
    conf = make_confusion(6, np.random.default_rng(3))
    assert np.allclose(conf.matrix @ conf.inverse, np.eye(6), atol=1e-10)


def test_confusion_protocol_identity_mask_case(hub):
    # square well-conditioned factors with a wide inner dimension
    rng = np.random.default_rng(4)
    m_a = rng.normal(size=(3, 7))
    m_b = rng.normal(size=(7, 4))
    got = confusion_protocol(m_a, m_b, rng, hub)
    assert np.allclose(got, m_a @ m_b, atol=1e-8)


def test_confusion_protocol_exactness_100_instances(hub):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 12))
        inner = rows + int(rng.integers(1, 12))
        cols = int(rng.integers(2, 12))
        m_a = rng.normal(size=(rows, inner))
        m_b = rng.normal(size=(inner, cols))
        got = confusion_protocol(m_a, m_b, rng, hub)
        worst = max(worst, float(np.max(np.abs(got - m_a @ m_b))))
    assert worst <= 1e-8


def test_confusion_protocol_aborts_when_solvable(hub):
    rng = np.random.default_rng(6)
    with pytest.raises(ProtocolError):
        confusion_protocol(np.ones((4, 4)), np.ones((4, 2)), rng, hub)
    with pytest.raises(ProtocolError):
        confusion_protocol(np.ones((5, 4)), np.ones((4, 2)), rng, hub)
    with pytest.raises(ValueError):
        confusion_protocol(np.ones((2, 4)), np.ones((5, 2)), rng, hub)


@pytest.mark.parametrize("sender, cut, got, want", [
    ("B", np.s_[:-1], (6, 4), (7, 4)),
    ("A", np.s_[:1], (1, 4), (3, 4)),
], ids=["masked-factor", "masked-product"])
def test_confusion_protocol_rejects_a_mis_shaped_block(hub, monkeypatch,
                                                       sender, cut, got,
                                                       want):
    # unchecked, a one-row masked product would come back as a one-row
    # result and a short masked factor as numpy's matmul error
    rng = np.random.default_rng(4)
    exchange = hub.exchange

    def tampered(src, dst, kind, payload, batch_tag=None):
        if kind == MessageKind.MatrixBlock and src == sender:
            payload = pack_matrix(unpack_matrix(payload)[cut])
        return exchange(src, dst, kind, payload, batch_tag)

    monkeypatch.setattr(hub, "exchange", tampered)
    message = f"MatrixBlock from {sender} has shape {got}, expected {want}"
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        confusion_protocol(rng.normal(size=(3, 7)), rng.normal(size=(7, 4)),
                           rng, hub)


def test_confusion_protocol_transcript_hides_factors():
    """Neither raw factor may appear in any transmitted payload."""
    rng = np.random.default_rng(7)
    m_a = rng.normal(size=(3, 9))
    m_b = rng.normal(size=(9, 5))
    hub = Hub()
    got = confusion_protocol(m_a, m_b, rng, hub)
    assert np.allclose(got, m_a @ m_b, atol=1e-8)
    msgs = hub.transcript.messages()
    assert len(msgs) == 2
    assert all(m.kind == MessageKind.MatrixBlock for m in msgs)
    for m in msgs:
        payload = unpack_matrix(m.payload)
        for secret in (m_a, m_b):
            if payload.shape == secret.shape:
                assert not np.allclose(payload, secret)
            # no row of either factor appears verbatim
            for row in secret:
                if payload.shape[1] == row.shape[0]:
                    assert not (payload == row).all(axis=1).any()
    hub.close()


def test_confusion_protocol_rank_deficiency():
    """What A sends B has at most rank(M_A) ... the mask cannot add
    information that pins down M_B's null-space complement."""
    rng = np.random.default_rng(8)
    m_a = rng.normal(size=(2, 6))
    m_b = rng.normal(size=(6, 6))
    hub = Hub()
    confusion_protocol(m_a, m_b, rng, hub)
    masked_product = unpack_matrix(hub.transcript.messages()[-1].payload)
    assert np.linalg.matrix_rank(masked_product) <= 2
    hub.close()


# -- feature completion -----------------------------------------------------------------

def test_complete_feature_matrix_no_gaps_is_identity():
    pair, _ = identity_pair(3, 2)
    fa = np.random.default_rng(9).uniform(size=(5, 3))
    fb = np.random.default_rng(10).uniform(size=(5, 2))
    ones = np.ones(5, dtype=bool)
    got = complete_feature_matrix(pair, fa, fb, ones, ones)
    assert np.array_equal(got, np.hstack([fa, fb]))


def test_complete_feature_matrix_fills_with_generators():
    pair, m = identity_pair(3, 2)
    rng = np.random.default_rng(11)
    fa = rng.uniform(size=(4, 3))
    fb_true = fa @ m.T  # what the a_to_b generator would produce
    fb = rng.uniform(size=(4, 2))
    has_a = np.array([True, True, True, False])
    has_b = np.array([True, False, True, True])
    got = complete_feature_matrix(pair, fa, fb, has_a, has_b)
    # row 1 misses B: filled by f(fa[1]); rows 0, 2 untouched
    assert np.allclose(got[1, 3:], fb_true[1], atol=1e-12)
    assert np.array_equal(got[0], np.hstack([fa[0], fb[0]]))
    assert np.array_equal(got[2], np.hstack([fa[2], fb[2]]))
    # row 3 misses A: filled by g(fb[3])
    out, _ = mlp_forward(pair.b_to_a, fb[3:4])
    assert np.allclose(got[3, :3], out[0], atol=1e-12)


def test_complete_feature_matrix_rejects_double_gap():
    pair, _ = identity_pair(2, 2)
    with pytest.raises(ValueError):
        complete_feature_matrix(pair, np.ones((2, 2)), np.ones((2, 2)),
                                np.array([True, False]),
                                np.array([True, False]))
    with pytest.raises(ValueError):
        complete_feature_matrix(pair, np.ones((2, 2)), np.ones((3, 2)),
                                np.ones(2, bool), np.ones(2, bool))


# -- AUC -------------------------------------------------------------------------------

def test_link_auc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([1, 1, 0, 0])
    assert link_auc(scores, truth) == 1.0
    assert link_auc(scores, 1 - truth) == 0.0


def test_link_auc_all_ties_is_half():
    assert link_auc(np.ones(10), [1] * 4 + [0] * 6) == 0.5


def test_link_auc_matches_pairwise_counting():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n_pos = int(rng.integers(1, 20))
        n_neg = int(rng.integers(1, 20))
        # quantized scores force plenty of ties
        pos = rng.integers(0, 6, size=n_pos).astype(float)
        neg = rng.integers(0, 6, size=n_neg).astype(float)
        wins = 0.0
        for p in pos:
            for q in neg:
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        want = wins / (n_pos * n_neg)
        got = link_auc(np.concatenate([pos, neg]),
                       [1] * n_pos + [0] * n_neg)
        assert got == want  # rank formula is exact, not approximate


def test_link_auc_monotone_invariance():
    rng = np.random.default_rng(13)
    scores = rng.normal(size=30)
    truth = (rng.random(30) < 0.4).astype(int)
    if truth.sum() in (0, 30):
        truth[0] = 1 - truth[0]
    base = link_auc(scores, truth)
    assert link_auc(3.0 * scores + 7.0, truth) == pytest.approx(base,
                                                                abs=1e-15)
    assert link_auc(np.exp(scores), truth) == pytest.approx(base, abs=1e-15)


def test_link_auc_validation():
    with pytest.raises(ValueError):
        link_auc([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        link_auc([1.0, 2.0], [1, 2])
    with pytest.raises(ValueError):
        link_auc([1.0, 2.0], [1, 1])


def test_link_auc_nan_score_gives_nan():
    assert math.isnan(link_auc([0.9, np.nan, 0.2, 0.1], [1, 1, 0, 0]))


# a small pool keeps ties common; the infinities sort at either end
POOL = [-np.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 3.0, np.inf]


@given(arrays(np.float64, st.integers(1, 40),
              elements=st.sampled_from(POOL)),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_scipy_rankdata(values, with_nan):
    if with_nan:
        values = values.copy()
        values[len(values) // 2] = np.nan
    got = _average_ranks(values)
    want = rankdata(values)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)


def test_cosine_scores():
    reps = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    got = cosine_scores(reps, [(0, 2), (0, 1), (0, 3)])
    assert got == pytest.approx([1.0, 0.0, 0.0])


def test_holdout_edges_properties():
    rng = np.random.default_rng(14)
    n = 20
    adj = (rng.random((n, n)) < 0.2).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    train, pos, neg = holdout_edges(adj, 0.2, rng)
    assert len(pos) == len(neg) == max(1, round(np.triu(adj, 1).sum() * 0.2))
    for u, v in pos:
        assert adj[u, v] == 1.0 and train[u, v] == 0.0 and train[v, u] == 0.0
    for u, v in neg:
        assert adj[u, v] == 0.0 and u != v
    # non-held edges survive
    assert np.triu(train, 1).sum() == np.triu(adj, 1).sum() - len(pos)
    with pytest.raises(ValueError):
        holdout_edges(np.zeros((5, 5)), 0.2, rng)
    with pytest.raises(ValueError):
        holdout_edges(np.zeros((5, 4)), 0.2, rng)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, math.nan])
def test_holdout_edges_rejects_fraction_outside_open_unit_interval(fraction):
    path = np.eye(6, k=1)
    adj = path + path.T
    with pytest.raises(ValueError, match="holdout fraction"):
        holdout_edges(adj, fraction, np.random.default_rng(0))


def test_holdout_edges_rejects_graph_with_too_few_non_edges():
    # K_4: six edges, three held out, no non-edge to pair them with; the
    # negative sampler used to spin for ever, so a thread bounds the wait
    outcome = []

    def call():
        try:
            holdout_edges(np.ones((4, 4)) - np.eye(4), 0.5,
                          np.random.default_rng(0))
        except ValueError as exc:
            outcome.append(str(exc))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "holdout_edges did not return"
    assert outcome == ["3 held-out edges need as many non-edges; "
                       "the graph has 0"]
    # one free pair is enough for one held-out edge
    adj = np.ones((4, 4)) - np.eye(4)
    adj[0, 1] = adj[1, 0] = 0.0
    _, pos, neg = holdout_edges(adj, 0.2, np.random.default_rng(0))
    assert len(pos) == 1 and neg in ([(0, 1)], [(1, 0)])


def test_link_prediction_beats_chance(hub):
    """Feature-similarity graphs give informative representations: the
    dual-completed pipeline should clearly beat AUC 0.5."""
    ds, adj = linked_graph(60, 3, 3, seed=15)
    feat_a = ds.features[:, :3]
    feat_b = ds.features[:, 3:]
    rng = np.random.default_rng(16)
    has_a = rng.random(60) < 0.8
    has_b = (rng.random(60) < 0.8) | ~has_a
    # train quick generators on the doubly present rows
    both = has_a & has_b
    r = np.random.default_rng(17)
    f = init_mlp([3, 4, 3], ["relu", "identity"], r)
    g = init_mlp([3, 4, 3], ["relu", "identity"], r)
    from mpdl.nn import backprop_from_output_grad, loss_eval, sgd_step
    for _ in range(200):
        for model, x, y in ((f, feat_a[both], feat_b[both]),
                            (g, feat_b[both], feat_a[both])):
            out, cache = mlp_forward(model, x)
            _, grad = loss_eval("mse", out, y)
            grads = backprop_from_output_grad(model, cache, grad).layer_grads
            stepped = sgd_step(model, grads, 0.1)
            if model is f:
                f = stepped
            else:
                g = stepped
    pair = DualModelPair(f, g)
    aucs = []
    for k in range(5):
        aucs.append(link_prediction_auc(pair, adj, feat_a, feat_b, has_a,
                                        has_b, 0.2,
                                        np.random.default_rng(100 + k), hub))
        # the masked product runs on the caller's hub: two frames a call
        assert [m.kind for m in hub.transcript] == \
            [MessageKind.MatrixBlock] * (2 * (k + 1))
    assert np.mean(aucs) > 0.6
