"""Whole-lifecycle runs on synthetic tasks: folds, supplement, metrics."""

import hashlib
import math
import multiprocessing
import os
import random
import re
from collections import Counter

import numpy as np
import pytest

import mpdl.orchestrator
from mpdl.data import PartyDataset
from mpdl.density import fit_kde
from mpdl.dual import DualPartyState, run_dual_round
from mpdl.nn import init_mlp
from mpdl.orchestrator import (MpdlConfig, inference_mae, mpdl_train,
                               predict_unlabeled, prepare_experiment,
                               split_predict, train_dual_generators)
from mpdl.paillier import keygen
from mpdl.synthetic import linear_task
from mpdl.transport import ACTORS, Hub, MessageKind, ProtocolError, \
    encode_message, pack_json, pack_matrix, pack_tokens, unpack_json, \
    unpack_matrix, unpack_tokens


FAST = dict(epsilon=math.inf, dual_epochs=2, central_epochs=5,
            use_encryption=False, max_iters=2, folds=5)


@pytest.fixture(scope="module")
def world():
    ds = linear_task(220, 3, 3, seed=5)
    return prepare_experiment(ds, gamma=0.3, seed=5)


def run(world, close=True, **overrides):
    cfg = MpdlConfig(gamma=0.3, **{**FAST, **overrides})
    result = mpdl_train(world, cfg)
    if close:
        result.hub.close()
    return result


def _failing_round(*args, **kwargs):
    raise RuntimeError("injected failure")


def test_failed_run_closes_its_own_hub(world, monkeypatch):
    closed = []
    original = Hub.close
    monkeypatch.setattr(Hub, "close",
                        lambda self: (closed.append(self), original(self)))
    monkeypatch.setattr("mpdl.orchestrator.run_dual_round", _failing_round)
    with pytest.raises(RuntimeError, match="injected"):
        mpdl_train(world, MpdlConfig(gamma=0.3, **FAST))
    assert len(closed) == 1
    hub = Hub()
    with pytest.raises(RuntimeError, match="injected"):
        mpdl_train(world, MpdlConfig(gamma=0.3, **FAST), hub)
    assert len(closed) == 1  # a caller's hub stays the caller's to close
    hub.close()


# -- config and preparation -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        MpdlConfig(gamma=0.3, folds=2, max_iters=3)
    with pytest.raises(ValueError):
        MpdlConfig(gamma=0.3, epsilon=0.0)
    with pytest.raises(ValueError):
        MpdlConfig(gamma=0.3, sensitivity_mode="per_row")
    with pytest.raises(ValueError):
        MpdlConfig(gamma=0.3, central_epochs=0)
    with pytest.raises(ValueError):
        MpdlConfig(gamma=0.3, batch_size=0)


def test_prepare_experiment_structure(world):
    split = world.split
    n = 220
    assert len(split.test) == 22
    rest = n - 22
    assert len(split.co_occurrence) == int(rest * 0.3 + 1e-9)
    # every id appears exactly once across the four blocks
    flat = (list(split.co_occurrence) + list(split.b_only) +
            list(split.a_only) + list(split.test))
    assert sorted(flat) == sorted(range(n))
    # party stores: A never holds b_only rows, B never holds a_only rows
    assert set(world.party_a.ids) == set(split.co_occurrence) | \
        set(split.a_only) | set(split.test)
    assert set(world.party_b.ids) == set(split.co_occurrence) | \
        set(split.b_only) | set(split.test)
    # withheld labels cover exactly the a_only block and stay off-protocol
    assert set(world.withheld_labels) == set(split.a_only)
    assert world.party_a.labels is None
    assert world.party_b.labels is not None
    assert world.n_classes == 2


def test_empty_test_block_is_rejected_before_keygen(monkeypatch):
    import mpdl.orchestrator
    calls = []
    original = mpdl.orchestrator.keygen
    monkeypatch.setattr(mpdl.orchestrator, "keygen",
                        lambda *a: (calls.append(a), original(*a))[1])
    world = prepare_experiment(linear_task(60, 2, 2, seed=1), gamma=0.3,
                               seed=1, test_fraction=0.0)
    with pytest.raises(ValueError, match="the test block is empty"):
        mpdl_train(world, MpdlConfig(gamma=0.3, **FAST))
    assert calls == []


def test_prepare_experiment_requires_labels():
    ds = linear_task(50, 2, 2, seed=0)
    unlabeled = type(ds)(ds.ids, ds.features, None)
    with pytest.raises(ValueError):
        prepare_experiment(unlabeled, gamma=0.3)


# -- the run loop ------------------------------------------------------------------

def test_min_iterations_and_report_shape(world):
    result = run(world, max_iters=1, threshold=2.0)  # threshold unreachable
    rep = result.report
    assert len(rep.iterations) == 1
    assert not rep.converged
    assert 0.0 <= rep.accuracy_joint <= 1.0
    assert 0.0 <= rep.accuracy_dual <= 1.0
    assert 0.0 <= rep.accuracy_unlabeled <= 1.0
    assert rep.inference_mae >= 0.0
    assert rep.config["gamma"] == 0.3
    d = rep.to_dict()
    assert d["config"]["epsilon"] == "inf"  # survives json round trips


def test_early_stop_on_threshold(world):
    # threshold -1 guarantees v_dual - v_joint > threshold at iteration 1
    result = run(world, threshold=-1.0, max_iters=2)
    assert result.report.converged
    assert len(result.report.iterations) == 1


def test_iterations_draw_distinct_folds(world):
    result = run(world, threshold=2.0, max_iters=2)
    folds = [r.fold_index for r in result.report.iterations]
    assert len(folds) == 2
    assert folds[0] != folds[1]


def test_supplement_covers_b_only_rows(world):
    result = run(world, max_iters=1, threshold=2.0)
    assert set(result.received_a) == {repr(i) for i in world.split.b_only}
    d_a = world.party_a.features.shape[1]
    for row in result.received_a.values():
        assert np.asarray(row).shape == (d_a,)


def test_same_seed_reproduces_report(world):
    r1 = run(world, seed=7)
    r2 = run(world, seed=7)
    assert r1.report.to_dict() == r2.report.to_dict()
    for l1, l2 in zip(r1.model_dual.central.layers,
                      r2.model_dual.central.layers):
        assert np.array_equal(l1.weights, l2.weights)


def test_different_seed_changes_run(world):
    r1 = run(world, seed=7)
    r2 = run(world, seed=8)
    assert r1.report.to_dict() != r2.report.to_dict()


def test_dual_beats_joint_on_synthetic():
    """With most rows missing at A (small gamma), the supplemented model
    should win on validation in the majority of seeded runs."""
    wins = 0
    for seed in range(5):
        ds = linear_task(240, 3, 3, seed=seed)
        world = prepare_experiment(ds, gamma=0.15, seed=seed)
        result = run(world, seed=seed, max_iters=1, threshold=2.0,
                     dual_epochs=4, central_epochs=10)
        rec = result.report.iterations[0]
        if rec.v_dual >= rec.v_joint:
            wins += 1
    assert wins >= 3


def test_transcript_records_protocol_traffic(world):
    result = run(world, max_iters=1, threshold=2.0)
    kinds = {m.kind for m in result.hub.transcript.messages()}
    assert MessageKind.BlindedIds in kinds     # alignment + routing
    assert MessageKind.InferredBatch in kinds  # dual rounds + supplement
    assert MessageKind.GradTerm in kinds       # dual round plaintext parts
    assert MessageKind.PartialSum in kinds     # split central traffic
    assert MessageKind.DeltaError in kinds
    assert MessageKind.Control in kinds        # labels to C



# -- the dual-training loop ------------------------------------------------------

@pytest.fixture(scope="module")
def keypairs():
    rng = random.Random(77)
    return keygen(512, rng), keygen(512, rng)


def _dual_states(keypairs, n=13):
    keys_a, keys_b = keypairs
    rng = np.random.default_rng(41)
    x_a, x_b = rng.uniform(size=(n, 3)), rng.uniform(size=(n, 2))
    ids = tuple(f"id{k}" for k in range(n))
    state_a = DualPartyState("A", PartyDataset(ids, x_a), fit_kde(x_a),
                             init_mlp([3, 4, 2], ["relu", "identity"], rng),
                             keys_a, keys_b.public, lam=0.05, lr=0.1)
    state_b = DualPartyState("B", PartyDataset(ids, x_b), fit_kde(x_b),
                             init_mlp([2, 4, 3], ["relu", "identity"], rng),
                             keys_b, keys_a.public, lam=0.05, lr=0.1)
    return state_a, state_b, list(ids)


def test_train_dual_generators_tags_each_round(keypairs):
    state_a, state_b, ids = _dual_states(keypairs)
    hub = Hub()
    try:
        next_tag = train_dual_generators(
            state_a, state_b, ids, hub, 3, 4, np.random.default_rng(1),
            random.Random(2), 5, use_encryption=False)
        tags = Counter(m.batch_tag for m in hub.transcript)
    finally:
        hub.close()
    assert next_tag == 5 + 3 * math.ceil(13 / 4)
    assert tags == {tag: 8 for tag in range(5, next_tag)}


def test_train_dual_generators_matches_an_inline_loop(keypairs):
    settings = dict(use_encryption=False, exact_duality_grad=True)
    state_a, state_b, ids = _dual_states(keypairs)
    hub = Hub()
    try:
        train_dual_generators(state_a, state_b, ids, hub, 2, 5,
                              np.random.default_rng(3), random.Random(4),
                              **settings)
    finally:
        hub.close()

    ref_a, ref_b, _ = _dual_states(keypairs)
    order_rng, protocol_rng, tag = np.random.default_rng(3), \
        random.Random(4), 0
    hub = Hub()
    try:
        for _ in range(2):
            order = order_rng.permutation(len(ids))
            for start in range(0, len(ids), 5):
                batch = [ids[k] for k in order[start:start + 5]]
                run_dual_round(ref_a, ref_b, batch, hub, protocol_rng,
                               round_tag=tag, **settings)
                tag += 1
    finally:
        hub.close()
    for got, want in ((state_a, ref_a), (state_b, ref_b)):
        for lg, lw in zip(got.model.layers, want.model.layers):
            assert np.array_equal(lg.weights, lw.weights)
            assert np.array_equal(lg.bias, lw.bias)


# sha256 over every frame of one seeded run, in send order: a refactor of
# any protocol step must leave the bytes on the wire unchanged
GOLDEN_FRAMES = {
    "encrypted": "8412f1c543189a391e715d1219cecf24"
                 "e5609d5da9e72ef11d641d731bfd89bc",
    "plaintext": "b9cf629eff157f5c6647ffd70a02bcf7"
                 "b3d301773658b158236904652ba66386",
}


@pytest.mark.parametrize("mode,backend", [("encrypted", "local"),
                                          ("plaintext", "local"),
                                          ("plaintext", "tcp")])
def test_transcript_frames_match_golden_digest(mode, backend):
    world = prepare_experiment(linear_task(80, 2, 2, seed=3), 0.3, seed=3)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=3, key_bits=512,
                     dual_epochs=1, central_epochs=2, max_iters=1,
                     batch_size=16, use_encryption=mode == "encrypted")
    hub = Hub(backend=backend)
    try:
        mpdl_train(world, cfg, hub)
        frames = hub.transcript.frames()
    finally:
        hub.close()
    assert len(frames) == 77
    assert hashlib.sha256(b"".join(frames)).hexdigest() == GOLDEN_FRAMES[mode]


# the same task over three dual epochs and two iterations, so every
# co-occurring id takes part in several rounds of one run
GOLDEN_FRAMES_MULTI_EPOCH = {
    "encrypted": "fa9473da40e53bc4b96d113efdd6c88d"
                 "c98d911ddeb82f50376100fe5c0877a2",
    "plaintext": "1b4584d241ea708eb8957fbca48f4a0f"
                 "8f30f9425e2ff32befe194bcd8e207ed",
}


@pytest.mark.parametrize("mode", ["encrypted", "plaintext"])
def test_multi_epoch_transcript_frames_match_golden_digest(mode):
    world = prepare_experiment(linear_task(80, 2, 2, seed=3), 0.3, seed=3)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=3, key_bits=512,
                     dual_epochs=3, central_epochs=2, max_iters=2,
                     batch_size=16, use_encryption=mode == "encrypted")
    hub = Hub()
    try:
        mpdl_train(world, cfg, hub)
        frames = hub.transcript.frames()
    finally:
        hub.close()
    assert len(frames) == 203
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        GOLDEN_FRAMES_MULTI_EPOCH[mode]


# -- the cipher worker processes ----------------------------------------------


def _golden_run(hub, **overrides):
    """The golden-digest world and settings, encrypted; its frames."""
    world = prepare_experiment(linear_task(80, 2, 2, seed=3), 0.3, seed=3)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=3, key_bits=512,
                     dual_epochs=1, central_epochs=2, max_iters=1,
                     batch_size=16, **overrides)
    try:
        mpdl_train(world, cfg, hub)
        return hub.transcript.frames()
    finally:
        hub.close()


def _count_workers_per_round(monkeypatch, fail_at=None):
    """Record the live child processes during each round; the round
    numbered ``fail_at`` raises instead of running."""
    seen, original = [], mpdl.orchestrator.run_dual_round

    def counting(*args, **kwargs):
        seen.append(len(multiprocessing.active_children()))
        if len(seen) == fail_at:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(mpdl.orchestrator, "run_dual_round", counting)
    return seen


@pytest.mark.parametrize("backend", ["local", "tcp"])
def test_encrypted_run_leaves_no_worker_process(monkeypatch, backend):
    # the workers are forked with the hub's sockets open
    seen = _count_workers_per_round(monkeypatch)
    frames = _golden_run(Hub(backend=backend))
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        GOLDEN_FRAMES["encrypted"]
    assert seen and set(seen) == {len(os.sched_getaffinity(0)) - 1}
    assert multiprocessing.active_children() == []


def test_failing_round_leaves_no_worker_process(monkeypatch):
    seen = _count_workers_per_round(monkeypatch, fail_at=2)
    with pytest.raises(RuntimeError, match="injected"):
        _golden_run(Hub())
    assert len(seen) == 2
    assert multiprocessing.active_children() == []


def test_one_cpu_run_forks_nothing_and_sends_the_same_frames(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    seen = _count_workers_per_round(monkeypatch)
    frames = _golden_run(Hub())
    assert set(seen) == {0}
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        GOLDEN_FRAMES["encrypted"]


def test_plaintext_run_forks_nothing(monkeypatch):
    seen = _count_workers_per_round(monkeypatch)
    _golden_run(Hub(), use_encryption=False)
    assert seen and set(seen) == {0}


@pytest.mark.parametrize("cut, got", [(np.s_[:-1], (24, 2)),
                                      (np.s_[:, :1], (25, 1))],
                         ids=["short", "narrow"])
def test_run_rejects_a_mis_shaped_supplement(cut, got):
    # a short supplement would leave B-only ids without A-side rows
    hub = Hub()
    exchange = hub.exchange

    def tampered(sender, receiver, kind, payload, batch_tag=None):
        if kind == MessageKind.InferredBatch and sender == "B" and \
                batch_tag is None:
            payload = pack_matrix(unpack_matrix(payload)[cut])
        return exchange(sender, receiver, kind, payload, batch_tag)

    hub.exchange = tampered
    with pytest.raises(ProtocolError,
                       match=rf"^InferredBatch from B has shape "
                             rf"\({got[0]}, {got[1]}\), expected \(25, 2\)$"):
        _golden_run(hub, use_encryption=False)


@pytest.mark.parametrize("ids", [None, [1, 2], "'a'"])
def test_run_rejects_a_supplement_without_an_id_list(ids):
    hub = Hub()
    exchange = hub.exchange

    def tampered(sender, receiver, kind, payload, batch_tag=None):
        if kind == MessageKind.Control and (sender, receiver) == ("B", "A"):
            payload = pack_json({"supplement_ids": ids})
        return exchange(sender, receiver, kind, payload, batch_tag)

    hub.exchange = tampered
    with pytest.raises(ProtocolError, match="^Control from B holds no list "
                                            "of supplement ids$"):
        _golden_run(hub, use_encryption=False)


@pytest.mark.parametrize("mode,backend", [("encrypted", "local"),
                                          ("plaintext", "local"),
                                          ("plaintext", "tcp")])
def test_transcript_views_agree_with_frames(mode, backend):
    world = prepare_experiment(linear_task(80, 2, 2, seed=3), 0.3, seed=3)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=3, key_bits=512,
                     dual_epochs=1, central_epochs=2, max_iters=1,
                     batch_size=16, use_encryption=mode == "encrypted")
    hub = Hub(backend=backend)
    try:
        mpdl_train(world, cfg, hub)
    finally:
        hub.close()
    t = hub.transcript
    messages, frames = t.messages(), t.frames()
    assert [e.message for e in t.entries] == messages
    assert [e.frame for e in t.entries] == frames
    assert all(encode_message(m) == f for m, f in zip(messages, frames))
    for actor in ACTORS:
        assert t.view(actor) == [m for m in messages
                                 if actor in (m.sender, m.receiver)]
        assert t.received_by(actor) == [m for m in messages
                                        if m.receiver == actor]

# -- unlabeled routing ---------------------------------------------------------------

def test_predict_unlabeled_aligned_rows_use_true_features(world):
    """For ids B actually holds, routing must agree with the equivalent
    split-model prediction on (x_a, true x_b)."""
    result = run(world, close=False, max_iters=1, threshold=2.0)
    ids = list(world.split.co_occurrence[:8])
    x_a = result.state_a.store.rows(ids)
    got = predict_unlabeled(result, x_a, ids)

    x_b = result.state_b.store.rows(ids)
    want = split_predict(result.hub, result.model_dual, x_a, x_b)
    assert np.array_equal(got, want)


def test_predict_unlabeled_absent_ids_take_inferred_path(world):
    result = run(world, close=False, max_iters=1, threshold=2.0)
    x_a = result.state_a.store.rows(list(world.split.a_only[:6]))
    unknown = predict_unlabeled(result, x_a, [f"ghost{i}" for i in range(6)])

    from mpdl.dual import dual_infer
    want = split_predict(result.hub, result.model_dual, x_a,
                         dual_infer(result.state_a.model, x_a))
    assert np.array_equal(unknown, want)


# each routed delivery, one row short: unchecked, B's short token list
# would surface as a PartialSum from B, a short InferredBatch as an
# IndexError, and C's short label list would be returned as it stood
@pytest.mark.parametrize("kind, sender, cut", [
    (MessageKind.BlindedIds, "A",
     lambda p: pack_tokens(unpack_tokens(p)[:-1])),
    (MessageKind.InferredBatch, "A",
     lambda p: pack_matrix(unpack_matrix(p)[:-1])),
    (MessageKind.Control, "C",
     lambda p: pack_json({"labels": unpack_json(p)["labels"][:-1]})),
], ids=["tokens", "inferred", "labels"])
def test_predict_unlabeled_rejects_a_short_delivery(world, monkeypatch, kind,
                                                    sender, cut):
    result = run(world, close=False, max_iters=1, threshold=2.0)
    hub = result.hub
    exchange = hub.exchange

    def tampered(src, dst, k, payload, batch_tag=None):
        if k == kind and src == sender:
            payload = cut(payload)
        return exchange(src, dst, k, payload, batch_tag)

    monkeypatch.setattr(hub, "exchange", tampered)
    ids = list(world.split.a_only[:6])
    width = (result.state_b.store.features.shape[1],) \
        if kind == MessageKind.InferredBatch else ()
    message = f"{kind.name} from {sender} has shape {(5, *width)}, " \
        f"expected {(6, *width)}"
    try:
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            predict_unlabeled(result, result.state_a.store.rows(ids), ids)
    finally:
        hub.close()


def test_predict_unlabeled_shape_guard(world):
    result = run(world, close=False, max_iters=1, threshold=2.0)
    with pytest.raises(ValueError):
        predict_unlabeled(result, np.zeros((3, 3)), ["a", "b"])


# -- metrics ---------------------------------------------------------------------------

def test_inference_mae_examples():
    assert inference_mae(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert inference_mae(np.zeros((2, 2)), np.full((2, 2), 0.5)) == 0.5
    assert inference_mae([[1.0, -1.0]], [[0.0, 1.0]]) == 1.5
    with pytest.raises(ValueError):
        inference_mae(np.zeros((2, 2)), np.zeros((3, 2)))
