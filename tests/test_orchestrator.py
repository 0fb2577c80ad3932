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

import mpdl.central
import mpdl.dual
import mpdl.nn
import mpdl.orchestrator
import mpdl.paillier
from mpdl.central import init_split_central
from mpdl.data import PartyDataset
from mpdl.density import fit_kde
from mpdl.dual import DualPartyState, run_dual_round
from mpdl.nn import as_batch, init_mlp
from mpdl.orchestrator import (MpdlConfig, inference_mae, mpdl_train,
                               predict_unlabeled, prepare_experiment,
                               split_predict, split_train,
                               train_dual_generators)
from mpdl.paillier import keygen
from mpdl.synthetic import linear_task
from mpdl.transport import Hub, MessageKind, ProtocolError, \
    decode_message, encode_message, pack_json, pack_matrix, pack_tokens, \
    unpack_json, unpack_matrix, unpack_tokens


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


def test_config_refuses_a_single_fold():
    # kfold_split needs two folds; the run used to fail only after keygen,
    # perturbation, both KDE fits, the alignment and the label hand-off
    with pytest.raises(ValueError, match="^folds must be at least 2, got 1"):
        MpdlConfig(gamma=0.3, folds=1, max_iters=1)


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
    assert r1.report == r2.report
    for l1, l2 in zip(r1.model_dual.central.layers,
                      r2.model_dual.central.layers):
        assert np.array_equal(l1.weights, l2.weights)


def test_different_seed_changes_run(world):
    r1 = run(world, seed=7)
    r2 = run(world, seed=8)
    assert r1.report != r2.report


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
    settings = dict(use_encryption=False)
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


# -- where arrays are checked --------------------------------------------------

def _count_as_batch(monkeypatch):
    """The calls of ``as_batch`` made where nn, central, orchestrator and
    dual look it up."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return as_batch(*args, **kwargs)

    for module in (mpdl.nn, mpdl.central, mpdl.orchestrator, mpdl.dual):
        if hasattr(module, "as_batch"):
            monkeypatch.setattr(module, "as_batch", counted)
    return calls


def test_split_train_checks_its_rows_once_at_entry(monkeypatch):
    # the step loop computes on rows checked here, sums and deltas
    # checked on receipt, and parameters checked by their constructors
    rng = np.random.default_rng(8)
    x_a, x_b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 2))
    model = init_split_central(3, 2, 2, rng)
    calls = _count_as_batch(monkeypatch)
    hub = Hub()
    try:
        split_train(hub, model, x_a, x_b, np.array([0, 1, 0, 1, 1, 0]), 0.1,
                    2, 2, np.random.default_rng(0))
    finally:
        hub.close()
    assert len(calls) == 2


@pytest.mark.parametrize("count", [8, 3])
def test_split_train_refuses_labels_of_another_row_count(count):
    # 8 labels trained on the first 6 without a word, 3 raised IndexError
    rng = np.random.default_rng(8)
    x_a, x_b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 2))
    model = init_split_central(3, 2, 2, rng)
    hub = Hub()
    try:
        with pytest.raises(ValueError, match=f"^x_a has 6 rows but labels "
                                             f"has {count}$"):
            split_train(hub, model, x_a, x_b, np.arange(count) % 2, 0.1, 1,
                        2, np.random.default_rng(0))
    finally:
        hub.close()
    assert len(hub.transcript) == 0


def test_split_train_refuses_x_b_of_another_row_count():
    rng = np.random.default_rng(8)
    x_a, x_b = rng.uniform(size=(6, 3)), rng.uniform(size=(5, 2))
    model = init_split_central(3, 2, 2, rng)
    hub = Hub()
    try:
        with pytest.raises(ValueError, match="^x_a has 6 rows but x_b has "
                                             "5$"):
            split_train(hub, model, x_a, x_b, np.arange(6) % 2, 0.1, 1, 2,
                        np.random.default_rng(0))
    finally:
        hub.close()


def test_split_train_packs_each_delta_once(monkeypatch):
    # per step: A's and B's partial sums, and one delta for both parties
    rng = np.random.default_rng(8)
    x_a, x_b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 2))
    model = init_split_central(3, 2, 2, rng)
    packed, original = [], mpdl.orchestrator.pack_matrix

    def counting(arr):
        packed.append(np.shape(arr))
        return original(arr)

    monkeypatch.setattr(mpdl.orchestrator, "pack_matrix", counting)
    hub = Hub()
    try:
        split_train(hub, model, x_a, x_b, np.arange(6) % 2, 0.1, 1, 2,
                    np.random.default_rng(0))
        kinds = Counter(m.kind for m in hub.transcript)
    finally:
        hub.close()
    assert len(packed) == 3 * 3
    assert kinds == {MessageKind.PartialSum: 6, MessageKind.DeltaError: 6}


def test_dual_round_checks_no_array_again(keypairs, monkeypatch):
    # a round's rows come from a PartyDataset and its matrices from
    # receive_matrix, so the generator passes compute without a check
    state_a, state_b, ids = _dual_states(keypairs)
    calls = _count_as_batch(monkeypatch)
    hub = Hub()
    try:
        run_dual_round(state_a, state_b, ids[:5], hub, random.Random(4),
                       use_encryption=False)
    finally:
        hub.close()
    assert calls == []


# sha256 over every frame of one seeded run, in send order: a refactor of
# any protocol step must leave the bytes on the wire unchanged
GOLDEN_FRAMES = {
    "encrypted": "d2bfa186479397955d4e52afab535938"
                 "9f7f0471e1027e95c8883dd5e3d5721d",
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
    "encrypted": "aa44fdb947ef28ca5eda740b476e4e91"
                 "cda12b37ac0c390c627df9c7e8d2e5b4",
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


def test_only_an_encrypted_run_builds_encryption_tables():
    tables = mpdl.paillier._fixed_base_table
    tables.cache_clear()
    _golden_run(Hub(), use_encryption=False)
    assert tables.cache_info().currsize == 0
    _golden_run(Hub())
    # both keys, each mod p^2 and q^2, built once in this process
    assert tables.cache_info().currsize == tables.cache_info().misses == 4


# sha256 over the golden encrypted run's final generator weights and
# biases and its report's scores: the encryption randomness may change
# the frames, but never a decrypted value, so never these
GOLDEN_VALUES_ENCRYPTED = ("fff6659f4a629fb31743df84dc78e906"
                           "ee8b24b604981c79adee890247654034")


def test_encrypted_run_values_match_golden_digest():
    world = prepare_experiment(linear_task(80, 2, 2, seed=3), 0.3, seed=3)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=3, key_bits=512,
                     dual_epochs=1, central_epochs=2, max_iters=1,
                     batch_size=16)
    hub = Hub()
    try:
        result = mpdl_train(world, cfg, hub)
    finally:
        hub.close()
    digest = hashlib.sha256()
    for model in (result.pair.a_to_b, result.pair.b_to_a):
        for layer in model.layers:
            digest.update(layer.weights.tobytes())
            digest.update(layer.bias.tobytes())
    report = result.report
    digest.update(np.array([report.accuracy_joint, report.accuracy_dual,
                            report.accuracy_unlabeled,
                            report.inference_mae]).tobytes())
    assert digest.hexdigest() == GOLDEN_VALUES_ENCRYPTED


def _wide_plaintext_run(hub):
    """A plaintext run whose density calls share a worker (32 rows
    against supports over 2,000), and its frames."""
    world = prepare_experiment(linear_task(3600, 2, 2, seed=4), 0.3, seed=4)
    cfg = MpdlConfig(gamma=0.3, epsilon=8.0, seed=4, dual_epochs=1,
                     central_epochs=1, max_iters=1, use_encryption=False)
    try:
        result = mpdl_train(world, cfg, hub)
        assert mpdl.dual._shares_density(result.state_a, result.state_b,
                                         cfg.batch_size)
        return hub.transcript.frames()
    finally:
        hub.close()


def test_wide_plaintext_run_on_one_cpu_forks_nothing(monkeypatch):
    seen = _count_workers_per_round(monkeypatch)
    shared = _wide_plaintext_run(Hub())
    assert seen and set(seen) == {len(os.sched_getaffinity(0)) - 1}
    seen.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _wide_plaintext_run(Hub()) == shared
    assert seen and set(seen) == {0}
    assert multiprocessing.active_children() == []


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


# the first of each matrix kind, poisoned in transit: unchecked, each
# raised nn.as_batch's ValueError deep in the receiver, which the CLI
# reports as an invalid configuration (exit 2), not a peer's fault (3)
@pytest.mark.parametrize("kind, sender, bad", [
    (MessageKind.InferredBatch, "A", np.nan),
    (MessageKind.GradTerm, "B", np.inf),
    (MessageKind.PartialSum, "A", -np.inf),
    (MessageKind.DeltaError, "C", np.nan),
], ids=["inferred", "grad-term", "partial-sum", "delta"])
def test_run_rejects_a_non_finite_matrix(kind, sender, bad):
    hub = Hub()
    exchange, poisoned = hub.exchange, []

    def tampered(src, dst, k, payload, batch_tag=None):
        if k == kind and not poisoned:
            mat = unpack_matrix(payload)
            mat[0, 0] = bad
            payload = pack_matrix(mat)
            poisoned.append(src)
        return exchange(src, dst, k, payload, batch_tag)

    hub.exchange = tampered
    with pytest.raises(ProtocolError, match=f"^{kind.name} from {sender} "
                                            f"holds a non-finite entry$"):
        _golden_run(hub, use_encryption=False)
    assert poisoned == [sender]


def _send_first_twice(hub, channel, kind):
    """The first frame of ``kind`` on ``channel`` is put on it twice."""
    ch = hub._channels[channel]
    send, done = ch.send, []

    def twice(frame):
        send(frame)
        if not done and decode_message(frame).kind == kind:
            done.append(frame)
            send(frame)

    ch.send = twice


def test_split_train_refuses_a_repeated_delta():
    # at batch size 2 every step's delta has the same shape, so unchecked
    # the repeat was taken as the next step's delta
    rng = np.random.default_rng(8)
    x_a, x_b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 2))
    model = init_split_central(3, 2, 2, rng)
    hub = Hub()
    _send_first_twice(hub, ("C", "A"), MessageKind.DeltaError)
    try:
        with pytest.raises(ProtocolError, match=r"^msg 2 \(DeltaError\) from "
                                                r"C does not follow msg 2 "):
            split_train(hub, model, x_a, x_b, np.array([0, 1, 0, 1, 1, 0]),
                        0.1, 1, 2, np.random.default_rng(0))
    finally:
        hub.close()


def test_predict_unlabeled_refuses_a_repeated_label_list(world):
    # unchecked, a second routing took the first one's labels
    result = run(world, close=False, max_iters=1, threshold=2.0)
    hub = result.hub
    ids = list(world.split.a_only[:6])
    x_a = result.state_a.store.rows(ids)
    _send_first_twice(hub, ("C", "A"), MessageKind.Control)
    try:
        predict_unlabeled(result, x_a, ids)
        with pytest.raises(ProtocolError, match=r"\(Control\) from C does "
                                                r"not follow msg "):
            predict_unlabeled(result, x_a, ids)
    finally:
        hub.close()


@pytest.mark.parametrize("backend", ["local", "tcp"])
def test_run_refuses_to_return_with_a_frame_unread(world, backend):
    # the routing's label list is the last message on C -> A, so its
    # repeat is never read: unchecked, the run returned normally
    hub = Hub(backend)
    _send_first_twice(hub, ("C", "A"), MessageKind.Control)
    try:
        with pytest.raises(ProtocolError, match=r"^channel C->A holds a "
                                                r"frame its receiver never "
                                                r"took$"):
            mpdl_train(world, MpdlConfig(gamma=0.3,
                                         **{**FAST, "max_iters": 1}), hub)
    finally:
        hub.close()


# B's labels for C are a dict of ints, C's for A a list of ints; a
# payload of another shape raised TypeError unchecked
@pytest.mark.parametrize("sender, receiver, body, wanted", [
    ("B", "C", {"labels": 5}, "dict"),
    ("C", "A", [1, 2, 3], "list"),
], ids=["labels-to-c", "labels-from-c"])
def test_run_rejects_a_control_without_its_labels(sender, receiver, body,
                                                  wanted):
    hub = Hub()
    exchange = hub.exchange

    def tampered(src, dst, kind, payload, batch_tag=None):
        if kind == MessageKind.Control and (src, dst) == (sender, receiver):
            payload = pack_json(body)
        return exchange(src, dst, kind, payload, batch_tag)

    hub.exchange = tampered
    with pytest.raises(ProtocolError, match=f"^Control from {sender} holds "
                                            f"no {wanted} of labels$"):
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
