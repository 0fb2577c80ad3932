"""Split classifier vs its monolithic twin: the losslessness identity."""

import dataclasses

import numpy as np
import pytest

import mpdl.orchestrator
from mpdl.central import (SplitCentralModel, central_forward_backward,
                          init_split_central, one_hot, party_backward,
                          party_forward, to_monolithic)
from mpdl.nn import (DenseLayer, Mlp, backprop_from_output_grad, init_mlp,
                     loss_eval, mlp_forward, sgd_step)
from mpdl.orchestrator import split_predict, split_train
from mpdl.transport import Hub, MessageKind, ProtocolError, pack_matrix, \
    unpack_matrix


@pytest.fixture
def hub():
    h = Hub()
    yield h
    h.close()


def make_model(d_a=3, d_b=4, n_classes=2, seed=0):
    return init_split_central(d_a, d_b, n_classes,
                              np.random.default_rng(seed))


def make_batch(model, n=16, seed=1):
    rng = np.random.default_rng(seed)
    x_a = rng.uniform(size=(n, model.local_a.in_width))
    x_b = rng.uniform(size=(n, model.local_b.in_width))
    labels = rng.integers(0, model.n_classes, size=n)
    return x_a, x_b, labels


def monolithic_step(mono: Mlp, x, labels, n_classes: int, lr: float):
    """Reference single-site SGD step, written out independently."""
    probs, cache = mlp_forward(mono, x)
    loss, grad = loss_eval("cross_entropy", probs, one_hot(labels, n_classes))
    grads, _ = backprop_from_output_grad(mono, cache, grad)
    return sgd_step(mono, grads, lr), loss


# -- building blocks ------------------------------------------------------------

def test_one_hot():
    got = one_hot([0, 2, 1], 3)
    assert np.array_equal(got, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError):
        one_hot([0, 3], 3)
    with pytest.raises(ValueError):
        one_hot([-1], 3)


def test_party_forward_identity_blocks():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    layer = DenseLayer(w, np.array([0.5, 0.0, 0.0]), "identity")
    x = np.array([[3.0, 4.0]])
    got = party_forward(layer, x)
    assert np.array_equal(got, [[3.5, 4.0, 2.0]])


def test_split_model_validation():
    rng = np.random.default_rng(0)
    ok = make_model()
    with pytest.raises(ValueError):
        SplitCentralModel(
            DenseLayer(np.ones((4, 3)), np.zeros(4), "relu"),
            ok.local_b, ok.central)
    with pytest.raises(ValueError):
        SplitCentralModel(
            DenseLayer(np.ones((ok.hidden_width + 1, 3)),
                       np.zeros(ok.hidden_width + 1), "identity"),
            ok.local_b, ok.central)
    with pytest.raises(ValueError):
        SplitCentralModel(ok.local_a, ok.local_b,
                          init_mlp([ok.hidden_width, 2], ["identity"], rng))


def test_uniform_probs_give_ln2_loss():
    # zero weights -> zero logits -> uniform softmax -> loss ln(2)
    model = make_model()
    zero_a = DenseLayer(np.zeros_like(model.local_a.weights),
                        np.zeros(model.hidden_width), "identity")
    zero_b = DenseLayer(np.zeros_like(model.local_b.weights),
                        np.zeros(model.hidden_width), "identity")
    central = Mlp((DenseLayer(np.zeros((2, model.hidden_width)), np.zeros(2),
                              "softmax"),))
    model = SplitCentralModel(zero_a, zero_b, central)
    x_a, x_b, labels = make_batch(model)
    step = central_forward_backward(model, party_forward(model.local_a, x_a),
                                    party_forward(model.local_b, x_b), labels)
    assert step.loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_delta_shared_by_both_parties(hub):
    model = make_model()
    x_a, x_b, labels = make_batch(model)
    split_train(hub, model, x_a, x_b, labels, lr=0.1, epochs=1,
                batch_size=16, rng=np.random.default_rng(0))
    order = np.random.default_rng(0).permutation(16)
    step = central_forward_backward(
        model, party_forward(model.local_a, x_a[order]),
        party_forward(model.local_b, x_b[order]), labels[order])
    sent = [m for m in hub.transcript if m.kind == MessageKind.DeltaError]
    assert [(m.sender, m.receiver) for m in sent] == [("C", "A"), ("C", "B")]
    assert sent[0].payload == sent[1].payload
    assert np.array_equal(unpack_matrix(sent[0].payload), step.delta)


# -- what C and the parties check on receipt ----------------------------------

def test_prediction_rejects_partial_sums_of_different_shapes(hub):
    # one B row against six A rows used to broadcast into six predictions
    model = make_model()
    x_a, x_b, _ = make_batch(model, n=6)
    with pytest.raises(ProtocolError, match=r"PartialSum from B has shape "
                       r"\(1, 5\), expected \(6, 5\)"):
        split_predict(hub, model, x_a, x_b[:1])


def test_training_rejects_a_short_partial_sum(hub, monkeypatch):
    model = make_model()
    x_a, x_b, labels = make_batch(model)
    forward = mpdl.orchestrator.party_forward

    def short_b(local, x):
        z = forward(local, x)
        return z[:1] if local.in_width == model.local_b.in_width else z

    monkeypatch.setattr(mpdl.orchestrator, "party_forward", short_b)
    with pytest.raises(ProtocolError, match="PartialSum from B has shape"):
        split_train(hub, model, x_a, x_b, labels, lr=0.1, epochs=1,
                    batch_size=16, rng=np.random.default_rng(0))


def test_training_rejects_partial_sums_that_miss_a_label(hub, monkeypatch):
    model = make_model()
    x_a, x_b, labels = make_batch(model)
    forward = mpdl.orchestrator.party_forward
    monkeypatch.setattr(mpdl.orchestrator, "party_forward",
                        lambda local, x: forward(local, x)[:-1])
    with pytest.raises(ProtocolError, match=r"^PartialSum from A has shape "
                       r"\(15, 5\), expected \(16, 5\)$"):
        split_train(hub, model, x_a, x_b, labels, lr=0.1, epochs=1,
                    batch_size=16, rng=np.random.default_rng(0))


@pytest.mark.parametrize("party", ["A", "B"])
def test_training_rejects_a_short_delta(hub, party):
    model = make_model()
    x_a, x_b, labels = make_batch(model)
    exchange = hub.exchange

    def short_delta(sender, receiver, kind, payload, batch_tag=None):
        msg = exchange(sender, receiver, kind, payload, batch_tag)
        if kind == MessageKind.DeltaError and receiver == party:
            msg = dataclasses.replace(msg, payload=pack_matrix(
                unpack_matrix(msg.payload)[:1]))
        return msg

    hub.exchange = short_delta
    with pytest.raises(ProtocolError, match=r"^DeltaError from C has shape "
                       r"\(1, 5\), expected \(16, 5\)$"):
        split_train(hub, model, x_a, x_b, labels, lr=0.1, epochs=1,
                    batch_size=16, rng=np.random.default_rng(0))


def test_zero_loss_gives_zero_delta():
    """When predictions are already (numerically) perfect the delta and
    hence every party update must vanish."""
    # positive party weights keep the relu unit alive; a huge central
    # layer then saturates the softmax onto class 0
    local_a = DenseLayer(np.full((4, 3), 0.1), np.zeros(4), "identity")
    local_b = DenseLayer(np.full((4, 4), 0.1), np.zeros(4), "identity")
    big = Mlp((DenseLayer(np.array([[60.0, 0, 0, 0], [-60.0, 0, 0, 0.]]),
                          np.zeros(2), "softmax"),))
    model = SplitCentralModel(local_a, local_b, big)
    x_a = np.full((4, 3), 0.5)
    x_b = np.full((4, 4), 0.5)
    labels = np.zeros(4, dtype=int)
    step = central_forward_backward(model, party_forward(model.local_a, x_a),
                                    party_forward(model.local_b, x_b), labels)
    assert step.loss < 1e-10
    assert np.max(np.abs(step.delta)) < 1e-12
    updated = party_backward(model.local_a, step.delta, x_a, lr=0.5)
    assert np.allclose(updated.weights, model.local_a.weights, atol=1e-12)


def test_party_backward_shape_guard():
    model = make_model()
    x_a, _, _ = make_batch(model, n=8)
    with pytest.raises(ValueError):
        party_backward(model.local_a, np.zeros((5, model.hidden_width)), x_a,
                       0.1)


# -- split == monolithic ----------------------------------------------------------

def test_to_monolithic_same_function():
    model = make_model(seed=3)
    x_a, x_b, _ = make_batch(model, n=32, seed=4)
    mono = to_monolithic(model)
    split_probs, _ = mlp_forward(
        model.central,
        np.maximum(party_forward(model.local_a, x_a) +
                   party_forward(model.local_b, x_b), 0.0))
    mono_probs, _ = mlp_forward(mono, np.hstack([x_a, x_b]))
    assert np.allclose(split_probs, mono_probs, atol=1e-15)


def test_single_step_matches_monolithic(hub):
    model = make_model(seed=5)
    x_a, x_b, labels = make_batch(model, n=20, seed=6)
    mono = to_monolithic(model)
    # one epoch of one batch is a single hub-routed step over the rows in
    # the order of the seeded shuffle
    stepped = split_train(hub, model, x_a, x_b, labels, lr=0.3, epochs=1,
                          batch_size=20, rng=np.random.default_rng(0))
    order = np.random.default_rng(0).permutation(20)
    split_loss = central_forward_backward(
        model, party_forward(model.local_a, x_a[order]),
        party_forward(model.local_b, x_b[order]), labels[order]).loss
    mono_stepped, mono_loss = monolithic_step(
        mono, np.hstack([x_a, x_b])[order], labels[order], model.n_classes,
        0.3)
    assert split_loss == pytest.approx(mono_loss, rel=1e-14)
    recombined = to_monolithic(stepped)
    for got, want in zip(recombined.layers, mono_stepped.layers):
        assert np.max(np.abs(got.weights - want.weights)) < 1e-12
        assert np.max(np.abs(got.bias - want.bias)) < 1e-12


def test_training_trajectory_matches_monolithic(hub):
    """20 epochs of identical minibatch schedules keep the fused weights
    within 1e-10 of the single-site run."""
    model = make_model(d_a=4, d_b=3, seed=7)
    rng = np.random.default_rng(8)
    x_a = rng.uniform(size=(60, 4))
    x_b = rng.uniform(size=(60, 3))
    labels = rng.integers(0, 2, size=60)
    mono = to_monolithic(model)
    x_full = np.hstack([x_a, x_b])
    shuffle_a = np.random.default_rng(99)
    shuffle_b = np.random.default_rng(99)
    model = split_train(hub, model, x_a, x_b, labels, lr=0.2, epochs=20,
                        batch_size=16, rng=shuffle_a)
    n = 60
    for _ in range(20):
        order = shuffle_b.permutation(n)
        for start in range(0, n, 16):
            idx = order[start:start + 16]
            mono, _ = monolithic_step(mono, x_full[idx], labels[idx], 2, 0.2)
    drift = max(
        float(np.max(np.abs(g.weights - w.weights)))
        for g, w in zip(to_monolithic(model).layers, mono.layers))
    assert drift < 1e-10


def test_block_independence():
    """A's update never reads B's features: changing x_b leaves A's new
    weights unchanged when the delta is held fixed."""
    model = make_model()
    x_a, x_b, labels = make_batch(model)
    delta = np.random.default_rng(2).normal(size=(16, model.hidden_width))
    upd1 = party_backward(model.local_a, delta, x_a, 0.1)
    upd2 = party_backward(model.local_a, delta, x_a, 0.1)
    assert np.array_equal(upd1.weights, upd2.weights)
    # and the update uses exactly delta.T @ x_a
    expected = model.local_a.weights - 0.1 * (delta.T @ x_a)
    assert np.allclose(upd1.weights, expected, atol=1e-15)
    assert np.allclose(upd1.bias,
                       model.local_a.bias - 0.1 * 0.5 * delta.sum(axis=0),
                       atol=1e-15)


# -- evaluation -------------------------------------------------------------------

def accuracy(hub, model, x_a, x_b, labels) -> float:
    return float((split_predict(hub, model, x_a, x_b) == labels).mean())


def test_predict_and_evaluate(hub):
    model = make_model(seed=11)
    x_a, x_b, labels = make_batch(model, n=10)
    preds = split_predict(hub, model, x_a, x_b)
    assert preds.shape == (10,)
    assert set(np.unique(preds)) <= {0, 1}
    acc = accuracy(hub, model, x_a, x_b, preds)
    assert acc == 1.0  # evaluating against its own predictions
    acc = accuracy(hub, model, x_a, x_b, 1 - preds)
    assert acc == 0.0


def test_training_improves_separable_data(hub):
    rng = np.random.default_rng(13)
    n = 80
    labels = rng.integers(0, 2, size=n)
    x_a = rng.uniform(size=(n, 3)) * 0.2 + labels[:, None] * 0.6
    x_b = rng.uniform(size=(n, 2)) * 0.2 + (1 - labels[:, None]) * 0.6
    model = make_model(d_a=3, d_b=2, seed=14)
    before = accuracy(hub, model, x_a, x_b, labels)
    model = split_train(hub, model, x_a, x_b, labels, lr=0.5, epochs=30,
                        batch_size=16, rng=np.random.default_rng(15))
    after = accuracy(hub, model, x_a, x_b, labels)
    assert after >= before
    assert after >= 0.95
