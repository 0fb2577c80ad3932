"""Dual-learning round: loss algebra, gradient assembly, the 8-message wire."""

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from mpdl.data import PartyDataset
import mpdl.dual
from mpdl.density import fit_kde, log_density_batch
from mpdl.dual import (DualModelPair, DualPartyState, dual_infer, dual_loss,
                       run_dual_round)
from mpdl.nn import (backprop_from_output_grad, clip_global_norm, init_mlp,
                     loss_eval, mlp_forward, sgd_step)
from mpdl.paillier import keygen
from mpdl.transport import Hub, MessageKind


@pytest.fixture(scope="module")
def keypairs():
    rng = random.Random(515)
    return keygen(512, rng), keygen(512, rng)


def make_states(keypairs, n=12, d_a=3, d_b=2, lam=0.01, lr=0.1,
                init_seed=99, data_seed=17):
    keys_a, keys_b = keypairs
    rng = np.random.default_rng(data_seed)
    xa = rng.uniform(size=(n, d_a))
    xb = rng.uniform(size=(n, d_b))
    ids = tuple(range(n))
    r = np.random.default_rng(init_seed)
    state_a = DualPartyState("A", PartyDataset(ids, xa), fit_kde(xa),
                             init_mlp([d_a, 4, d_b], ["relu", "identity"], r),
                             keys_a, keys_b.public, lam=lam, lr=lr)
    state_b = DualPartyState("B", PartyDataset(ids, xb), fit_kde(xb),
                             init_mlp([d_b, 4, d_a], ["relu", "identity"], r),
                             keys_b, keys_a.public, lam=lam, lr=lr)
    return state_a, state_b


# -- loss and gradient algebra ----------------------------------------------------

def test_dual_loss_examples():
    assert dual_loss(0.0, 0.0, 1.0, 0.0) == 1.0
    assert dual_loss(2.0, 2.0, -3.0, -3.0) == 0.0
    # batch form is the mean of per-sample squared residuals
    got = dual_loss([0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
    assert got == (1.0 ** 2 + 1.0 ** 2) / 2


def test_dual_loss_swap_symmetry():
    rng = np.random.default_rng(3)
    a, b, c, d = rng.normal(size=(4, 10))
    assert dual_loss(a, b, c, d) == pytest.approx(dual_loss(d, c, b, a),
                                                  rel=1e-12)


def test_dual_loss_shape_mismatch():
    with pytest.raises(ValueError):
        dual_loss([0.0, 1.0], [0.0], [0.0], [0.0])


def _round_output_grads(keypairs, monkeypatch, **round_kwargs):
    """Each generator's output-layer gradient in one shadow round, with
    the alignment gradient it contains."""
    state_a, state_b = make_states(keypairs, lam=0.3)
    batch = list(range(6))
    owner = {id(state_a.model): "A", id(state_b.model): "B"}
    align = {}
    for st, partner in ((state_a, state_b), (state_b, state_a)):
        xhat = dual_infer(st.model, st.store.rows(batch))
        align[st.name] = loss_eval("mse", xhat,
                                   partner.store.rows(batch))[1]
    seen = {}

    def capture(model, cache, out_grad):
        seen[owner[id(model)]] = out_grad
        return backprop_from_output_grad(model, cache, out_grad)

    monkeypatch.setattr(mpdl.dual, "backprop_from_output_grad", capture)
    hub = Hub()
    run_dual_round(state_a, state_b, batch, hub, random.Random(5),
                   use_encryption=False, **round_kwargs)
    hub.close()
    assert seen.keys() == align.keys()
    return [(seen[k], align[k]) for k in "AB"]


def test_exact_duality_grad_doubles_the_rounds_duality_term(keypairs,
                                                             monkeypatch):
    half = _round_output_grads(keypairs, monkeypatch)
    full = _round_output_grads(keypairs, monkeypatch,
                               exact_duality_grad=True)
    for (g_half, align), (g_full, align_again) in zip(half, full):
        assert np.array_equal(align, align_again)
        duality = g_half - align
        assert np.abs(duality).max() > 1e-6
        assert np.allclose(g_full - align, 2.0 * duality, rtol=0.0,
                           atol=1e-12)


def test_dual_output_grad_matches_finite_differences(keypairs, monkeypatch):
    """Exact-mode output gradient of each generator equals the derivative of

        L(xhat) = mse(xhat, x) + lam * mean(r(xhat)^2)

    where r is the round's residual and the partner's part of r is held
    fixed.
    """
    seen = {}

    def capture(model, cache, out_grad):
        seen[id(model)] = out_grad
        return backprop_from_output_grad(model, cache, out_grad)

    monkeypatch.setattr(mpdl.dual, "backprop_from_output_grad", capture)
    eps = 1e-6
    checked = 0
    for trial in range(20):
        state_a, state_b = make_states(keypairs, lam=0.05,
                                       init_seed=700 + trial,
                                       data_seed=800 + trial)
        batch = list(range(5))
        lam = state_a.lam
        x_a = state_a.store.rows(batch)
        x_b = state_b.store.rows(batch)
        xhat_b = mlp_forward(state_a.model, x_a)[0]
        xhat_a = mlp_forward(state_b.model, x_b)[0]
        logp_a = log_density_batch(state_a.kde, x_a)
        logp_b = log_density_batch(state_b.kde, x_b)
        # r = logP_A(x_A) - logP_A(xhat_A) + logP_B(xhat_B) - logP_B(x_B)
        a_part = logp_a - log_density_batch(state_a.kde, xhat_a)
        b_part = log_density_batch(state_b.kde, xhat_b) - logp_b

        def composite_b(pt):
            mse = float(((pt - x_b) ** 2).sum() / len(batch))
            r = a_part + log_density_batch(state_b.kde, pt) - logp_b
            return mse + lam * float((r * r).mean())

        def composite_a(pt):
            mse = float(((pt - x_a) ** 2).sum() / len(batch))
            r = logp_a - log_density_batch(state_a.kde, pt) + b_part
            return mse + lam * float((r * r).mean())

        models = (state_a.model, state_b.model)
        hub = Hub()
        run_dual_round(state_a, state_b, batch, hub, random.Random(trial),
                       use_encryption=False, exact_duality_grad=True,
                       residual_clip=1e9, grad_clip=1e9)
        hub.close()
        for model, xhat, composite in ((models[0], xhat_b, composite_b),
                                       (models[1], xhat_a, composite_a)):
            got = seen[id(model)]
            assert got.shape == xhat.shape
            for i, j in np.ndindex(xhat.shape):
                up = xhat.copy()
                up[i, j] += eps
                dn = xhat.copy()
                dn[i, j] -= eps
                numeric = (composite(up) - composite(dn)) / (2 * eps)
                assert abs(got[i, j] - numeric) <= 1e-4 * max(
                    1.0, abs(numeric))
                checked += 1
    assert checked == 20 * 5 * (2 + 3)


# -- the wire protocol ---------------------------------------------------------------

def test_round_is_exactly_eight_messages(keypairs):
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    run_dual_round(state_a, state_b, list(range(8)), hub, random.Random(1))
    msgs = hub.transcript.messages()
    assert len(msgs) == 8
    expected = [
        ("A", "B", MessageKind.InferredBatch),
        ("B", "A", MessageKind.InferredBatch),
        ("B", "A", MessageKind.GradTerm),
        ("B", "A", MessageKind.CipherBlock),
        ("A", "B", MessageKind.GradTerm),
        ("A", "B", MessageKind.CipherBlock),
        ("A", "B", MessageKind.CipherBlock),
        ("B", "A", MessageKind.CipherBlock),
    ]
    assert [(m.sender, m.receiver, m.kind) for m in msgs] == expected
    hub.close()


def test_round_rejects_bad_inputs(keypairs):
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    with pytest.raises(ValueError):
        run_dual_round(state_a, state_b, [], hub, random.Random(1))
    state_a.name = "Q"
    with pytest.raises(ValueError):
        run_dual_round(state_a, state_b, [0], hub, random.Random(1))
    state_a.name = "A"
    with pytest.raises(ValueError):
        run_dual_round(state_a, state_b, [0], hub, random.Random(1),
                       residual_clip=0.0)
    with pytest.raises(ValueError):
        run_dual_round(state_a, state_b, [0], hub, random.Random(1),
                       grad_clip=-1.0)
    hub.close()


def test_round_accepts_swapped_argument_order(keypairs):
    sa1, sb1 = make_states(keypairs)
    sa2, sb2 = make_states(keypairs)
    hub1, hub2 = Hub(), Hub()
    r1 = run_dual_round(sa1, sb1, list(range(6)), hub1, random.Random(2),
                        use_encryption=False)
    r2 = run_dual_round(sb2, sa2, list(range(6)), hub2, random.Random(2),
                        use_encryption=False)
    for l1, l2 in zip(r1.pair.a_to_b.layers, r2.pair.a_to_b.layers):
        assert np.array_equal(l1.weights, l2.weights)
    hub1.close()
    hub2.close()


def test_encrypted_round_matches_plaintext(keypairs):
    results = {}
    for encrypted in (True, False):
        state_a, state_b = make_states(keypairs)
        hub = Hub()
        res = run_dual_round(state_a, state_b, list(range(10)), hub,
                             random.Random(5), use_encryption=encrypted)
        results[encrypted] = res.pair
        hub.close()
    for enc, plain in ((results[True].a_to_b, results[False].a_to_b),
                       (results[True].b_to_a, results[False].b_to_a)):
        for le, lp in zip(enc.layers, plain.layers):
            assert np.max(np.abs(le.weights - lp.weights)) <= 2 ** -35
            assert np.max(np.abs(le.bias - lp.bias)) <= 2 ** -35


@pytest.mark.parametrize("encrypted", [True, False])
def test_lambda_zero_reduces_to_alignment_regression(keypairs, encrypted):
    """With lam=0 a round is plain cross-regression; updates must be
    bit-identical to a local mse step with the same norm clipping."""
    state_a, state_b = make_states(keypairs, lam=0.0)
    xa = state_a.store.features
    xb = state_b.store.features
    expected = {}
    for name, st, batch_x, target in (("f", state_a, xa, xb),
                                      ("g", state_b, xb, xa)):
        out, cache = mlp_forward(st.model, batch_x)
        _, grad = loss_eval("mse", out, target)
        grads = clip_global_norm(
            backprop_from_output_grad(st.model, cache, grad).layer_grads, 1.0)
        expected[name] = sgd_step(st.model, grads, st.lr)
    hub = Hub()
    res = run_dual_round(state_a, state_b, list(range(12)), hub,
                         random.Random(3), use_encryption=encrypted)
    hub.close()
    for got, want in ((res.pair.a_to_b, expected["f"]),
                      (res.pair.b_to_a, expected["g"])):
        for lg, lw in zip(got.layers, want.layers):
            assert np.array_equal(lg.weights, lw.weights)
            assert np.array_equal(lg.bias, lw.bias)


def test_rounds_fit_a_linear_map(keypairs):
    """Invertible linear ground truth: repeated rounds drive both
    alignment errors well below the initial level."""
    keys_a, keys_b = keypairs
    rng = np.random.default_rng(21)
    m = np.array([[0.6, 0.3], [0.2, 0.5]])
    xa = rng.uniform(size=(40, 2))
    xb = xa @ m
    ids = tuple(range(40))
    r = np.random.default_rng(33)
    state_a = DualPartyState("A", PartyDataset(ids, xa), fit_kde(xa),
                             init_mlp([2, 2], ["identity"], r),
                             keys_a, keys_b.public, lam=1e-4, lr=0.2)
    state_b = DualPartyState("B", PartyDataset(ids, xb), fit_kde(xb),
                             init_mlp([2, 2], ["identity"], r),
                             keys_b, keys_a.public, lam=1e-4, lr=0.2)
    hub = Hub()

    def mse_f():
        return float(((dual_infer(state_a.model, xa) - xb) ** 2).mean())

    start = mse_f()
    for epoch in range(250):
        res = run_dual_round(state_a, state_b, ids, hub, random.Random(epoch),
                             use_encryption=False)
        state_a.model = res.pair.a_to_b
        state_b.model = res.pair.b_to_a
    hub.close()
    assert mse_f() < 1e-3
    assert mse_f() < start / 10


def test_duality_loss_drops_over_rounds(keypairs):
    state_a, state_b = make_states(keypairs, n=30, lam=0.05, lr=0.05,
                                   data_seed=2)
    ids = state_a.store.ids
    hub = Hub()

    def current_dual_loss():
        xhat_b = dual_infer(state_a.model, state_a.store.features)
        xhat_a = dual_infer(state_b.model, state_b.store.features)
        return dual_loss(
            log_density_batch(state_a.kde, state_a.store.features),
            log_density_batch(state_a.kde, xhat_a),
            log_density_batch(state_b.kde, xhat_b),
            log_density_batch(state_b.kde, state_b.store.features))

    start = current_dual_loss()
    for epoch in range(25):
        res = run_dual_round(state_a, state_b, ids, hub, random.Random(epoch),
                             use_encryption=False)
        state_a.model = res.pair.a_to_b
        state_b.model = res.pair.b_to_a
    hub.close()
    assert current_dual_loss() < start


def test_model_pair_width_guard():
    r = np.random.default_rng(0)
    f = init_mlp([3, 2], ["identity"], r)
    g_bad = init_mlp([3, 2], ["identity"], r)
    with pytest.raises(ValueError):
        DualModelPair(f, g_bad)
    g_good = init_mlp([2, 3], ["identity"], r)
    DualModelPair(f, g_good)


# -- per-run log P(x) table ---------------------------------------------------

def _epochs(state_a, state_b, hub, epochs, batch=4, seed=21):
    order_rng = np.random.default_rng(seed)
    ids = state_a.store.ids
    for _ in range(epochs):
        order = order_rng.permutation(len(ids))
        for start in range(0, len(ids), batch):
            run_dual_round(state_a, state_b,
                           [ids[k] for k in order[start:start + batch]],
                           hub, random.Random(start), use_encryption=False)


def test_own_rows_evaluated_once_per_run(keypairs, monkeypatch):
    seen = Counter()
    original = mpdl.dual.log_density_batch

    def counting(model, x):
        for row in np.asarray(x):
            seen[id(model), row.tobytes()] += 1
        return original(model, x)

    monkeypatch.setattr(mpdl.dual, "log_density_batch", counting)
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    try:
        _epochs(state_a, state_b, hub, epochs=3)
    finally:
        hub.close()
    for st in (state_a, state_b):
        assert [seen[id(st.kde), row.tobytes()]
                for row in st.store.features] == [1] * len(st.store.ids)


def test_own_log_density_matches_direct_evaluation(keypairs):
    state_a, _ = make_states(keypairs)
    for ids in ([3, 1, 4], [1, 5, 9, 2, 6], list(range(12)), [5]):
        assert np.array_equal(
            state_a.own_log_density(ids),
            log_density_batch(state_a.kde, state_a.store.rows(ids)))


def _frames_and_weights(state_a, state_b, batch):
    hub = Hub()
    try:
        res = run_dual_round(state_a, state_b, batch, hub, random.Random(5),
                             use_encryption=False)
        frames = hub.transcript.frames()
    finally:
        hub.close()
    return frames, [layer.weights for model in (res.pair.a_to_b,
                                                res.pair.b_to_a)
                    for layer in model.layers]


@pytest.mark.parametrize("swap", ["kde", "store"])
def test_table_resets_when_kde_or_store_changes(keypairs, swap):
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    try:
        _epochs(state_a, state_b, hub, epochs=2)
    finally:
        hub.close()
    if swap == "kde":
        state_a.kde = fit_kde(state_a.store.features,
                              bandwidth=2 * state_a.kde.bandwidth)
    else:
        features = np.random.default_rng(3).uniform(size=(14, 3))
        state_a.store = PartyDataset(tuple(range(14)), features)
    fresh_a = DualPartyState("A", state_a.store, state_a.kde, state_a.model,
                             state_a.keys, state_a.partner_public,
                             state_a.lam, state_a.lr)
    fresh_b = dataclasses.replace(state_b)
    batch = [0, 3, 7, 11]
    got_frames, got_weights = _frames_and_weights(state_a, state_b, batch)
    want_frames, want_weights = _frames_and_weights(fresh_a, fresh_b, batch)
    assert got_frames == want_frames
    assert len(got_weights) == len(want_weights)
    assert all(np.array_equal(g, w)
               for g, w in zip(got_weights, want_weights))


def test_table_is_private_to_each_state(keypairs):
    state_a, _ = make_states(keypairs)
    state_a.own_log_density([0, 1, 2])
    copy = dataclasses.replace(state_a)
    fresh = DualPartyState("A", state_a.store, state_a.kde, state_a.model,
                           state_a.keys, state_a.partner_public,
                           state_a.lam, state_a.lr)
    assert copy == state_a == fresh
    assert repr(copy) == repr(state_a) == repr(fresh)
    assert "_logp" not in repr(state_a)
    assert copy._logp is None and fresh._logp is None
    copy.own_log_density([0, 1, 2])
    assert copy._logp[2] is not state_a._logp[2]
