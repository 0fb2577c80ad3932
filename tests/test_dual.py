"""Dual-learning round: loss algebra, gradient assembly, the 8-message wire."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from mpdl.data import PartyDataset
import mpdl.dual
from mpdl import paillier
from mpdl.density import KdeModel, fit_kde, log_density_batch
from mpdl.dual import (RESIDUAL_CLIP, DualModelPair, DualPartyState,
                       dual_infer, dual_loss, run_dual_round)
from mpdl.nn import (backprop_from_output_grad, clip_global_norm, init_mlp,
                     loss_eval, mlp_forward, sgd_step)
from mpdl.paillier import DEFAULT_SCALE, keygen, plaintext_bound
from mpdl.transport import Hub, MessageKind, ProtocolError, pack_ciphers, \
    pack_matrix, unpack_ciphers, unpack_matrix


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
    monkeypatch.setattr(mpdl.dual, "RESIDUAL_CLIP", 1e9)
    monkeypatch.setattr(mpdl.dual, "GRAD_CLIP", 1e9)
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
                       use_encryption=False, exact_duality_grad=True)
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
    hub.close()


@pytest.mark.parametrize("encrypted", [True, False])
def test_round_rejects_a_cross_term_of_the_wrong_shape(keypairs, monkeypatch,
                                                        encrypted):
    # a (1, d) cross term would broadcast over the (6, d) plaintext part;
    # only B's, the round's last message, is cut
    codec = mpdl.dual._PaillierCodec if encrypted else mpdl.dual._ShadowCodec
    original = codec.cross

    def first_row(self, pk, sealed, mult, sender):
        if sender == "B":  # A crosses B's sealed residual
            return original(self, pk, sealed, mult, sender)
        if encrypted:
            # the sealed residual is cut to match, so only the cross
            # term's shape is wrong
            key_id, scale, _, _, cts = unpack_ciphers(sealed)
            return original(self, pk, pack_ciphers(key_id, scale, 1, 1,
                                                   cts[:1]),
                            mult[:1], sender)
        # the shadow would broadcast a one-row multiplier back to 6 rows
        return pack_matrix(unpack_matrix(
            original(self, pk, sealed, mult, sender))[:1])

    monkeypatch.setattr(codec, "cross", first_row)
    state_a, state_b = make_states(keypairs)
    before = (state_a.model, state_b.model)
    kind = "CipherBlock" if encrypted else "GradTerm"
    hub = Hub()
    with pytest.raises(ProtocolError, match=rf"^{kind} from B has shape "
                                            r"\(1, 2\), expected \(6, 2\)$"):
        run_dual_round(state_a, state_b, list(range(6)), hub,
                       random.Random(3), use_encryption=encrypted)
    hub.close()
    assert state_a.model is before[0] and state_b.model is before[1]


def _encrypted_round_tampering(keypairs, monkeypatch, step, tamper):
    """Run one encrypted round whose sealed residuals (``step`` "seal")
    or cross terms ("cross") pass through ``tamper``."""
    original = getattr(mpdl.dual._PaillierCodec, step)

    def tampered(self, *args):
        return pack_ciphers(*tamper(*unpack_ciphers(original(self, *args))))

    monkeypatch.setattr(mpdl.dual._PaillierCodec, step, tampered)
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    try:
        run_dual_round(state_a, state_b, list(range(6)), hub,
                       random.Random(3))
    finally:
        hub.close()


def test_round_rejects_a_cross_term_under_another_key(keypairs, monkeypatch):
    keys_a, keys_b = keypairs
    # the cross term for B is sealed under B's key; relabel it as A's
    swap = {keys_b.public.key_id: keys_a.public.key_id,
            keys_a.public.key_id: keys_b.public.key_id}
    with pytest.raises(ProtocolError,
                       match=rf"^CipherBlock from A is under key "
                             rf"{keys_a.public.key_id}, expected "
                             rf"{keys_b.public.key_id}$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, "cross",
            lambda kid, *rest: (swap[kid], *rest))


def test_round_rejects_a_zero_ciphertext_in_a_cross_term(keypairs,
                                                         monkeypatch):
    _, keys_b = keypairs
    with pytest.raises(ProtocolError,
                       match=rf"^CipherBlock from A under key "
                             rf"{keys_b.public.key_id} holds a ciphertext "
                             r"outside \(0, n\^2\)$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, "cross",
            lambda kid, scale, rows, cols, cts: (kid, scale, rows, cols,
                                                 (0,) + cts[1:]))


@pytest.mark.parametrize("step, sender, want", [("seal", "B", 40),
                                                 ("cross", "A", 80)])
def test_round_rejects_a_cipher_block_at_another_scale(keypairs, monkeypatch,
                                                       step, sender, want):
    # a cross term relabelled 2^40 would open 2^40 times too large, and a
    # sealed residual relabelled 2^80 would cross into one at 2^120
    got = 120 - want
    with pytest.raises(ProtocolError,
                       match=rf"^CipherBlock from {sender} has scale "
                             rf"2\^{got}, expected 2\^{want}$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, step,
            lambda kid, scale, *rest: (kid, 2 ** got, *rest))


def test_round_rejects_a_sealed_residual_under_another_key(keypairs,
                                                          monkeypatch):
    keys_a, keys_b = keypairs
    swap = {keys_b.public.key_id: keys_a.public.key_id,
            keys_a.public.key_id: keys_b.public.key_id}
    with pytest.raises(ProtocolError,
                       match=rf"^CipherBlock from B is under key "
                             rf"{keys_a.public.key_id}, expected "
                             rf"{keys_b.public.key_id}$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, "seal",
            lambda kid, *rest: (swap[kid], *rest))


def test_round_rejects_a_zero_ciphertext_in_a_sealed_residual(keypairs,
                                                              monkeypatch):
    _, keys_b = keypairs
    with pytest.raises(ProtocolError,
                       match=rf"^CipherBlock from B under key "
                             rf"{keys_b.public.key_id} holds a ciphertext "
                             r"outside \(0, n\^2\)$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, "seal",
            lambda kid, scale, rows, cols, cts: (kid, scale, rows, cols,
                                                 (0,) + cts[1:]))


def test_round_rejects_extra_rows_in_a_sealed_residual(keypairs,
                                                       monkeypatch):
    # one residual too many would be dropped by the row-wise cross product
    with pytest.raises(ProtocolError, match=r"^CipherBlock from B has shape "
                                            r"\(7, 1\), expected \(6, 1\)$"):
        _encrypted_round_tampering(
            keypairs, monkeypatch, "seal",
            lambda kid, scale, rows, cols, cts: (kid, scale, rows + 1, cols,
                                                 cts + cts[:1]))


def test_shadow_round_rejects_a_one_row_sealed_residual(keypairs,
                                                        monkeypatch):
    # a (1, 1) residual would broadcast over the whole batch
    original = mpdl.dual._ShadowCodec.seal
    monkeypatch.setattr(mpdl.dual._ShadowCodec, "seal",
                        lambda self, keys, resid: original(self, keys,
                                                           resid[:1]))
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    with pytest.raises(ProtocolError, match=r"^GradTerm from B has shape "
                                            r"\(1, 1\), expected \(6, 1\)$"):
        run_dual_round(state_a, state_b, list(range(6)), hub,
                       random.Random(3), use_encryption=False)
    hub.close()


@pytest.mark.parametrize("encrypted", [True, False])
@pytest.mark.parametrize("cut, got", [(np.s_[:1], (1, 3)),
                                      (np.s_[:, :2], (6, 2))],
                         ids=["one-row", "narrow"])
def test_round_rejects_a_mis_shaped_inferred_batch(keypairs, monkeypatch,
                                                   encrypted, cut, got):
    state_a, state_b = make_states(keypairs)
    before = (state_a.model, state_b.model)
    hub = Hub()
    exchange = hub.exchange

    def tampered(sender, receiver, kind, payload, batch_tag=None):
        if kind == MessageKind.InferredBatch and sender == "B":
            payload = pack_matrix(unpack_matrix(payload)[cut])
        return exchange(sender, receiver, kind, payload, batch_tag)

    monkeypatch.setattr(hub, "exchange", tampered)
    with pytest.raises(ProtocolError,
                       match=rf"^InferredBatch from B has shape "
                             rf"\({got[0]}, {got[1]}\), expected \(6, 3\)$"):
        run_dual_round(state_a, state_b, list(range(6)), hub,
                       random.Random(3), use_encryption=encrypted)
    hub.close()
    assert state_a.model is before[0] and state_b.model is before[1]


# -- the cross terms' plaintext bound ------------------------------------------

def _open_cross_term(keypairs, mult):
    """B's residual -RESIDUAL_CLIP, crossed by A with ``mult`` and opened
    by B."""
    _, keys_b = keypairs
    codec = mpdl.dual._PaillierCodec(random.Random(6), paillier.serial_map)
    sealed = codec.seal(keys_b, np.array([-RESIDUAL_CLIP]))
    payload = codec.cross(keys_b.public, sealed, np.array([[mult]]), "B")
    return codec.open(keys_b.secret, payload, "A", (1, 1))


def test_cross_refuses_a_multiplier_that_could_reach_the_bound(keypairs):
    n = keypairs[1].public.n
    resid_mantissa = math.ceil(RESIDUAL_CLIP * DEFAULT_SCALE)
    # the largest float multiplier whose mantissa times the clipped
    # residual's stays below the bound, and the next float up
    limit = (plaintext_bound(n) - 1) // resid_mantissa
    k = float(limit)
    if int(k) > limit:
        k = float(np.nextafter(k, 0.0))
    under = k / DEFAULT_SCALE
    over = float(np.nextafter(under, np.inf))
    assert round(over * DEFAULT_SCALE) * resid_mantissa >= plaintext_bound(n)
    for mult in (under, -under):
        assert _open_cross_term(keypairs, mult)[0, 0] == RESIDUAL_CLIP * mult
    for mult in (over, -over):
        with pytest.raises(OverflowError, match="decryption bound"):
            _open_cross_term(keypairs, mult)


@pytest.mark.parametrize("mult", [np.nan, np.inf, -np.inf])
def test_cross_keeps_the_encoders_error_for_a_non_finite_multiplier(
        keypairs, mult):
    with pytest.raises(ValueError, match="^cannot encode a non-finite value$"):
        _open_cross_term(keypairs, mult)


def test_open_refuses_a_plaintext_at_the_bound(keypairs):
    _, keys_b = keypairs
    pk = keys_b.public
    bound = plaintext_bound(pk.n)
    codec = mpdl.dual._PaillierCodec(random.Random(7), paillier.serial_map)
    rng = random.Random(8)

    def opened(m):
        ct = paillier.encrypt_mantissa(pk, m % pk.n, rng)
        return codec.open(keys_b.secret, pack_ciphers(
            pk.key_id, DEFAULT_SCALE ** 2, 1, 1, (ct,)), "A", (1, 1))

    for m in (bound - 1, -(bound - 1)):
        assert opened(m)[0, 0] == m / DEFAULT_SCALE ** 2
    for m in (bound, -bound):
        with pytest.raises(ProtocolError,
                           match=rf"^CipherBlock from A holds a plaintext at "
                                 rf"or above 2\^{bound.bit_length() - 1}$"):
            opened(m)


def test_open_never_exponentiates_mod_q_squared(keypairs, monkeypatch):
    """The cross terms are decrypted from the p half alone."""
    powmod, open_ = paillier._powmod, mpdl.dual._PaillierCodec.open
    inside, mods = [False], []

    def recording_powmod(base, exp, mod):
        if inside[0]:
            mods.append(mod)
        return powmod(base, exp, mod)

    def recording_open(self, *args):
        inside[0] = True
        try:
            return open_(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(paillier, "_powmod", recording_powmod)
    monkeypatch.setattr(mpdl.dual._PaillierCodec, "open", recording_open)
    state_a, state_b = make_states(keypairs)
    hub = Hub()
    run_dual_round(state_a, state_b, list(range(6)), hub, random.Random(4))
    hub.close()
    # one exponentiation per entry of the two cross terms: 6 x 2 for A's
    # generator and 6 x 3 for B's, each mod its owner's p^2
    assert len(mods) == 6 * 2 + 6 * 3
    assert set(mods) == {k.secret.p2 for k in keypairs}


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
        state_a.kde = KdeModel(state_a.store.features,
                               2 * state_a.kde.bandwidth)
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
