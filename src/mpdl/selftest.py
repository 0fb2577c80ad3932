"""Built-in correctness checks, runnable without pytest.

Each check recomputes its expected value through an independent route
(finite differences, naive loops, closed forms) and compares against
the library. ``run_selftest`` prints one line per check and returns a
process exit code.
"""

from __future__ import annotations

import math
import random
import traceback

import numpy as np

_CHECKS = []


def _check(fn):
    _CHECKS.append(fn)
    return fn


@_check
def nn_gradients_match_finite_differences():
    from .nn import backprop_from_output_grad, init_mlp, loss_eval, \
        mlp_forward
    rng = np.random.default_rng(7)
    mlp = init_mlp([3, 4, 2], ["relu", "softmax"], rng)
    x = rng.uniform(0.1, 0.9, size=(5, 3))
    y = np.eye(2)[rng.integers(0, 2, size=5)]

    out, cache = mlp_forward(mlp, x)
    _, grad = loss_eval("cross_entropy", out, y)
    result = backprop_from_output_grad(mlp, cache, grad)

    w = mlp.layers[0].weights
    eps = 1e-6
    analytic = result.layer_grads[0].weights[1, 2]
    bumped_up = w.copy()
    bumped_up[1, 2] += eps
    bumped_dn = w.copy()
    bumped_dn[1, 2] -= eps
    losses = []
    for bumped in (bumped_up, bumped_dn):
        layers = list(mlp.layers)
        layers[0] = layers[0].__class__(bumped, mlp.layers[0].bias,
                                        mlp.layers[0].activation)
        out2, _ = mlp_forward(mlp.__class__(tuple(layers)), x)
        losses.append(loss_eval("cross_entropy", out2, y)[0])
    numeric = (losses[0] - losses[1]) / (2 * eps)
    assert abs(analytic - numeric) < 1e-6, (analytic, numeric)
    return f"dL/dW analytic {analytic:.8f} vs numeric {numeric:.8f}"


@_check
def paillier_homomorphic_ops_round_trip():
    from .paillier import DEFAULT_SCALE, add_cipher, decrypt_vector, \
        encrypt_vector, keygen, mul_plain
    rng = random.Random(11)
    keys = keygen(512, rng)
    a = np.array([1.25, -3.5, 0.0, 700.125])
    b = np.array([-0.75, 2.0, -41.0, 0.5])
    ca = encrypt_vector(keys.public, a, rng)
    cb = encrypt_vector(keys.public, b, rng)
    got_sum = decrypt_vector(keys.secret, add_cipher(keys.public, ca, cb))
    got_prod = decrypt_vector(keys.secret, mul_plain(keys.public, ca, b))
    assert np.allclose(got_sum, a + b, atol=2 ** -40)
    assert np.allclose(got_prod, a * b, atol=2 ** -38)
    quantum = 1.0 / DEFAULT_SCALE
    return f"sums and products exact to one {quantum:.2e} quantum"


@_check
def laplace_noise_moments():
    from .privacy import laplace_sample
    rng = np.random.default_rng(3)
    scale = 0.7
    draws = laplace_sample(scale, rng, size=200_000)
    # Lap(b): mean 0, variance 2 b^2
    assert abs(float(np.mean(draws))) < 0.01
    assert abs(float(np.var(draws)) - 2 * scale ** 2) < 0.02
    return f"mean {np.mean(draws):+.4f}, var {np.var(draws):.4f} ~ {2 * scale ** 2:.4f}"


@_check
def kde_log_density_matches_naive_sum():
    from .density import fit_kde, grad_log_density_batch, log_density_batch
    rng = np.random.default_rng(5)
    support = rng.uniform(size=(40, 3))
    x = rng.uniform(size=(6, 3))
    model = fit_kde(support)
    got = log_density_batch(model, x)
    # log P as the dual round takes it, from the gradient's kernel matrix
    fused = np.empty(x.shape[0])
    grad_log_density_batch(model, x, out=fused)
    assert np.array_equal(fused, got)
    h = model.bandwidth
    n, d = support.shape
    for j in range(x.shape[0]):
        total = sum(math.exp(-float(np.sum((x[j] - s) ** 2)) / (2 * h * h))
                    for s in support)
        expected = math.log(total / (n * h ** d * (2 * math.pi) ** (d / 2)))
        assert abs(got[j] - expected) < 1e-10
        assert abs(fused[j] - expected) < 1e-10
    return "naive kernel sum agreement on 6 query points, both reductions"


@_check
def gamma_split_sizes():
    from .data import SplitSpec, split_by_gamma
    ids = tuple(range(1000))
    split = split_by_gamma(ids, SplitSpec(gamma=0.1, test_fraction=0.0,
                                          seed=0))
    sizes = (len(split.co_occurrence), len(split.b_only), len(split.a_only))
    assert sizes == (100, 450, 450), sizes
    union = set(split.co_occurrence) | set(split.b_only) | set(split.a_only)
    assert union == set(ids)
    return f"1000 ids at gamma 0.1 -> {sizes}"


@_check
def auc_matches_pairwise_counting():
    from .graph import link_auc
    rng = np.random.default_rng(9)
    pos = rng.normal(size=25)
    neg = rng.normal(size=35)
    pos[:4] = neg[:4] = 0.5  # force ties across the two sides
    got = link_auc(np.concatenate([pos, neg]),
                   [1] * len(pos) + [0] * len(neg))
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    expected = wins / (len(pos) * len(neg))
    assert abs(got - expected) < 1e-12
    return f"AUC {got:.6f} equals pairwise count {expected:.6f}"


@_check
def transport_frames_round_trip():
    from .transport import MessageKind, ProtocolMessage, decode_message, \
        encode_message, pack_matrix, unpack_matrix
    rng = np.random.default_rng(13)
    mat = rng.normal(size=(4, 3))
    msg = ProtocolMessage(sender="A", receiver="B",
                          kind=MessageKind.InferredBatch,
                          payload=pack_matrix(mat), msg_id=42, batch_tag=7)
    back = decode_message(encode_message(msg))
    assert back == msg
    assert np.array_equal(unpack_matrix(back.payload), mat)
    return "encode/decode identity incl. batch tag"


@_check
def encrypted_dual_round_matches_plaintext():
    from .data import PartyDataset
    from .density import fit_kde
    from .dual import DualPartyState, run_dual_round
    from .nn import init_mlp
    from .paillier import keygen
    from .transport import Hub

    rng = np.random.default_rng(17)
    proto_rng = random.Random(17)
    xa = rng.uniform(size=(12, 3))
    xb = rng.uniform(size=(12, 2))
    ids = tuple(range(12))
    keys_a = keygen(512, proto_rng)
    keys_b = keygen(512, proto_rng)

    def fresh_states():
        r = np.random.default_rng(99)
        return (DualPartyState("A", PartyDataset(ids, xa), fit_kde(xa),
                               init_mlp([3, 3, 2], ["relu", "identity"], r),
                               keys_a, keys_b.public, 0.005, 0.1),
                DualPartyState("B", PartyDataset(ids, xb), fit_kde(xb),
                               init_mlp([2, 3, 3], ["relu", "identity"], r),
                               keys_b, keys_a.public, 0.005, 0.1))

    batch = list(ids[:8])
    models = {}
    for encrypted in (True, False):
        state_a, state_b = fresh_states()
        hub = Hub()
        result = run_dual_round(state_a, state_b, batch, hub,
                                random.Random(5), use_encryption=encrypted)
        models[encrypted] = result.pair
        hub.close()
    for enc_model, plain_model in ((models[True].a_to_b,
                                    models[False].a_to_b),
                                   (models[True].b_to_a,
                                    models[False].b_to_a)):
        for le, lp in zip(enc_model.layers, plain_model.layers):
            assert np.allclose(le.weights, lp.weights, atol=2 ** -35)
            assert np.allclose(le.bias, lp.bias, atol=2 ** -35)
    return "weights agree within 2^-35 after one encrypted round"


@_check
def split_training_equals_monolithic():
    from .central import central_forward_backward, init_split_central, \
        one_hot, party_forward, to_monolithic
    from .nn import backprop_from_output_grad, loss_eval, mlp_forward, \
        sgd_step
    from .orchestrator import split_train
    from .transport import Hub
    rng = np.random.default_rng(21)
    model = init_split_central(3, 2, n_classes=2, rng=rng)
    xa = rng.uniform(size=(10, 3))
    xb = rng.uniform(size=(10, 2))
    labels = rng.integers(0, 2, size=10)
    # one batch of all ten rows: a single hub-routed step over the rows
    # in the order of the seeded shuffle
    hub = Hub()
    stepped = split_train(hub, model, xa, xb, labels, lr=0.1, epochs=1,
                          batch_size=10, rng=np.random.default_rng(0))
    hub.close()
    order = np.random.default_rng(0).permutation(10)
    xa, xb, labels = xa[order], xb[order], labels[order]
    loss = central_forward_backward(
        model, party_forward(model.local_a, xa),
        party_forward(model.local_b, xb), labels).loss

    mono = to_monolithic(model)
    x = np.hstack([xa, xb])
    y = one_hot(labels, 2)
    out, cache = mlp_forward(mono, x)
    mono_loss, grad = loss_eval("cross_entropy", out, y)
    assert abs(loss - mono_loss) < 1e-12
    stepped_mono = to_monolithic(stepped)
    result = backprop_from_output_grad(mono, cache, grad)
    mono_stepped = sgd_step(mono, result.layer_grads, 0.1)
    for ls, lm in zip(stepped_mono.layers, mono_stepped.layers):
        assert np.allclose(ls.weights, lm.weights, atol=1e-12)
        assert np.allclose(ls.bias, lm.bias, atol=1e-12)
    return "split step equals monolithic step to 1e-12"


def run_selftest() -> int:
    failures = 0
    for fn in _CHECKS:
        name = fn.__name__
        try:
            detail = fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"[FAIL] {name}: {exc!r}")
            traceback.print_exc()
        else:
            print(f"[ok]   {name}: {detail}")
    total = len(_CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0
