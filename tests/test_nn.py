"""Dense-network engine against hand-rolled oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdl.nn import (ACTIVATIONS, DenseLayer, Mlp, apply_activation, as_batch,
                     backprop_from_output_grad, clip_global_norm,
                     dual_hidden_width, glorot_uniform, init_mlp, loss_eval,
                     mlp_forward, sgd_step)


def small_net(widths, activations, seed=0):
    return init_mlp(widths, activations, np.random.default_rng(seed))


def perturbed(model, layer_idx, entry, eps, bias=False):
    layers = list(model.layers)
    L = layers[layer_idx]
    if bias:
        b = L.bias.copy()
        b[entry] += eps
        layers[layer_idx] = DenseLayer(L.weights, b, L.activation)
    else:
        w = L.weights.copy()
        w[entry] += eps
        layers[layer_idx] = DenseLayer(w, L.bias, L.activation)
    return Mlp(tuple(layers))


# --- forward -----------------------------------------------------------

def test_identity_layer_is_identity():
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    x = np.array([[0.1, -2.0, 5.0]])
    out, cache = mlp_forward(Mlp((layer,)), x)
    assert np.array_equal(out, x)
    assert np.array_equal(cache.weighted_inputs[0], x)


def test_relu_layer_clamps_negatives():
    layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
    out, _ = mlp_forward(Mlp((layer,)), np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_forward_matches_hand_rolled_matrix_arithmetic():
    rng = np.random.default_rng(3)
    model = small_net([4, 3, 2], ["relu", "identity"], seed=3)
    x = rng.normal(size=(5, 4))

    # independent oracle: explicit loops, no shared code path
    expected = np.empty((5, 2))
    for r in range(5):
        h = [max(0.0, sum(model.layers[0].weights[j, k] * x[r, k]
                          for k in range(4)) + model.layers[0].bias[j])
             for j in range(3)]
        for o in range(2):
            expected[r, o] = sum(model.layers[1].weights[o, j] * h[j]
                                 for j in range(3)) + model.layers[1].bias[o]
    out, _ = mlp_forward(model, x)
    assert np.allclose(out, expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    z = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
    p = apply_activation("softmax", z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[1], [1 / 3] * 3)
    shifted = apply_activation("softmax", z + 7.0)
    assert np.allclose(p, shifted, atol=1e-12)


def test_forward_is_pure():
    model = small_net([3, 3], ["relu"])
    x = np.random.default_rng(0).normal(size=(4, 3))
    a, _ = mlp_forward(model, x)
    b, _ = mlp_forward(model, x)
    assert np.array_equal(a, b)


def test_dimension_mismatch_rejected():
    model = small_net([3, 2], ["identity"])
    with pytest.raises(ValueError):
        mlp_forward(model, np.zeros((2, 4)))


def test_softmax_only_on_last_layer():
    layer = DenseLayer(np.eye(2), np.zeros(2), "softmax")
    tail = DenseLayer(np.eye(2), np.zeros(2), "identity")
    with pytest.raises(ValueError):
        Mlp((layer, tail))


# --- backprop ----------------------------------------------------------

def test_single_identity_layer_gradients_closed_form():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(2, 3))
    model = Mlp((DenseLayer(w, np.zeros(2), "identity"),))
    x = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 2))
    _, cache = mlp_forward(model, x)
    result = backprop_from_output_grad(model, cache, g)
    assert np.allclose(result.layer_grads[0].weights, g.T @ x, atol=1e-12)
    assert np.allclose(result.layer_grads[0].bias, g.sum(axis=0), atol=1e-12)


def test_zero_out_grad_gives_zero_gradients():
    model = small_net([3, 4, 2], ["relu", "identity"])
    x = np.random.default_rng(1).normal(size=(6, 3))
    _, cache = mlp_forward(model, x)
    result = backprop_from_output_grad(model, cache, np.zeros((6, 2)))
    for g in result.layer_grads:
        assert not g.weights.any() and not g.bias.any()


@pytest.mark.parametrize("loss_kind", ["mse", "cross_entropy"])
def test_gradients_match_finite_differences_three_layer(loss_kind):
    """Central finite differences over every parameter of a 3-layer net."""
    rng = np.random.default_rng(11)
    acts = ["relu", "relu", "softmax" if loss_kind == "cross_entropy"
            else "identity"]
    model = small_net([3, 4, 3, 2], acts, seed=11)
    x = rng.uniform(-1, 1, size=(7, 3))
    if loss_kind == "cross_entropy":
        y = np.eye(2)[rng.integers(0, 2, size=7)]
    else:
        y = rng.normal(size=(7, 2))

    out, cache = mlp_forward(model, x)
    _, out_grad = loss_eval(loss_kind, out, y)
    analytic = backprop_from_output_grad(model, cache, out_grad).layer_grads

    def loss_of(m):
        o, _ = mlp_forward(m, x)
        return loss_eval(loss_kind, o, y)[0]

    eps = 1e-5
    checked = 0
    for li, layer in enumerate(model.layers):
        for idx in np.ndindex(layer.weights.shape):
            up = loss_of(perturbed(model, li, idx, eps))
            dn = loss_of(perturbed(model, li, idx, -eps))
            numeric = (up - dn) / (2 * eps)
            a = analytic[li].weights[idx]
            assert abs(a - numeric) <= 1e-6 * max(1.0, abs(numeric)), \
                (li, idx, a, numeric)
            checked += 1
        for j in range(layer.bias.size):
            up = loss_of(perturbed(model, li, j, eps, bias=True))
            dn = loss_of(perturbed(model, li, j, -eps, bias=True))
            numeric = (up - dn) / (2 * eps)
            a = analytic[li].bias[j]
            assert abs(a - numeric) <= 1e-6 * max(1.0, abs(numeric))
            checked += 1
    assert checked == 39  # every parameter of the 3-4-3-2 net


# --- sgd ---------------------------------------------------------------

def test_sgd_zero_lr_is_identity():
    model = small_net([2, 2], ["identity"])
    x = np.ones((1, 2))
    _, cache = mlp_forward(model, x)
    grads = backprop_from_output_grad(model, cache, np.ones((1, 2)))
    stepped = sgd_step(model, grads.layer_grads, 0.0)
    for a, b in zip(model.layers, stepped.layers):
        assert np.array_equal(a.weights, b.weights)


def test_sgd_arithmetic():
    model = Mlp((DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),))
    from mpdl.nn import LayerGrad
    stepped = sgd_step(model, [LayerGrad(np.array([[2.0]]), np.zeros(1))],
                       0.1)
    assert stepped.layers[0].weights[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_two_steps_equal_one_summed_step():
    """For fixed gradients the SGD update is linear in the gradient."""
    from mpdl.nn import LayerGrad
    model = small_net([2, 2], ["identity"])
    rng = np.random.default_rng(2)
    g1 = [LayerGrad(rng.normal(size=(2, 2)), rng.normal(size=2))]
    g2 = [LayerGrad(rng.normal(size=(2, 2)), rng.normal(size=2))]
    twice = sgd_step(sgd_step(model, g1, 0.05), g2, 0.05)
    summed = sgd_step(model, [LayerGrad(g1[0].weights + g2[0].weights,
                                        g1[0].bias + g2[0].bias)], 0.05)
    for a, b in zip(twice.layers, summed.layers):
        assert np.allclose(a.weights, b.weights, atol=1e-15)
        assert np.allclose(a.bias, b.bias, atol=1e-15)


def test_sgd_rejects_non_finite_gradients():
    from mpdl.nn import LayerGrad
    model = small_net([2, 2], ["identity"])
    bad = [LayerGrad(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.zeros(2))]
    with pytest.raises(ValueError):
        sgd_step(model, bad, 0.1)


@pytest.mark.parametrize("where", ["weights", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_rejects_each_non_finite_gradient_entry(where, bad):
    from mpdl.nn import LayerGrad
    model = small_net([3, 2], ["identity"])
    gw, gb = np.zeros((2, 3)), np.zeros(2)
    (gw if where == "weights" else gb)[-1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sgd_step(model, [LayerGrad(gw, gb)], 0.1)


def test_clip_global_norm_noop_and_rescale():
    from mpdl.nn import LayerGrad
    g = [LayerGrad(np.array([[3.0, 0.0]]), np.array([4.0]))]  # norm 5
    same = clip_global_norm(g, 10.0)
    assert same[0].weights is g[0].weights
    clipped = clip_global_norm(g, 1.0)
    total = math.sqrt(float(np.sum(clipped[0].weights ** 2) +
                            np.sum(clipped[0].bias ** 2)))
    assert total == pytest.approx(1.0, rel=1e-12)
    assert clip_global_norm(g, math.inf)[0].weights is g[0].weights


# --- losses ------------------------------------------------------------

def test_mse_on_equal_inputs_is_zero():
    x = np.random.default_rng(0).normal(size=(3, 4))
    value, grad = loss_eval("mse", x, x)
    assert value == 0.0
    assert not grad.any()


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 3))
    _, grad = loss_eval("mse", p, t)
    eps = 1e-6
    for idx in np.ndindex(p.shape):
        up = p.copy()
        up[idx] += eps
        dn = p.copy()
        dn[idx] -= eps
        numeric = (loss_eval("mse", up, t)[0] -
                   loss_eval("mse", dn, t)[0]) / (2 * eps)
        assert abs(grad[idx] - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_cross_entropy_perfect_prediction_is_zero():
    y = np.eye(3)[[0, 2, 1]]
    value, _ = loss_eval("cross_entropy", y, y)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_log_classes():
    p = np.full((6, 4), 0.25)
    y = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    value, _ = loss_eval("cross_entropy", p, y)
    assert value == pytest.approx(math.log(4), rel=1e-12)


def test_cross_entropy_value_has_the_bits_of_clip_and_mean():
    # np.maximum and sum / n stand in for np.clip and mean, which cost
    # more per call; the value keeps its bits, with a zero probability
    # on a true class (clamped to 1e-300) in every batch
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, k = int(rng.integers(1, 40)), int(rng.integers(2, 6))
        p = apply_activation("softmax", rng.normal(scale=3.0, size=(n, k)))
        y = np.eye(k)[rng.integers(0, k, size=n)]
        row = int(rng.integers(0, n))
        p[row] = np.roll(y[row], 1)
        picked = np.clip((p * y).sum(axis=1), 1e-300, None)
        want = float(-np.log(picked).mean())
        value, _ = loss_eval("cross_entropy", p, y)
        assert np.float64(value).tobytes() == np.float64(want).tobytes()


def test_cross_entropy_grad_is_p_minus_y_over_batch():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 3))
    p = apply_activation("softmax", logits)
    y = np.eye(3)[rng.integers(0, 3, size=5)]
    _, grad = loss_eval("cross_entropy", p, y)
    assert np.allclose(grad, (p - y) / 5, atol=1e-12)


# --- misc --------------------------------------------------------------

def test_dual_hidden_width_rounds_up():
    assert dual_hidden_width(3, 2) == 3  # ceil(5/2)
    assert dual_hidden_width(4, 2) == 3
    assert dual_hidden_width(1, 1) == 1


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(40, 60, rng)  # (out, in)
    limit = math.sqrt(6.0 / (40 + 60))
    assert w.shape == (40, 60)
    assert np.abs(w).max() <= limit


def test_init_is_seed_deterministic():
    a = small_net([3, 4, 2], ["relu", "identity"], seed=9)
    b = small_net([3, 4, 2], ["relu", "identity"], seed=9)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


@given(st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([a for a in ACTIVATIONS if a != "softmax"]))
@settings(max_examples=40, deadline=None)
def test_activation_prime_matches_finite_differences(rows, cols, act):
    rng = np.random.default_rng(rows * 7 + cols)
    z = rng.normal(size=(rows, cols))
    from mpdl.nn import activation_prime
    eps = 1e-6
    numeric = (apply_activation(act, z + eps) -
               apply_activation(act, z - eps)) / (2 * eps)
    # relu is non-differentiable at 0; keep samples away from the kink
    if act == "relu":
        z = np.where(np.abs(z) < 1e-3, 0.5, z)
        numeric = (apply_activation(act, z + eps) -
                   apply_activation(act, z - eps)) / (2 * eps)
    assert np.allclose(activation_prime(act, z), numeric, atol=1e-5)


def test_as_batch_rejects_non_finite():
    with pytest.raises(ValueError):
        as_batch(np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_batch_rejects_each_non_finite_value(bad):
    x = np.zeros((3, 4))
    x[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_batch(x)


@pytest.mark.parametrize("where", ["weights", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_layer_rejects_non_finite_parameters(where, bad):
    w, b = np.zeros((2, 3)), np.zeros(2)
    (w if where == "weights" else b)[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DenseLayer(w, b, "identity")
