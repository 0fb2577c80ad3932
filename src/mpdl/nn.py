"""Minimal dense-network engine used by every learner in the package.

Conventions, fixed once here and relied on everywhere else:

* batches are 2-D float64 arrays, one sample per row;
* a layer stores ``weights`` with shape (out, in) and computes
  ``x @ weights.T + bias`` before its activation;
* loss gradients carry the 1/batch factor, so backprop plainly sums
  over the batch and the summed weight gradients are already means;
* ``softmax`` may appear only on the output layer, and the output
  gradient fed to :func:`backprop_from_output_grad` for such a layer is
  taken with respect to the pre-softmax logits (the usual fused
  softmax + cross-entropy convention);
* every array is checked once, by one of three owners: an entry point
  that takes data from outside (``PartyDataset``, ``fit_kde`` and
  ``KdeModel``, ``perturb_dataset``, the ``graph`` functions,
  ``orchestrator.split_train`` once before its loop, ``dual.dual_infer``)
  calls :func:`as_batch`; ``transport.receive_matrix`` checks every
  received matrix's kind, sender, shape and finiteness; and the
  ``DenseLayer``, ``Mlp`` and ``central.SplitCentralModel`` constructors
  check parameters, so a step that diverges still raises.  The functions
  here and in ``central`` compute on such arrays without checking them
  again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

ACTIVATIONS = ("relu", "identity", "softmax")


def as_batch(x, width: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a finite 2-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {a.shape}")
    if width is not None and a.shape[1] != width:
        raise ValueError(f"expected batch width {width}, got {a.shape[1]}")
    if not np.isfinite(a).all():
        raise ValueError("batch contains non-finite entries")
    return a


def apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    if name == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def activation_prime(name: str, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative at pre-activation ``z`` (softmax excluded)."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "identity":
        return np.ones_like(z)
    if name == "softmax":
        raise ValueError("softmax has no elementwise derivative; it is "
                         "handled by the fused output-gradient convention")
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class DenseLayer:
    """One fully connected layer; ``weights`` has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("weights must be 2-D (out, in)")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match out width "
                             f"{w.shape[0]}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters contain non-finite entries")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Mlp:
    """A chain of dense layers; softmax permitted only on the last one."""

    layers: tuple[DenseLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("an Mlp needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_width != b.in_width:
                raise ValueError("layer widths do not chain: "
                                 f"{a.out_width} -> {b.in_width}")
        for layer in layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError("softmax is only permitted on the output layer")
        object.__setattr__(self, "layers", layers)

    @property
    def in_width(self) -> int:
        return self.layers[0].in_width

    @property
    def out_width(self) -> int:
        return self.layers[-1].out_width


@dataclass(frozen=True)
class ForwardCache:
    """Per-layer pre-activations and outputs kept for backprop."""

    x: np.ndarray
    weighted_inputs: tuple[np.ndarray, ...]
    outputs: tuple[np.ndarray, ...]


class LayerGrad(NamedTuple):
    weights: np.ndarray
    bias: np.ndarray


class BackpropResult(NamedTuple):
    layer_grads: tuple[LayerGrad, ...]
    input_grad: np.ndarray


def glorot_uniform(out_width: int, in_width: int,
                   rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_width + out_width))
    return rng.uniform(-limit, limit, size=(out_width, in_width))


def init_mlp(widths: Sequence[int], activations: Sequence[str],
             rng: np.random.Generator) -> Mlp:
    """Build an Mlp with Glorot-uniform weights and zero biases.

    ``widths`` lists input width followed by each layer's output width,
    so ``len(activations) == len(widths) - 1``.
    """
    if len(widths) < 2 or len(activations) != len(widths) - 1:
        raise ValueError("widths and activations do not describe a network")
    layers = []
    for n_in, n_out, act in zip(widths, widths[1:], activations):
        layers.append(DenseLayer(glorot_uniform(n_out, n_in, rng),
                                 np.zeros(n_out), act))
    return Mlp(tuple(layers))


def dual_hidden_width(n_in: int, n_out: int) -> int:
    """Hidden width rule for generator and central models: ceil of the mean."""
    if n_in < 1 or n_out < 1:
        raise ValueError("widths must be positive")
    return -((n_in + n_out) // -2)


def mlp_forward(model: Mlp, batch) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a checked batch of width ``model.in_width``;
    returns (output batch, cache for backprop)."""
    x = np.asarray(batch, dtype=np.float64)
    zs, outs = [], []
    a = x
    for layer in model.layers:
        z = a @ layer.weights.T + layer.bias
        a = apply_activation(layer.activation, z)
        zs.append(z)
        outs.append(a)
    return a, ForwardCache(x, tuple(zs), tuple(outs))


def backprop_from_output_grad(model: Mlp, cache: ForwardCache,
                              out_grad) -> BackpropResult:
    """Backpropagate an output gradient through the cached forward pass.

    ``out_grad`` is dL/d(output) for the last layer, except when that
    layer is softmax, in which case it is dL/d(logits); it has the
    output's shape.  Returns the per-layer parameter gradients
    (batch-summed) and the gradient with respect to the network input.
    """
    last = len(model.layers) - 1
    grads: list[LayerGrad | None] = [None] * len(model.layers)
    delta = None
    for idx in range(last, -1, -1):
        layer = model.layers[idx]
        z = cache.weighted_inputs[idx]
        if idx == last:
            if layer.activation == "softmax":
                delta = out_grad
            else:
                delta = out_grad * activation_prime(layer.activation, z)
        else:
            upstream = model.layers[idx + 1]
            delta = (delta @ upstream.weights) * activation_prime(
                layer.activation, z)
        a_prev = cache.outputs[idx - 1] if idx > 0 else cache.x
        grads[idx] = LayerGrad(delta.T @ a_prev, delta.sum(axis=0))
    return BackpropResult(tuple(grads), delta @ model.layers[0].weights)


def clip_global_norm(grads: Sequence[LayerGrad],
                     max_norm: float) -> tuple[LayerGrad, ...]:
    """Rescale gradients so their joint L2 norm is at most ``max_norm``.

    A no-op when the norm is already within the bound (or the bound is
    infinite), so small-gradient arithmetic is untouched.
    """
    grads = tuple(grads)
    if not max_norm > 0.0:
        raise ValueError("max_norm must be positive")
    if math.isinf(max_norm):
        return grads
    total = math.sqrt(sum(float(np.sum(g.weights ** 2) + np.sum(g.bias ** 2))
                          for g in grads))
    if not math.isfinite(total):
        raise ValueError("non-finite gradient entries")
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return tuple(LayerGrad(g.weights * scale, g.bias * scale) for g in grads)


def sgd_step(model: Mlp, grads: Sequence[LayerGrad], lr: float) -> Mlp:
    """Return a new model after one step of w <- w - lr * grad; a step
    to a non-finite parameter raises in ``DenseLayer``."""
    if len(grads) != len(model.layers):
        raise ValueError("gradient count does not match layer count")
    new_layers = []
    for layer, grad in zip(model.layers, grads):
        new_layers.append(DenseLayer(layer.weights - lr * grad.weights,
                                     layer.bias - lr * grad.bias,
                                     layer.activation))
    return Mlp(tuple(new_layers))


def loss_eval(kind: str, prediction, target) -> tuple[float, np.ndarray]:
    """Evaluate a loss and its gradient under the batch-mean convention.

    ``mse`` sums squared error over features and averages over the
    batch; its gradient is taken w.r.t. the predictions.  For
    ``cross_entropy`` the predictions must be softmax outputs and the
    targets one-hot rows (``central.one_hot`` builds them); the returned
    gradient is w.r.t. the logits, i.e. (p - y) / batch.  Both arrays
    share one shape.
    """
    n = prediction.shape[0]
    if kind == "mse":
        diff = prediction - target
        value = float((diff * diff).sum() / n)
        return value, 2.0 * diff / n
    if kind == "cross_entropy":
        picked = np.maximum((prediction * target).sum(axis=1), 1e-300)
        value = float(-np.log(picked).sum() / n)
        return value, (prediction - target) / n
    raise ValueError(f"unknown loss kind {kind!r}")
