"""Split training of the central classifier across A, B and C.

Each party keeps an affine input layer over its own (perturbed)
features and ships only the partial pre-activation sums to the
collaborator C.  C adds the partial sums, runs the remaining layers,
and returns one error matrix for the shared hidden layer; each party
then updates its local layer from that delta and its own inputs.  The
arithmetic is exactly that of the concatenated monolithic network, so
split training loses nothing; ``to_monolithic`` exists to state that
equivalence as a testable identity.  This module holds the per-site
arithmetic only; ``orchestrator.split_train`` and ``split_predict``
route it through a hub.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import DenseLayer, LayerGrad, Mlp, activation_prime, \
    apply_activation, as_batch, backprop_from_output_grad, dual_hidden_width, \
    glorot_uniform, init_mlp, loss_eval, mlp_forward


def one_hot(labels, n_classes: int) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.min() < 0 or lab.max() >= n_classes:
        raise ValueError("labels must be integers in [0, n_classes)")
    out = np.zeros((lab.shape[0], n_classes))
    out[np.arange(lab.shape[0]), lab] = 1.0
    return out


@dataclass(frozen=True)
class SplitCentralModel:
    """Party-held affine slices plus the collaborator-held remainder.

    ``local_a``/``local_b`` must use identity activation: their outputs
    are partial sums of the first hidden layer, and C applies the
    ``split_activation`` to the recombined sum before its own layers.
    The central network ends in softmax.
    """

    local_a: DenseLayer
    local_b: DenseLayer
    central: Mlp
    split_activation: str = "relu"

    def __post_init__(self):
        if self.local_a.activation != "identity" or \
                self.local_b.activation != "identity":
            raise ValueError("party layers must use identity activation")
        if self.local_a.out_width != self.local_b.out_width:
            raise ValueError("party layers must agree on the hidden width")
        if self.local_a.out_width != self.central.in_width:
            raise ValueError("central input width must match the hidden width")
        if self.central.layers[-1].activation != "softmax":
            raise ValueError("the central network must end in softmax")

    @property
    def hidden_width(self) -> int:
        return self.local_a.out_width

    @property
    def n_classes(self) -> int:
        return self.central.out_width


def init_split_central(d_a: int, d_b: int, n_classes: int,
                       rng: np.random.Generator,
                       hidden: int | None = None) -> SplitCentralModel:
    """Fresh split model; hidden width defaults to ceil((inputs+classes)/2)."""
    if hidden is None:
        hidden = dual_hidden_width(d_a + d_b, n_classes)
    local_a = DenseLayer(glorot_uniform(hidden, d_a, rng), np.zeros(hidden),
                         "identity")
    local_b = DenseLayer(glorot_uniform(hidden, d_b, rng), np.zeros(hidden),
                         "identity")
    central = init_mlp([hidden, n_classes], ["softmax"], rng)
    return SplitCentralModel(local_a, local_b, central)


def party_forward(local: DenseLayer, x) -> np.ndarray:
    """A party's contribution to the first hidden layer: x @ W.T + b."""
    if local.activation != "identity":
        raise ValueError("party layers must use identity activation")
    xb = as_batch(x, local.in_width)
    return xb @ local.weights.T + local.bias


@dataclass(frozen=True)
class CentralBatch:
    """What C sees for one batch: the two partial sums and the labels."""

    z_a: np.ndarray
    z_b: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        za = as_batch(self.z_a)
        zb = as_batch(self.z_b)
        if za.shape != zb.shape:
            raise ValueError("partial sums must share a shape")
        if np.asarray(self.labels).shape != (za.shape[0],):
            raise ValueError("labels must be one per row")


class CentralStep(NamedTuple):
    loss: float
    central_grads: tuple[LayerGrad, ...]
    delta_a: np.ndarray
    delta_b: np.ndarray


def central_forward_backward(model: SplitCentralModel,
                             batch: CentralBatch) -> CentralStep:
    """C's half-step: combine partial sums, classify, return the delta.

    The returned delta is the loss gradient at the shared hidden
    pre-activation and is identical for both parties.
    """
    z = batch.z_a + batch.z_b
    hidden = apply_activation(model.split_activation, z)
    probs, cache = mlp_forward(model.central, hidden)
    targets = one_hot(batch.labels, model.n_classes)
    loss, logit_grad = loss_eval("cross_entropy", probs, targets)
    grads, hidden_grad = backprop_from_output_grad(model.central, cache,
                                                   logit_grad)
    delta = hidden_grad * activation_prime(model.split_activation, z)
    return CentralStep(loss, grads, delta, delta.copy())


def party_backward(local: DenseLayer, delta, x, lr: float) -> DenseLayer:
    """One SGD step on a party layer from C's delta and the party's inputs."""
    d = as_batch(delta, local.out_width)
    xb = as_batch(x, local.in_width)
    if d.shape[0] != xb.shape[0]:
        raise ValueError("delta batch does not match the forward batch")
    # The hidden bias is replicated additively across the two parties, so
    # each applies half the gradient; the sum then tracks a single fused
    # affine layer exactly.
    return DenseLayer(local.weights - lr * (d.T @ xb),
                      local.bias - lr * 0.5 * d.sum(axis=0), "identity")


def to_monolithic(model: SplitCentralModel) -> Mlp:
    """The concatenated single-site network computing the same function.

    Its first layer stacks the party weight blocks column-wise with the
    summed biases; training it on concatenated features with the same
    batches reproduces split training exactly.
    """
    first = DenseLayer(np.hstack([model.local_a.weights,
                                  model.local_b.weights]),
                       model.local_a.bias + model.local_b.bias,
                       model.split_activation)
    return Mlp((first,) + model.central.layers)
