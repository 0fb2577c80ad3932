"""Split training of the central classifier across A, B and C.

Each party keeps an affine input layer over its own (perturbed)
features and ships only the partial pre-activation sums to the
collaborator C.  C adds the partial sums, runs the remaining layers,
and returns one error matrix for the shared hidden layer; each party
then updates its local layer from that delta and its own inputs.  The
arithmetic is exactly that of the concatenated monolithic network, so
split training loses nothing; ``to_monolithic`` exists to state that
equivalence as a testable identity.  This module holds the per-site
arithmetic only: C's step takes the two partial sums and the labels
and returns the one delta.  ``orchestrator.split_train`` and
``split_predict`` route it through a hub.

Nothing here checks an array again (the ``nn`` conventions name who
does): a party's rows were checked on entry, the partial sums and the
delta on receipt against the batch's rows and the hidden width, and the
party layers' identity activation by ``SplitCentralModel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import DenseLayer, LayerGrad, Mlp, activation_prime, \
    apply_activation, backprop_from_output_grad, dual_hidden_width, \
    glorot_uniform, init_mlp, loss_eval, mlp_forward

# C applies this to the recombined partial sums before its own layers.
SPLIT_ACTIVATION = "relu"


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
    are partial sums of the first hidden layer, and C applies
    ``SPLIT_ACTIVATION`` to the recombined sum before its own layers.
    The central network ends in softmax.
    """

    local_a: DenseLayer
    local_b: DenseLayer
    central: Mlp

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
                       rng: np.random.Generator) -> SplitCentralModel:
    """Fresh split model of hidden width ceil((inputs + classes) / 2)."""
    hidden = dual_hidden_width(d_a + d_b, n_classes)
    local_a = DenseLayer(glorot_uniform(hidden, d_a, rng), np.zeros(hidden),
                         "identity")
    local_b = DenseLayer(glorot_uniform(hidden, d_b, rng), np.zeros(hidden),
                         "identity")
    central = init_mlp([hidden, n_classes], ["softmax"], rng)
    return SplitCentralModel(local_a, local_b, central)


def party_forward(local: DenseLayer, x) -> np.ndarray:
    """A party's contribution to the first hidden layer: x @ W.T + b."""
    return x @ local.weights.T + local.bias


class CentralStep(NamedTuple):
    loss: float
    central_grads: tuple[LayerGrad, ...]
    delta: np.ndarray


def central_forward_backward(model: SplitCentralModel, z_a, z_b,
                             labels) -> CentralStep:
    """C's half-step: combine partial sums, classify, return the delta.

    C sees the two partial sums and one label per row.  The returned
    delta is the loss gradient at the shared hidden pre-activation; both
    parties receive it.
    """
    z = z_a + z_b
    hidden = apply_activation(SPLIT_ACTIVATION, z)
    probs, cache = mlp_forward(model.central, hidden)
    targets = one_hot(labels, model.n_classes)
    loss, logit_grad = loss_eval("cross_entropy", probs, targets)
    grads, hidden_grad = backprop_from_output_grad(model.central, cache,
                                                   logit_grad)
    delta = hidden_grad * activation_prime(SPLIT_ACTIVATION, z)
    return CentralStep(loss, grads, delta)


def party_backward(local: DenseLayer, delta, x, lr: float) -> DenseLayer:
    """One SGD step on a party layer from C's delta and the party's inputs."""
    # The hidden bias is replicated additively across the two parties, so
    # each applies half the gradient; the sum then tracks a single fused
    # affine layer exactly.
    return DenseLayer(local.weights - lr * (delta.T @ x),
                      local.bias - lr * 0.5 * delta.sum(axis=0), "identity")


def to_monolithic(model: SplitCentralModel) -> Mlp:
    """The concatenated single-site network computing the same function.

    Its first layer stacks the party weight blocks column-wise with the
    summed biases; training it on concatenated features with the same
    batches reproduces split training exactly.
    """
    first = DenseLayer(np.hstack([model.local_a.weights,
                                  model.local_b.weights]),
                       model.local_a.bias + model.local_b.bias,
                       SPLIT_ACTIVATION)
    return Mlp((first,) + model.central.layers)
