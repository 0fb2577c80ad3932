"""Gaussian product-kernel density estimation with analytic log-gradients.

Each party models the marginal distribution of its own feature space
with a KDE over its local samples.  Log-densities are evaluated through
log-sum-exp so that points far from the support degrade gracefully
instead of underflowing to ``log 0``.

Kernels are evaluated as one (batch, support) matrix per call: squared
distances from ``scipy.spatial.distance.cdist``, scaled in place by
-1 / (2 h^2) and shifted by each row's maximum before ``exp``.  That one
matrix is reduced in place by the log-sum-exp and softmax of Blanchard,
Higham & Higham (IMA J. Numer. Anal. 2021), step for step as
``scipy.special`` computes them.  ``grad_log_density_batch(..., out=)``
takes both from the same matrix, so the dual round builds one kernel
matrix per received batch, not two.  No batch x support x d tensor and
no second full-size temporary is made.

A row's log-density must not depend on the batch it is computed in:
the transcript boundary predicates (``transport.forbid_plaintext_values``
and the bench's criterion-10 check) find leaked log-densities by exact
float equality against values recomputed over other batches, and
``DualPartyState.own_log_density`` evaluates each own row once per run
and serves that value to every later batch.  ``cdist`` evaluates each
(row, support) pair by the same float operations whatever else is in
the batch; expanding ||x||^2 - 2 x.s + ||s||^2 as
a matrix product would not, so it is not used.  The gradient's final
product with the support is a BLAS call whose last bits can depend on
the batch shape; no predicate compares gradients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .nn import as_batch

# Beyond this width the product kernel is so concentrated that
# log-densities are dominated by the nearest sample; callers are warned
# rather than stopped.
DIMENSION_WARN_LIMIT = 64


def bandwidth_rule(n_samples: int) -> float:
    """Bandwidth 1.05 * N^(-1/5) used for every fitted estimator."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return 1.05 * float(n_samples) ** (-0.2)


@dataclass(frozen=True)
class KdeModel:
    """Fitted estimator: the support samples and a shared bandwidth."""

    support: np.ndarray
    bandwidth: float

    def __post_init__(self):
        s = as_batch(self.support)
        if not (self.bandwidth > 0.0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        object.__setattr__(self, "support", s)

    @property
    def dim(self) -> int:
        return self.support.shape[1]


def fit_kde(samples) -> KdeModel:
    """Fit a KDE on ``samples`` with the N^(-1/5) rule's bandwidth; build
    a ``KdeModel`` directly for any other bandwidth."""
    s = as_batch(samples)
    if s.shape[1] > DIMENSION_WARN_LIMIT:
        warnings.warn(
            f"KDE over {s.shape[1]} dimensions: log-densities will be "
            "dominated by nearest neighbours", RuntimeWarning)
    return KdeModel(s, bandwidth_rule(s.shape[0]))


def _log_kernels(model: KdeModel, x: np.ndarray) -> np.ndarray:
    """(batch, support) matrix of -||x - x_i||^2 / (2 h^2)."""
    sq = cdist(x, model.support, "sqeuclidean")
    # Divide rather than multiply by the reciprocal: same bits as
    # -sq / (2 h^2).
    sq /= -(2.0 * model.bandwidth ** 2)
    return sq


def _shifted_kernels(model: KdeModel, xb: np.ndarray):
    """exp(k - max k) of each row's kernel logs k, in one matrix.

    Returns that matrix, the row maxima (batch, 1) and the mask of the
    entries at their row's maximum; those entries are exactly 1.0.
    """
    e = _log_kernels(model, xb)
    top = e.max(axis=1, keepdims=True)
    is_top = e == top
    e -= top
    np.exp(e, out=e)
    return e, top, is_top


def _log_sum_exp(model: KdeModel, e: np.ndarray, top: np.ndarray,
                 is_top: np.ndarray) -> np.ndarray:
    """Log-density from ``_shifted_kernels``' output; zeroes the tops."""
    n, d = model.support.shape
    norm = math.log(n) + d * math.log(model.bandwidth) \
        + 0.5 * d * math.log(2.0 * math.pi)
    # The max terms are counted, not summed: log-sum-exp is then
    # log1p(rest / count) + log(count) + max.
    e[is_top] = 0.0
    m = is_top.sum(axis=1)
    return np.log1p(e.sum(axis=1) / m) + np.log(m) + top[:, 0] - norm


def log_density_batch(model: KdeModel, x) -> np.ndarray:
    """Log-density of each row of ``x`` under the fitted estimator."""
    xb = as_batch(x, model.dim)
    return _log_sum_exp(model, *_shifted_kernels(model, xb))


def grad_log_density_batch(model: KdeModel, x, out=None) -> np.ndarray:
    """Gradient of the log-density at each row of ``x``.

    Analytic form: with softmax weights w_i over the per-sample kernel
    logs, the gradient is sum_i w_i (x_i - x) / h^2.  Given ``out``, a
    float array of one entry per row, it is filled with the rows'
    log-densities, the same bits as ``log_density_batch(model, x)``,
    from the same kernel matrix.
    """
    xb = as_batch(x, model.dim)
    if out is not None and out.shape != (xb.shape[0],):
        raise ValueError(f"out has shape {out.shape}, want ({xb.shape[0]},)")
    w, top, is_top = _shifted_kernels(model, xb)
    if out is not None:
        out[...] = _log_sum_exp(model, w, top, is_top)
        w[is_top] = 1.0  # exp(0), as the softmax sums them
    w /= w.sum(axis=1, keepdims=True)
    return (w @ model.support - xb) / model.bandwidth ** 2
