"""Feature-level differential privacy for party-held feature matrices.

Neighbouring datasets here differ in one feature column, not one row.
Each party pushes its normalized features through a perturbed affine
input layer; the sensitivity of that layer is bounded by twice the
contribution of the perturbed units, giving

* ``per_layer``:  delta = 2 * |h0| * L   (the literal layer-wide bound)
* ``per_neuron``: delta = 2 * L          (per perturbed unit)

where L is the number of samples the party trains on.  Every matrix
entry then receives (1/L) * Lap(delta / epsilon), i.e. an effective
per-entry scale of delta / (L * epsilon).  Noise is drawn once per
dataset per run and cached; it is never resampled and outputs are not
re-clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import as_batch

SENSITIVITY_MODES = ("per_layer", "per_neuron")


@dataclass(frozen=True)
class DpConfig:
    """Privacy budget and the geometry it applies to.

    ``epsilon`` may be ``math.inf`` to disable noise entirely.
    ``h0_width`` is the width of the perturbed affine layer and only
    affects the ``per_layer`` bound; ``sample_count`` is L.
    """

    epsilon: float
    h0_width: int
    sample_count: int
    sensitivity_mode: str

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive (math.inf disables noise)")
        if self.h0_width < 1:
            raise ValueError("h0_width must be at least 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.sensitivity_mode not in SENSITIVITY_MODES:
            raise ValueError(f"sensitivity_mode must be one of "
                             f"{SENSITIVITY_MODES}, got {self.sensitivity_mode!r}")

    @property
    def noise_disabled(self) -> bool:
        return math.isinf(self.epsilon)


def sensitivity(config: DpConfig) -> float:
    """Sensitivity bound of the perturbed affine layer."""
    if config.sensitivity_mode == "per_layer":
        return 2.0 * config.h0_width * config.sample_count
    return 2.0 * config.sample_count


def effective_scale(config: DpConfig) -> float:
    """Per-entry Laplace scale after the 1/L damping: delta / (L * eps)."""
    if config.noise_disabled:
        return 0.0
    return sensitivity(config) / (config.sample_count * config.epsilon)


def laplace_sample(scale: float, rng: np.random.Generator,
                   size=None) -> float | np.ndarray:
    """Zero-mean Laplace draw(s) by inverse CDF.

    Uses -scale * sign(u) * ln(1 - 2|u|) with u uniform in (-1/2, 1/2);
    the one-in-2^53 draw u = -1/2 is nudged to keep the log finite.
    """
    if scale < 0.0:
        raise ValueError("scale must be non-negative")
    u = rng.uniform(-0.5, 0.5, size=size)
    inner = np.clip(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny, None)
    out = -scale * np.sign(u) * np.log(inner)
    if size is None:
        return float(out)
    return out


@dataclass(frozen=True)
class PerturbedDataset:
    """One-shot perturbation output: the perturbed features, row for row
    as given, and ``noise``, the exact draws that were added to them."""

    features: np.ndarray
    noise: np.ndarray


def perturb_dataset(features, config: DpConfig,
                    rng: np.random.Generator) -> PerturbedDataset:
    """Add feature-level DP noise to a normalized feature matrix.

    Entries must lie in [0, 1] on input; perturbed outputs may leave
    that range and are deliberately not re-clamped.  With
    ``epsilon = inf`` the features pass through untouched.
    """
    x = as_batch(features)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("features must be normalized to [0, 1] before "
                         "perturbation")
    if config.noise_disabled:
        return PerturbedDataset(x.copy(), np.zeros_like(x))
    draws = laplace_sample(sensitivity(config) / config.epsilon, rng,
                           size=x.shape)
    noise = draws / config.sample_count
    return PerturbedDataset(x + noise, noise)


@dataclass
class OneShotPerturber:
    """Caches the single perturbation each dataset receives in a run.

    Keyed by dataset name; asking again for the same name returns the
    cached object so noise is never resampled mid-run.
    """

    config: DpConfig
    rng: np.random.Generator
    _cache: dict = field(default_factory=dict, init=False)

    def perturb(self, name: str, features) -> PerturbedDataset:
        if name in self._cache:
            cached = self._cache[name]
            if cached.features.shape != np.asarray(features).shape:
                raise ValueError(f"dataset {name!r} was already perturbed "
                                 "with a different shape")
            return cached
        out = perturb_dataset(features, self.config, self.rng)
        self._cache[name] = out
        return out
