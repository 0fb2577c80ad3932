"""Laplace mechanism: sensitivity bounds, distribution shape, one-shot use."""

import math

import numpy as np
import pytest
import scipy.stats

from mpdl.privacy import (DpConfig, OneShotPerturber, effective_scale,
                          laplace_sample, perturb_dataset, sensitivity)


def test_sensitivity_per_layer_example():
    cfg = DpConfig(epsilon=1.0, h0_width=10, sample_count=100,
                   sensitivity_mode="per_layer")
    assert sensitivity(cfg) == 2000.0


def test_sensitivity_per_neuron_example():
    cfg = DpConfig(epsilon=1.0, h0_width=10, sample_count=100,
                   sensitivity_mode="per_neuron")
    assert sensitivity(cfg) == 200.0


def test_effective_scale_cancels_sample_count():
    # delta / (L * eps): per_neuron 2L / (L * eps) = 2 / eps regardless of L.
    for L in (1, 7, 569):
        cfg = DpConfig(epsilon=0.5, h0_width=30, sample_count=L,
                       sensitivity_mode="per_neuron")
        assert effective_scale(cfg) == pytest.approx(4.0)
    cfg = DpConfig(epsilon=2.0, h0_width=30, sample_count=128,
                   sensitivity_mode="per_layer")
    assert effective_scale(cfg) == pytest.approx(2 * 30 / 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        DpConfig(epsilon=0.0, h0_width=5, sample_count=10,
                 sensitivity_mode="per_layer")
    with pytest.raises(ValueError):
        DpConfig(epsilon=-1.0, h0_width=5, sample_count=10,
                 sensitivity_mode="per_layer")
    with pytest.raises(ValueError):
        DpConfig(epsilon=1.0, h0_width=0, sample_count=10,
                 sensitivity_mode="per_layer")
    with pytest.raises(ValueError):
        DpConfig(epsilon=1.0, h0_width=5, sample_count=0,
                 sensitivity_mode="per_layer")
    with pytest.raises(ValueError):
        DpConfig(epsilon=1.0, h0_width=5, sample_count=10,
                 sensitivity_mode="per_row")


def test_laplace_sample_rejects_negative_scale():
    with pytest.raises(ValueError):
        laplace_sample(-0.1, np.random.default_rng(0))


def test_laplace_zero_scale_is_zero():
    rng = np.random.default_rng(0)
    assert laplace_sample(0.0, rng) == 0.0
    assert np.all(laplace_sample(0.0, rng, size=50) == 0.0)


def test_laplace_scalar_and_array_forms():
    rng = np.random.default_rng(1)
    x = laplace_sample(1.0, rng)
    assert isinstance(x, float)
    arr = laplace_sample(1.0, rng, size=(3, 4))
    assert arr.shape == (3, 4)


@pytest.mark.parametrize("epsilon,h0,L,mode", [
    (0.5, 30, 512, "per_neuron"),
    (2.0, 30, 512, "per_neuron"),
    (1.0, 12, 64, "per_layer"),
])
def test_noise_distribution_ks(epsilon, h0, L, mode):
    """Draws must match Lap(0, delta/(L*eps)) by a KS test at alpha=0.01."""
    cfg = DpConfig(epsilon=epsilon, h0_width=h0, sample_count=L,
                   sensitivity_mode=mode)
    b = effective_scale(cfg)
    if mode == "per_neuron":
        assert b == pytest.approx(2.0 / epsilon)
    else:
        assert b == pytest.approx(2.0 * h0 / epsilon)
    rng = np.random.default_rng(2024)
    draws = laplace_sample(sensitivity(cfg) / epsilon, rng, size=10_000) / L
    stat = scipy.stats.kstest(draws, scipy.stats.laplace(0.0, b).cdf)
    assert stat.pvalue > 0.01


def test_noise_variance_matches_two_b_squared():
    cfg = DpConfig(epsilon=1.0, h0_width=5, sample_count=200,
                   sensitivity_mode="per_neuron")
    rng = np.random.default_rng(9)
    out = perturb_dataset(np.full((500, 100), 0.5), cfg, rng)
    b = effective_scale(cfg)
    var = out.noise.var()
    assert var == pytest.approx(2 * b * b, rel=0.05)
    assert abs(out.noise.mean()) < 3 * b / math.sqrt(out.noise.size)


def test_perturb_requires_normalized_input():
    cfg = DpConfig(epsilon=1.0, h0_width=2, sample_count=3,
                   sensitivity_mode="per_layer")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        perturb_dataset(np.array([[0.1, 1.2]]), cfg, rng)
    with pytest.raises(ValueError):
        perturb_dataset(np.array([[-0.01, 0.5]]), cfg, rng)


def test_perturbed_output_not_reclamped():
    # With a large scale some outputs must escape [0, 1] and stay there.
    cfg = DpConfig(epsilon=0.1, h0_width=4, sample_count=50,
                   sensitivity_mode="per_neuron")
    rng = np.random.default_rng(4)
    out = perturb_dataset(np.full((200, 10), 0.5), cfg, rng)
    assert out.features.min() < 0.0
    assert out.features.max() > 1.0
    assert np.allclose(out.features, 0.5 + out.noise)


def test_infinite_epsilon_is_identity():
    cfg = DpConfig(epsilon=math.inf, h0_width=3, sample_count=7,
                   sensitivity_mode="per_layer")
    rng = np.random.default_rng(0)
    x = np.random.default_rng(1).uniform(size=(7, 3))
    out = perturb_dataset(x, cfg, rng)
    assert np.array_equal(out.features, x)
    assert np.all(out.noise == 0.0)
    assert cfg.noise_disabled


def test_one_shot_cache_returns_same_object():
    cfg = DpConfig(epsilon=1.0, h0_width=2, sample_count=4,
                   sensitivity_mode="per_neuron")
    shot = OneShotPerturber(cfg, np.random.default_rng(3))
    x = np.full((4, 2), 0.25)
    first = shot.perturb("train_a", x)
    second = shot.perturb("train_a", x)
    assert first is second
    other = shot.perturb("train_b", x)
    assert not np.array_equal(first.noise, other.noise)


def test_one_shot_cache_shape_conflict():
    cfg = DpConfig(epsilon=1.0, h0_width=2, sample_count=4,
                   sensitivity_mode="per_layer")
    shot = OneShotPerturber(cfg, np.random.default_rng(3))
    shot.perturb("d", np.zeros((4, 2)))
    with pytest.raises(ValueError):
        shot.perturb("d", np.zeros((5, 2)))
