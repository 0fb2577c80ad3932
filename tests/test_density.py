"""Kernel density estimates against naive-sum and quadrature oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp, softmax

from mpdl.density import (DIMENSION_WARN_LIMIT, KdeModel, _log_kernels,
                          bandwidth_rule, fit_kde, grad_log_density_batch,
                          log_density_batch)


def naive_density(support, h, x):
    """Direct sum of product Gaussian kernels, no log-space tricks."""
    n, d = support.shape
    total = 0.0
    for row in support:
        sq = float(np.sum((x - row) ** 2))
        total += math.exp(-sq / (2 * h * h))
    return total / (n * h ** d * (2 * math.pi) ** (d / 2))


def test_bandwidth_values():
    assert bandwidth_rule(1) == pytest.approx(1.05)
    assert bandwidth_rule(100) == pytest.approx(1.05 * 100 ** -0.2, rel=1e-12)
    assert bandwidth_rule(100) == pytest.approx(0.41801, abs=5e-5)


def test_bandwidth_monotone_decreasing():
    values = [bandwidth_rule(n) for n in (1, 2, 5, 10, 100, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bandwidth_rejects_zero():
    with pytest.raises(ValueError):
        bandwidth_rule(0)


def test_single_point_log_density_closed_form():
    model = fit_kde(np.array([[0.3]]))
    h = model.bandwidth
    got = log_density_batch(model, np.array([[0.3]]))[0]
    assert got == pytest.approx(math.log(1.0 / (h * math.sqrt(2 * math.pi))),
                                rel=1e-12)


def test_log_density_matches_naive_sum():
    rng = np.random.default_rng(7)
    support = rng.uniform(size=(10, 2))
    model = fit_kde(support)
    xs = rng.uniform(-0.5, 1.5, size=(20, 2))
    got = log_density_batch(model, xs)
    for j in range(20):
        expected = naive_density(support, model.bandwidth, xs[j])
        assert math.exp(got[j]) == pytest.approx(expected, rel=1e-10)


def test_log_density_matches_naive_sum_larger():
    rng = np.random.default_rng(8)
    support = rng.uniform(size=(50, 5))
    model = fit_kde(support)
    xs = rng.uniform(size=(10, 5))
    got = log_density_batch(model, xs)
    for j in range(10):
        expected = naive_density(support, model.bandwidth, xs[j])
        assert math.exp(got[j]) == pytest.approx(expected, rel=1e-10)


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(3)
    support = rng.uniform(size=(25, 1))
    model = fit_kde(support)
    grid = np.linspace(-8.0, 9.0, 20_001).reshape(-1, 1)
    dens = np.exp(log_density_batch(model, grid))
    integral = np.trapezoid(dens, dx=grid[1, 0] - grid[0, 0])
    assert integral == pytest.approx(1.0, abs=0.01)


def test_log_density_finite_far_away():
    model = fit_kde(np.random.default_rng(0).uniform(size=(5, 3)))
    val = log_density_batch(model, np.full((1, 3), 1e3))[0]
    assert math.isfinite(val)


def test_grad_single_support_closed_form():
    support = np.array([[0.2, 0.9]])
    model = fit_kde(support)
    x = np.array([0.5, 0.1])
    got = grad_log_density_batch(model, x[None, :])[0]
    expected = (support[0] - x) / model.bandwidth ** 2
    assert np.allclose(got, expected, atol=1e-12)


def test_grad_zero_at_symmetric_center():
    model = fit_kde(np.array([[-0.7], [0.7]]))
    got = grad_log_density_batch(model, np.array([[0.0]]))[0]
    assert np.allclose(got, 0.0, atol=1e-14)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    support = rng.uniform(size=(30, 4))
    model = fit_kde(support)
    eps = 1e-6
    for _ in range(20):
        x = rng.uniform(-0.3, 1.3, size=4)
        got = grad_log_density_batch(model, x[None, :])[0]
        for k in range(4):
            steps = np.tile(x, (2, 1))
            steps[0, k] += eps
            steps[1, k] -= eps
            up, dn = log_density_batch(model, steps)
            numeric = (up - dn) / (2 * eps)
            assert abs(got[k] - numeric) <= 1e-4 * max(1.0, abs(numeric))


def test_batch_grad_equals_pointwise():
    rng = np.random.default_rng(5)
    support = rng.uniform(size=(12, 3))
    model = fit_kde(support)
    xs = rng.uniform(size=(6, 3))
    batch = grad_log_density_batch(model, xs)
    for j in range(6):
        assert np.allclose(batch[j],
                           grad_log_density_batch(model, xs[j:j + 1])[0],
                           atol=1e-12)


def test_dimension_mismatch_rejected():
    model = fit_kde(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        log_density_batch(model, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        grad_log_density_batch(model, np.zeros((3, 2)), out=np.empty(2))


def test_wide_feature_space_warns():
    rng = np.random.default_rng(1)
    with pytest.warns(RuntimeWarning):
        fit_kde(rng.uniform(size=(4, DIMENSION_WARN_LIMIT + 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_kde(rng.uniform(size=(4, DIMENSION_WARN_LIMIT)))


def scipy_reference(model, x):
    """Log-density and gradient through ``scipy.special`` on one matrix."""
    n, d = model.support.shape
    h = model.bandwidth
    norm = math.log(n) + d * math.log(h) + 0.5 * d * math.log(2.0 * math.pi)
    k = -cdist(x, model.support, "sqeuclidean") / (2.0 * h ** 2)
    logp = logsumexp(k, axis=1) - norm
    grad = (softmax(k, axis=1) @ model.support - x) / h ** 2
    return logp, grad


def fused(model, x):
    """Log-density and gradient from one ``grad_log_density_batch`` call."""
    logp = np.empty(len(x))
    grad = grad_log_density_batch(model, x, out=logp)
    return logp, grad


def assert_matches_scipy(model, xs):
    want_logp, want_grad = scipy_reference(model, xs)
    assert np.array_equal(log_density_batch(model, xs), want_logp)
    assert np.array_equal(grad_log_density_batch(model, xs), want_grad)
    got_logp, got_grad = fused(model, xs)
    assert np.array_equal(got_logp, want_logp)
    assert np.array_equal(got_grad, want_grad)


@pytest.mark.parametrize("width", range(1, 13))
def test_matches_scipy_reductions_bit_for_bit(width):
    rng = np.random.default_rng(100 + width)
    support = rng.uniform(size=(60, width))
    # duplicated rows tie at the row max for points placed on them
    support[10] = support[3]
    support[41] = support[3]
    model = fit_kde(support)
    xs = np.vstack([rng.uniform(-0.5, 1.5, size=(25, width)),
                    support[3:4],
                    np.full((1, width), 40.0)])
    assert_matches_scipy(model, xs)


def test_matches_scipy_far_from_the_support():
    # every kernel but the nearest underflows, so the rest-sum is 0
    support = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    model = KdeModel(support, 0.1)
    far = np.array([[30.0, 30.0], [-25.0, 4.0]])
    k = -cdist(far, support, "sqeuclidean") / (2.0 * model.bandwidth ** 2)
    rest = np.exp(k - k.max(axis=1, keepdims=True))
    rest[k == k.max(axis=1, keepdims=True)] = 0.0
    assert np.all(rest.sum(axis=1) == 0.0)
    assert_matches_scipy(model, far)


@pytest.mark.parametrize("width", [1, 4])
def test_matches_scipy_with_one_support_row(width):
    rng = np.random.default_rng(width)
    model = fit_kde(rng.uniform(size=(1, width)))
    xs = rng.uniform(-1.0, 2.0, size=(9, width))
    assert_matches_scipy(model, xs)


@pytest.mark.parametrize("width", [1, 3, 10])
def test_row_value_does_not_depend_on_its_batch(width):
    # The transcript leak predicates compare log-densities by exact
    # float equality, so a row's kernels and log-density must give the
    # same bits in any batch.  The gradient's final ``w @ support`` is a
    # BLAS product whose kernel depends on the batch shape, so it is
    # held to rounding only.
    rng = np.random.default_rng(20 + width)
    model = fit_kde(rng.uniform(size=(300, width)))
    xs = rng.uniform(-0.2, 1.2, size=(100, width))
    whole_kern = _log_kernels(model, xs)
    whole_logp = log_density_batch(model, xs)
    whole_grad = grad_log_density_batch(model, xs)
    assert np.array_equal(fused(model, xs)[0], whole_logp)
    for size in (1, 32):
        for start in range(0, 100, size):
            rows = slice(start, start + size)
            assert np.array_equal(_log_kernels(model, xs[rows]),
                                  whole_kern[rows])
            assert np.array_equal(log_density_batch(model, xs[rows]),
                                  whole_logp[rows])
            part_logp, part_grad = fused(model, xs[rows])
            assert np.array_equal(part_logp, whole_logp[rows])
            for grad in (grad_log_density_batch(model, xs[rows]), part_grad):
                np.testing.assert_allclose(grad, whole_grad[rows],
                                           rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("fn", [log_density_batch, grad_log_density_batch,
                                fused])
def test_peak_memory_is_one_kernel_matrix(fn):
    batch, n_support, width = 500, 2_000, 20
    rng = np.random.default_rng(4)
    model = fit_kde(rng.uniform(size=(n_support, width)))
    xs = rng.uniform(size=(batch, width))
    tracemalloc.start()
    try:
        fn(model, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * batch * n_support * 8
