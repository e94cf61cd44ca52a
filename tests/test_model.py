"""Noise/measurement model: identities, examples, and statistical checks."""

import numpy as np
import pytest

from corrcs.experiments import measure
from corrcs.model import (
    NoiseSpec,
    SensingEnsemble,
    correlated_noise_variance,
)
from corrcs.siggen import InstanceConfig

ALPHA_1BIT = 0.636597595


def _artificial_measurements(m, sigma_t_sq, alpha, seed):
    """(ybar, y): ybar with per-entry variance sigma_t_sq, measured the way an
    artificial-correlated trial is, with its own noise stream."""
    cfg = InstanceConfig(n=m, m=m, k=0, master_seed=seed)
    ybar = np.random.default_rng(seed).normal(0.0, np.sqrt(sigma_t_sq), m)
    return ybar, measure(cfg, ybar, sigma_t_sq, alpha, None)


def test_apply_noise_uncorrelated_variance_matches_spec():
    # the harness sets the w-variance to alpha*(1-alpha)*sigma_t^2, the level
    # the gain model pairs with the signal power; y - alpha*ybar must recover it
    alpha = ALPHA_1BIT
    ybar, y = _artificial_measurements(10**6, 1.0, alpha, seed=7)
    w = y - alpha * ybar
    assert abs(np.var(w) - alpha * (1.0 - alpha)) < 0.002


def test_noise_variance_examples():
    assert correlated_noise_variance(NoiseSpec(1.0, 0.3)) == pytest.approx(0.3)
    assert correlated_noise_variance(NoiseSpec(0.5, 0.0, 1.0)) == pytest.approx(0.25)
    alpha = ALPHA_1BIT
    total = correlated_noise_variance(NoiseSpec(alpha, alpha * (1.0 - alpha), 1.0))
    # (alpha-1)^2 + alpha*(1-alpha) collapses to 1 - alpha
    assert total == pytest.approx(1.0 - alpha, abs=1e-12)


def test_empirical_total_noise_variance_within_one_percent():
    alpha, sigma_t_sq = 0.8, 2.0
    ybar, y = _artificial_measurements(2 * 10**5, sigma_t_sq, alpha, seed=11)
    spec = NoiseSpec(alpha, alpha * (1.0 - alpha) * sigma_t_sq, sigma_t_sq)
    noise = y - ybar
    assert np.var(noise) == pytest.approx(correlated_noise_variance(spec), rel=0.01)


def test_ensemble_validates_product_and_orthonormality():
    with pytest.raises(ValueError):
        SensingEnsemble.from_matrix(np.ones((3, 2)))  # M > N


def test_noise_spec_bounds():
    with pytest.raises(ValueError):
        NoiseSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        NoiseSpec(1.2, 0.1)
    with pytest.raises(ValueError):
        NoiseSpec(0.5, -0.1)
    NoiseSpec(1.0, 0.0)  # boundary alpha = 1 is allowed

