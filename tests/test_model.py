"""Noise/measurement model: statistical checks and the sensing matrix."""

import numpy as np
import pytest

from corrcs.biht import BihtProblem
from corrcs.bpdn import BpdnProblem, SolverReport
from corrcs.experiments import measure
from corrcs.model import SensingEnsemble
from corrcs.quantizers import ScalarQuantizer
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


def test_empirical_total_noise_variance_within_one_percent():
    alpha, sigma_t_sq = 0.8, 2.0
    ybar, y = _artificial_measurements(2 * 10**5, sigma_t_sq, alpha, seed=11)
    # total noise power (alpha-1)^2 sigma^2 + sigma_w^2, with the harness's sigma_w^2
    total = (alpha - 1.0) ** 2 * sigma_t_sq + alpha * (1.0 - alpha) * sigma_t_sq
    noise = y - ybar
    assert np.var(noise) == pytest.approx(total, rel=0.01)


def test_ensemble_validates_product_and_orthonormality():
    with pytest.raises(ValueError):
        SensingEnsemble.from_matrix(np.ones((3, 2)))  # M > N


def test_stored_arrays_are_read_only_and_callers_keep_write_access():
    a = np.eye(3)
    y = np.array([1.0, -1.0, 1.0])
    thresholds, levels = np.array([0.0]), np.array([-1.0, 1.0])
    solution = np.zeros(3)
    stored = [
        BpdnProblem(a, y, 0.1).system_matrix,
        BpdnProblem(a, y, 0.1).observed,
        BihtProblem(a, y, k=1).system_matrix,
        BihtProblem(a, y, k=1).signs,
        ScalarQuantizer(thresholds, levels, 1).thresholds,
        ScalarQuantizer(thresholds, levels, 1).levels,
        SolverReport(solution, 0.0, 0.0, 0, True).solution,
    ]
    for caller_array in (a, y, thresholds, levels, solution):
        assert caller_array.flags.writeable
    for field in stored:
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0
