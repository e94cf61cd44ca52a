"""Simplex search over the (beta, epsilon) correction plane."""

import numpy as np
import pytest

from corrcs import neldermead
from corrcs.neldermead import minimize


def recording(fn):
    """Wrap an objective so every evaluation point and value is kept."""
    log = []

    def wrapped(beta, epsilon):
        value = fn(beta, epsilon)
        log.append((beta, epsilon, value))
        return value

    return wrapped, log


def test_quadratic_from_origin_converges_within_200_evals(monkeypatch):
    monkeypatch.setattr(neldermead, "_TOL", 1e-6)
    monkeypatch.setattr(neldermead, "_MAX_EVALS", 200)
    fn, log = recording(lambda b, e: (b - 1.0) ** 2 + (e - 2.0) ** 2)
    beta, epsilon, value = minimize(fn, (0.0, 0.0))
    assert beta == pytest.approx(1.0, abs=1e-4)
    assert epsilon == pytest.approx(2.0, abs=1e-4)
    assert len(log) <= 200


def test_nonsmooth_l1_objective(monkeypatch):
    monkeypatch.setattr(neldermead, "_TOL", 1e-5)
    beta, epsilon, value = minimize(lambda b, e: abs(b - 0.5) + abs(e - 0.5), (0.0, 0.0))
    assert beta == pytest.approx(0.5, abs=1e-3)
    assert epsilon == pytest.approx(0.5, abs=1e-3)


def test_returned_value_is_minimum_of_all_evaluations():
    # the best vertex is never discarded, so the returned value must equal
    # the smallest objective value ever evaluated
    fn, log = recording(
        lambda b, e: np.sin(3.0 * b) + (b - 1.2) ** 2 + np.cosh(e - 0.7) - 1.0
    )
    _, _, value = minimize(fn, (2.0, 2.0))
    assert value == min(entry[2] for entry in log)


def test_search_stays_in_positive_quadrant_and_clamps_to_floor():
    # pull the minimum outside the feasible region; every evaluation must be
    # clamped to the floor and the search should settle against it
    fn, log = recording(lambda b, e: (b + 1.0) ** 2 + (e + 1.0) ** 2)
    beta, epsilon, _ = minimize(fn, (1.0, 1.0))
    assert all(b >= 1e-9 and e >= 1e-9 for b, e, _ in log)
    assert 1e-9 <= beta <= 1e-2
    assert 1e-9 <= epsilon <= 1e-2


def test_non_finite_objective_at_init_is_rejected():
    with pytest.raises(ValueError):
        minimize(lambda b, e: float("nan"), (1.0, 1.0))


def test_deterministic_given_config_and_objective():
    fn = lambda b, e: (b - 0.3) ** 4 + (e - 1.7) ** 2 + 0.1 * b * e
    assert minimize(fn, (1.0, 1.0)) == minimize(fn, (1.0, 1.0))


def test_init_point_must_be_a_pair():
    with pytest.raises(ValueError):
        minimize(lambda b, e: b + e, (1.0, 2.0, 3.0))
