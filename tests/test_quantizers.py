"""Quantizer design, quantization semantics, and the gain model."""

import json

import numpy as np
import pytest

from corrcs import quantizers
from corrcs.quantizers import (
    ScalarQuantizer,
    design_lloyd_max,
    design_uniform_mmse,
    fit_gain_model,
    gain_model_analytic,
    quantize,
    quantizer_from_json,
    quantizer_to_json,
)

HALF_NORMAL_MEAN = np.sqrt(2.0 / np.pi)


def test_one_bit_lloyd_max_levels():
    q = design_lloyd_max(1, 1.0)
    assert q.thresholds == pytest.approx([0.0], abs=1e-12)
    assert q.levels == pytest.approx([-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], abs=1e-8)


def test_one_bit_design_scales_with_sigma():
    q = design_lloyd_max(1, 2.0)
    assert q.levels == pytest.approx(
        [-2.0 * HALF_NORMAL_MEAN, 2.0 * HALF_NORMAL_MEAN], abs=1e-8
    )


def test_three_bit_lloyd_max_alpha():
    q = design_lloyd_max(3, 1.0)
    fit = fit_gain_model(q, 1.0, 10**6, np.random.default_rng(0))
    assert fit.alpha == pytest.approx(0.9655, abs=0.0015)


def test_lloyd_max_fixed_point():
    from scipy.special import ndtr

    q = design_lloyd_max(4, 1.5)
    # thresholds are adjacent-level midpoints
    midpoints = 0.5 * (q.levels[:-1] + q.levels[1:])
    assert np.allclose(q.thresholds, midpoints, atol=1e-10)
    # levels are Gaussian cell centroids
    sigma = 1.5
    edges = np.concatenate(([-np.inf], q.thresholds, [np.inf]))
    for i, level in enumerate(q.levels):
        a, b = edges[i] / sigma, edges[i + 1] / sigma
        phi_a = 0.0 if np.isinf(a) else np.exp(-0.5 * a * a) / np.sqrt(2 * np.pi)
        phi_b = 0.0 if np.isinf(b) else np.exp(-0.5 * b * b) / np.sqrt(2 * np.pi)
        mass = ndtr(b) - ndtr(a)
        assert level == pytest.approx(sigma * (phi_a - phi_b) / mass, abs=1e-8)


@pytest.mark.parametrize("bits", range(1, 17))
def test_lloyd_max_reaches_its_fixed_point_by_increasing_newton_steps(bits, monkeypatch):
    # The design runs at unit scale, so the depths 1-16 are its whole input
    # domain: on each, every Newton step keeps the levels increasing and the
    # design ends at the fixed point.
    steps = []
    original = quantizers._newton_step

    def recording(levels, thresholds, residual):
        step = original(levels, thresholds, residual)
        steps.append(np.diff(levels + step).min())
        return step

    monkeypatch.setattr(quantizers, "_newton_step", recording)
    q = design_lloyd_max(bits, 1.0)
    assert steps and min(steps) > 0.0
    assert np.array_equal(q.thresholds, 0.5 * (q.levels[:-1] + q.levels[1:]))
    residual = quantizers._centroids(q.thresholds, q.levels) - q.levels
    assert np.abs(residual).max() <= 1e-10


def test_uniform_one_bit_equals_lloyd_max():
    qu = design_uniform_mmse(1, 1.0)
    ql = design_lloyd_max(1, 1.0)
    assert qu.levels == pytest.approx(ql.levels, abs=1e-8)
    assert qu.thresholds == pytest.approx(ql.thresholds, abs=1e-10)


def test_uniform_alphas_match_published_values():
    fit3 = gain_model_analytic(design_uniform_mmse(3, 1.0), 1.0)
    assert fit3.alpha == pytest.approx(0.9626, abs=0.0015)
    fit5 = gain_model_analytic(design_uniform_mmse(5, 1.0), 1.0)
    assert fit5.alpha == pytest.approx(0.99651, abs=0.0005)


def test_uniform_cells_have_equal_width():
    q = design_uniform_mmse(3, 1.0)
    widths = np.diff(q.thresholds)
    assert np.allclose(widths, widths[0], atol=1e-12)
    # levels at interior-cell midpoints
    inner_mid = 0.5 * (q.thresholds[:-1] + q.thresholds[1:])
    assert np.allclose(q.levels[1:-1], inner_mid, atol=1e-10)


def test_quantize_one_bit_boundary_convention():
    q = design_lloyd_max(1, 1.0)
    out = quantize(q, np.array([-0.3, 0.0, 2.1]))
    lo, hi = q.levels
    # 0 sits exactly on the threshold and belongs to the lower half-open cell
    assert out == pytest.approx([lo, lo, hi], abs=1e-8)


def test_quantize_levels_are_fixed_points():
    for q in (design_lloyd_max(3, 1.0), design_uniform_mmse(4, 2.0)):
        assert np.array_equal(quantize(q, q.levels), q.levels)


def test_quantize_output_range_and_monotonicity():
    q = design_lloyd_max(3, 1.0)
    v = np.sort(np.random.default_rng(1).normal(0.0, 2.0, 500))
    out = quantize(q, v)
    assert len(np.unique(out)) <= 8
    assert np.all(np.diff(out) >= 0.0)


def test_scale_equivariance():
    for builder in (design_lloyd_max, design_uniform_mmse):
        base = builder(3, 1.0)
        scaled = builder(3, 2.5)
        assert np.allclose(scaled.levels, 2.5 * base.levels, atol=1e-8)
        assert np.allclose(scaled.thresholds, 2.5 * base.thresholds, atol=1e-8)
    fit_lo = fit_gain_model(
        design_lloyd_max(3, 1.0), 1.0, 10**5, np.random.default_rng(2)
    )
    fit_hi = fit_gain_model(
        design_lloyd_max(3, 3.0), 9.0, 10**5, np.random.default_rng(3)
    )
    assert fit_lo.alpha == pytest.approx(fit_hi.alpha, abs=0.005)


def test_gain_model_fit_internal_identities():
    fit = fit_gain_model(design_lloyd_max(3, 1.0), 1.0, 10**5, np.random.default_rng(4))
    assert fit.alpha == pytest.approx(1.0 - fit.sigma_q_sq / fit.sigma_ybar_sq, abs=1e-12)
    assert fit.sigma_r_sq == pytest.approx(
        fit.alpha * (1.0 - fit.alpha) * fit.sigma_ybar_sq, abs=1e-12
    )


def test_fine_quantizer_alpha_approaches_one():
    alphas = [
        gain_model_analytic(design_lloyd_max(bits, 1.0), 1.0).alpha
        for bits in range(1, 17)
    ]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert alphas[9] > 0.9999
    assert alphas[-1] > 1.0 - 1e-9


def test_fit_gain_model_input_validation():
    q = design_lloyd_max(1, 1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fit_gain_model(q, 0.0, 10**5, rng)
    with pytest.raises(ValueError):
        fit_gain_model(q, 1.0, 100, rng)
    # 1e-320 is subnormal: too few significant bits for the gain
    for bad in (-1.0, 1e-320, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gain_model_analytic(q, bad)
        with pytest.raises(ValueError):
            fit_gain_model(q, bad, 10**5, rng)


def test_design_input_validation():
    for builder in (design_lloyd_max, design_uniform_mmse):
        with pytest.raises(ValueError):
            builder(0, 1.0)
        with pytest.raises(ValueError):
            builder(17, 1.0)
        for sigma in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                builder(3, sigma)


def test_quantizer_type_invariants():
    with pytest.raises(ValueError):  # wrong level count for the bit depth
        ScalarQuantizer(
            thresholds=np.array([0.0]), levels=np.array([-1.0, 0.5, 1.0]),
            resolution_bits=2,
        )
    with pytest.raises(ValueError):  # thresholds not strictly increasing
        ScalarQuantizer(
            thresholds=np.array([1.0, 0.5, 2.0]),
            levels=np.array([0.0, 0.8, 1.5, 2.5]),
            resolution_bits=2,
        )
    with pytest.raises(ValueError):  # second level escapes its cell (-1, 0]
        ScalarQuantizer(
            thresholds=np.array([-1.0, 0.0, 1.0]),
            levels=np.array([-2.0, 0.5, 0.7, 2.0]),
            resolution_bits=2,
        )
    with pytest.raises(ValueError):  # a non-finite level, as outside JSON can hold
        ScalarQuantizer(
            thresholds=np.array([0.0]), levels=np.array([np.nan, 1.0]),
            resolution_bits=1,
        )


def test_json_round_trip_preserves_precision():
    q = design_lloyd_max(5, 1.0)
    back = quantizer_from_json(quantizer_to_json(q))
    assert np.array_equal(back.thresholds, q.thresholds)
    assert np.array_equal(back.levels, q.levels)
    assert back.resolution_bits == q.resolution_bits
    payload = json.loads(quantizer_to_json(q))
    assert set(payload) == {"bits", "thresholds", "levels"}
