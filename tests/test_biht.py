"""Binary iterative hard thresholding on 1-bit sign measurements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrcs import biht
from corrcs.biht import (
    BihtProblem,
    hard_threshold,
    sign_with_positive_zero,
    solve_biht,
)


def sign_instance(rng, n, m, k):
    """Unit-norm k-sparse ground truth and the signs of its measurements."""
    a = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.normal(size=k) + np.sign(rng.normal(size=k))
    x /= np.linalg.norm(x)
    return a, x, sign_with_positive_zero(a @ x)


def test_hard_threshold_keeps_largest_magnitudes():
    out = hard_threshold(np.array([3.0, -1.0, 0.5, 2.0]), 2)
    assert out.tolist() == [3.0, 0.0, 0.0, 2.0]


def test_hard_threshold_k_zero_is_zero_vector():
    out = hard_threshold(np.array([3.0, -1.0, 0.5]), 0)
    assert out.tolist() == [0.0, 0.0, 0.0]


def test_hard_threshold_k_full_is_identity_copy():
    v = np.array([3.0, -1.0, 0.5])
    out = hard_threshold(v, v.size)
    assert out.tolist() == v.tolist()
    out[0] = -7.0
    assert v[0] == 3.0


def test_hard_threshold_ties_keep_lowest_index():
    out = hard_threshold(np.array([1.0, -1.0, 1.0]), 2)
    assert out.tolist() == [1.0, -1.0, 0.0]


def hard_threshold_by_stable_sort(v, k):
    """Keep the first k entries of a stable descending-magnitude sort."""
    keep = np.argsort(-np.abs(v), kind="stable")[:k]
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 300),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
            st.floats(-1e6, 1e6, allow_subnormal=True),
        ),
    ),
    st.floats(0.0, 1.0),
)
def test_hard_threshold_matches_stable_sort_on_ties(v, fraction):
    k = int(round(fraction * v.size))
    expected = hard_threshold_by_stable_sort(v, k)
    got = hard_threshold(v, k)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_hard_threshold_rejects_bad_k():
    v = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        hard_threshold(v, -1)
    with pytest.raises(ValueError):
        hard_threshold(v, 3)


def test_sign_convention_maps_zero_to_plus_one():
    out = sign_with_positive_zero(np.array([-0.5, 0.0, 2.0, -0.0]))
    assert out.tolist() == [-1.0, 1.0, 1.0, 1.0]


def test_single_full_support_step_is_pure_gradient(monkeypatch):
    # with k = n the threshold is the identity, so the first iterate from zero
    # is exactly (step/2) * A^T (signs - sign(0)); with A = I and signs
    # [-1, +1, -1] that step is [-1, 0, -1], already sign-consistent
    monkeypatch.setattr(biht, "_MAX_ITERATIONS", 1)
    problem = BihtProblem(system_matrix=np.eye(3), signs=np.array([-1.0, 1.0, -1.0]), k=3)
    report = solve_biht(problem)
    assert report.converged
    assert report.iterations == 1
    expected = np.array([-1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert report.solution == pytest.approx(expected, abs=1e-15)


def test_consistent_start_returns_zero_at_iteration_zero():
    # the zero start measures as sign(0) = +1 everywhere, so an all-plus sign
    # vector is already consistent and the solver must not take a step
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 4))
    report = solve_biht(BihtProblem(a, np.ones(6), k=2))
    assert report.converged
    assert report.iterations == 0
    assert report.solution.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert report.residual_norm == 0.0
    assert report.l1_norm == 0.0


def test_overdetermined_signs_recover_sparse_signal():
    rng = np.random.default_rng(7)
    a, x, signs = sign_instance(rng, 1000, 2000, 5)
    report = solve_biht(BihtProblem(a, signs, k=5))
    assert report.converged
    nmse = float(np.sum((report.solution - x) ** 2) / np.sum(x**2))
    assert nmse < 0.01


def test_solution_sparsity_and_unit_norm(monkeypatch):
    monkeypatch.setattr(biht, "_MAX_ITERATIONS", 50)
    rng = np.random.default_rng(21)
    for trial in range(5):
        a, _, signs = sign_instance(rng, 64, 96, 4)
        report = solve_biht(BihtProblem(a, signs, k=4))
        assert np.count_nonzero(report.solution) <= 4
        assert np.linalg.norm(report.solution) == pytest.approx(1.0, abs=1e-12)


def test_converged_means_zero_sign_mismatches():
    rng = np.random.default_rng(0)
    a, _, signs = sign_instance(rng, 128, 256, 3)
    report = solve_biht(BihtProblem(a, signs, k=3))
    assert report.converged
    resigned = sign_with_positive_zero(a @ report.solution)
    assert np.array_equal(resigned, signs)
    assert report.residual_norm == 0.0


def test_residual_norm_counts_sign_disagreements(monkeypatch):
    # starve the iteration so it stops short, then check the reported residual
    # is exactly twice the square root of the remaining mismatch count
    monkeypatch.setattr(biht, "_MAX_ITERATIONS", 2)
    rng = np.random.default_rng(9)
    a, _, signs = sign_instance(rng, 128, 256, 6)
    report = solve_biht(BihtProblem(a, signs, k=6))
    mismatches = int(
        np.count_nonzero(sign_with_positive_zero(a @ report.solution) != signs)
    )
    assert report.residual_norm == pytest.approx(
        2.0 * np.sqrt(mismatches), abs=1e-12
    )


def test_nonconvergence_reports_false_with_unit_norm_iterate(monkeypatch):
    # random signs decoupled from any sparse generator are unrealizable at
    # this sparsity, so the cap is hit and the best iterate comes back
    monkeypatch.setattr(biht, "_MAX_ITERATIONS", 25)
    rng = np.random.default_rng(13)
    a = rng.normal(0.0, 1.0 / np.sqrt(60), size=(60, 40))
    signs = sign_with_positive_zero(rng.normal(size=60))
    report = solve_biht(BihtProblem(a, signs, k=2))
    assert not report.converged
    assert report.residual_norm > 0.0
    assert np.count_nonzero(report.solution) <= 2
    assert np.linalg.norm(report.solution) == pytest.approx(1.0, abs=1e-12)


def test_recovery_invariant_to_positive_matrix_scaling():
    # signs carry no amplitude, so scaling the matrix must not change the
    # normalized solution path
    rng = np.random.default_rng(55)
    a, x, signs = sign_instance(rng, 100, 500, 3)
    base = solve_biht(BihtProblem(a, signs, k=3))
    scaled = solve_biht(BihtProblem(3.0 * a, signs, k=3))
    assert base.converged and scaled.converged
    assert scaled.solution == pytest.approx(base.solution, abs=1e-12)
    nmse_base = float(np.sum((base.solution - x) ** 2))
    nmse_scaled = float(np.sum((scaled.solution - x) ** 2))
    assert nmse_scaled == pytest.approx(nmse_base, abs=1e-12)


def test_problem_validation():
    a = np.eye(3)
    good_signs = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        BihtProblem(a, np.array([1.0, 0.0, 1.0]), k=1)
    with pytest.raises(ValueError):
        BihtProblem(a, np.array([1.0, 2.0, 1.0]), k=1)
    with pytest.raises(ValueError):
        BihtProblem(a, np.array([1.0, -1.0]), k=1)
    with pytest.raises(ValueError):
        BihtProblem(a, good_signs, k=0)
    with pytest.raises(ValueError):
        BihtProblem(a, good_signs, k=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_input(bad):
    a = np.eye(3)
    a_bad = a.copy()
    a_bad[1, 2] = bad
    good_signs = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="system_matrix"):
        BihtProblem(a_bad, good_signs, k=1)
    with pytest.raises(ValueError, match="signs"):
        BihtProblem(a, np.array([1.0, bad, 1.0]), k=1)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_problem_rejects_empty_shapes(shape):
    with pytest.raises(ValueError, match="non-empty"):
        BihtProblem(np.zeros(shape), np.ones(shape[0]), k=1)

