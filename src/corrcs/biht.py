"""Binary iterative hard thresholding for 1-bit sign measurements.

Measurements keep only sign(A x). The solver takes the fixed unit step
a = x + (1/2) A^T (signs - sign(A x)) on the one-sided sign objective,
hard-thresholds a to the k largest magnitudes, and stops as soon as the
current iterate reproduces every measured sign, or after a fixed 300
iterations. Amplitude is unrecoverable from signs, so the returned solution
is normalized to unit l2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpdn import SolverReport
from .model import _as_float_vector, _system

_MAX_ITERATIONS = 300


@dataclass(frozen=True)
class BihtProblem:
    """Sign measurements and sparsity budget; the iteration cap is fixed."""

    system_matrix: np.ndarray
    signs: np.ndarray
    k: int

    def __post_init__(self):
        a, signs = _system(self.system_matrix, self.signs, "signs")
        object.__setattr__(self, "system_matrix", a)
        object.__setattr__(self, "signs", signs)
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs entries must all be -1 or +1")
        if not 1 <= self.k <= a.shape[1]:
            raise ValueError(f"k must be in [1, {a.shape[1]}], got {self.k}")


def sign_with_positive_zero(v: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, keeping outputs in {-1, +1}."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties are broken by keeping the lowest index (stable order on equal
    magnitudes). v is expected to be finite, as solve_biht's iterates are;
    which entries a NaN leaves is unspecified.
    """
    v = _as_float_vector(v, "v")
    if not 0 <= k <= v.size:
        raise ValueError(f"k must be in [0, {v.size}], got {k}")
    if k == 0:
        return np.zeros_like(v)
    if k == v.size:
        return v.copy()
    mag = np.abs(v)
    kth = np.partition(mag, v.size - k)[v.size - k]  # the k-th largest magnitude
    keep = mag >= kth
    if np.count_nonzero(keep) > k:
        # more than k entries reach it: keep those above it and, among those
        # equal to it, the lowest indices
        keep = mag > kth
        ties = np.flatnonzero(mag == kth)
        keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.where(keep, v, 0.0)


def solve_biht(problem: BihtProblem) -> SolverReport:
    """Run hard-thresholded sign-consistency iterations from the zero vector.

    Convergence means the iterate reproduces every measured sign. On
    non-convergence the iterate with the fewest sign disagreements seen
    (earliest such iterate on ties) is returned with converged=False.
    residual_norm reports the l2 norm of signs - sign(A @ solution), i.e.
    2*sqrt(number of sign disagreements).
    """
    a = problem.system_matrix
    signs = problem.signs
    k = problem.k

    x = np.zeros(a.shape[1])
    best_x = x
    best_mismatches = signs.size + 1
    converged = False
    for iterations in range(_MAX_ITERATIONS + 1):
        mismatch = signs - sign_with_positive_zero(a @ x)
        mismatches = int(np.count_nonzero(mismatch))
        if mismatches < best_mismatches:
            best_mismatches = mismatches
            best_x = x
        if mismatches == 0:
            converged = True
            break
        if iterations == _MAX_ITERATIONS:
            break
        x = hard_threshold(x + 0.5 * (a.T @ mismatch), k)

    solution = best_x
    norm = float(np.linalg.norm(solution))
    if norm > 0.0:
        solution = solution / norm
    residual = signs - sign_with_positive_zero(a @ solution)
    return SolverReport(
        solution=solution,
        residual_norm=float(np.linalg.norm(residual)),
        l1_norm=float(np.abs(solution).sum()),
        iterations=iterations,
        converged=converged,
    )
