"""Core measurement model: input checks, the sensing matrix, correlated noise.

The signal is sparse in the canonical basis, so the measurements use the
sensing matrix A directly. The noise model is y = alpha * ybar + w, where
ybar = A x are the noiseless measurements, 0 < alpha <= 1, and w is
zero-mean white Gaussian noise that is uncorrelated with ybar. Total noise
n = y - ybar then has per-entry variance (alpha - 1)^2 * sigma_ybar^2 +
sigma_w^2. The harness draws and measures each trial's instance in
corrcs.experiments (draw_instance, measure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D real vector, got shape {arr.shape}")
    return arr


def _as_float_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(
            f"{name} must be a non-empty 2-D real matrix, got shape {arr.shape}"
        )
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or inf)")


@dataclass(frozen=True)
class SensingEnsemble:
    """Read-only M x N system matrix A (M <= N) of the measurements ybar = A x."""

    system_matrix: np.ndarray

    def __post_init__(self):
        a = _as_float_matrix(self.system_matrix, "system_matrix")
        a.setflags(write=False)
        object.__setattr__(self, "system_matrix", a)
        m, n = a.shape
        if m > n:
            raise ValueError(f"expected M <= N, got M={m}, N={n}")

    @classmethod
    def from_matrix(cls, a) -> "SensingEnsemble":
        """Ensemble whose system matrix is `a`."""
        return cls(a)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the correlated noise model y = alpha * ybar + w."""

    alpha: float
    sigma_w_sq: float
    sigma_ybar_sq: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.sigma_w_sq < 0.0:
            raise ValueError(f"sigma_w_sq must be >= 0, got {self.sigma_w_sq}")
        if self.sigma_ybar_sq < 0.0:
            raise ValueError(f"sigma_ybar_sq must be >= 0, got {self.sigma_ybar_sq}")


def correlated_noise_variance(spec: NoiseSpec) -> float:
    """Per-entry variance of the total noise n = y - ybar."""
    return (spec.alpha - 1.0) ** 2 * spec.sigma_ybar_sq + spec.sigma_w_sq
