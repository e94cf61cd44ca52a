"""Input checks and the read-only sensing matrix A.

The signal is sparse in the canonical basis, so the noiseless measurements
are ybar = A x with the sensing matrix A itself. The harness draws and
measures each trial's instance in corrcs.experiments (draw_instance,
measure).
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
