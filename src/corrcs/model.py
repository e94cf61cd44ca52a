"""Core measurement model: sparse signals, sensing ensembles, correlated noise.

The noise model is y = alpha * ybar + w, where ybar = A x are the noiseless
measurements, 0 < alpha <= 1, and w is zero-mean white Gaussian noise that is
uncorrelated with ybar. Total noise n = y - ybar then has per-entry variance
(alpha - 1)^2 * sigma_ybar^2 + sigma_w^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _is_identity(psi: np.ndarray) -> bool:
    n = psi.shape[0]
    if psi.shape != (n, n) or np.count_nonzero(psi) != n:
        return False
    return bool(np.all(np.diagonal(psi) == 1.0))


@dataclass(frozen=True)
class SparseSignal:
    """Ground-truth vector of length N with exactly `sparsity` nonzero entries."""

    values: np.ndarray
    sparsity: int

    def __post_init__(self):
        values = _as_float_vector(self.values, "values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        n = values.size
        if n < 1:
            raise ValueError("signal length must be at least 1")
        if not 0 <= self.sparsity <= n:
            raise ValueError(f"sparsity must lie in [0, {n}], got {self.sparsity}")
        nnz = int(np.count_nonzero(values))
        if nnz != self.sparsity:
            raise ValueError(f"signal has {nnz} nonzero entries, expected {self.sparsity}")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SensingEnsemble:
    """Measurement matrix Phi, orthonormal dictionary Psi, and A = Phi @ Psi."""

    measurement_matrix: np.ndarray
    dictionary: np.ndarray
    system_matrix: np.ndarray

    def __post_init__(self):
        phi = _as_float_matrix(self.measurement_matrix, "measurement_matrix")
        psi = _as_float_matrix(self.dictionary, "dictionary")
        a = _as_float_matrix(self.system_matrix, "system_matrix")
        for arr in (phi, psi, a):
            arr.setflags(write=False)
        object.__setattr__(self, "measurement_matrix", phi)
        object.__setattr__(self, "dictionary", psi)
        object.__setattr__(self, "system_matrix", a)
        m, n = phi.shape
        if m > n:
            raise ValueError(f"expected M <= N, got M={m}, N={n}")
        if psi.shape != (n, n):
            raise ValueError(f"dictionary must be {n}x{n}, got {psi.shape}")
        if a.shape != (m, n):
            raise ValueError(f"system matrix must be {m}x{n}, got {a.shape}")
        if _is_identity(psi):
            # identity dictionary: orthonormal by inspection, and A must equal Phi;
            # skips the O(N^3) Gram product on the common Psi = I path
            if a is not phi and not np.array_equal(a, phi):
                raise ValueError("system matrix does not equal measurement_matrix @ dictionary")
        else:
            gram = psi.T @ psi
            if not np.allclose(gram, np.eye(n), atol=1e-10):
                raise ValueError("dictionary is not orthonormal within 1e-10")
            if not np.allclose(a, phi @ psi, atol=1e-12):
                raise ValueError("system matrix does not equal measurement_matrix @ dictionary")

    @property
    def m(self) -> int:
        return self.measurement_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.measurement_matrix.shape[1]

    @classmethod
    def from_matrix(cls, phi) -> "SensingEnsemble":
        """Ensemble with identity dictionary, so A = Phi."""
        phi = _as_float_matrix(phi, "measurement_matrix")
        return cls(phi, np.eye(phi.shape[1]), phi)


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


@dataclass(frozen=True)
class MeasurementSet:
    """Observed measurements y, with the noiseless ybar retained for diagnostics."""

    observed: np.ndarray
    noiseless: np.ndarray | None = field(default=None)

    def __post_init__(self):
        observed = _as_float_vector(self.observed, "observed")
        observed.setflags(write=False)
        object.__setattr__(self, "observed", observed)
        if self.noiseless is not None:
            noiseless = _as_float_vector(self.noiseless, "noiseless")
            if noiseless.size != observed.size:
                raise ValueError("observed and noiseless lengths differ")
            noiseless.setflags(write=False)
            object.__setattr__(self, "noiseless", noiseless)

    @property
    def m(self) -> int:
        return self.observed.size


def measure_noiseless(signal: SparseSignal, ensemble: SensingEnsemble) -> np.ndarray:
    """Return ybar = A x."""
    if signal.n != ensemble.n:
        raise ValueError(f"signal length {signal.n} does not match ensemble columns {ensemble.n}")
    return ensemble.system_matrix @ signal.values


def apply_correlated_noise(
    noiseless: np.ndarray, spec: NoiseSpec, rng: np.random.Generator
) -> MeasurementSet:
    """Return y = alpha * ybar + w with w ~ N(0, sigma_w_sq I)."""
    ybar = _as_float_vector(noiseless, "noiseless")
    y = spec.alpha * ybar
    if spec.sigma_w_sq > 0.0:
        y = y + rng.normal(0.0, np.sqrt(spec.sigma_w_sq), size=ybar.size)
    return MeasurementSet(observed=y, noiseless=ybar)


def correlated_noise_variance(spec: NoiseSpec) -> float:
    """Per-entry variance of the total noise n = y - ybar."""
    return (spec.alpha - 1.0) ** 2 * spec.sigma_ybar_sq + spec.sigma_w_sq
