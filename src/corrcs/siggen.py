"""Deterministic generation of random problem instances.

Every random draw flows through a stream derived from (master_seed,
trial_index, purpose), so any trial can be regenerated in isolation and
results do not depend on execution order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SensingEnsemble

# Measurement-count / sparsity pairs of the N=1000 benchmark grid.
BENCHMARK_N = 1000
_BENCHMARK_PAIRS = (
    (200, 1),
    (300, 17),
    (400, 41),
    (500, 73),
    (600, 115),
    (700, 167),
    (800, 235),
    (900, 330),
    (1000, 542),
)

# Purpose codes keep the signal/matrix/noise streams of one trial independent.
_PURPOSE_CODES = {"signal": 0, "matrix": 1, "noise": 2}


@dataclass(frozen=True)
class InstanceConfig:
    """Shape and seed of one random problem instance."""

    n: int
    m: int
    k: int
    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not 0 <= self.k <= self.m:
            raise ValueError(f"need 0 <= k <= m, got k={self.k}, m={self.m}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")


def purpose_rng(config: InstanceConfig, purpose: str) -> np.random.Generator:
    """Independent generator for one purpose ("signal", "matrix", "noise") of one trial."""
    code = _PURPOSE_CODES[purpose]
    seq = np.random.SeedSequence(
        entropy=config.master_seed, spawn_key=(config.trial_index, code)
    )
    return np.random.Generator(np.random.PCG64(seq))


def generate_signal(
    config: InstanceConfig, rng: np.random.Generator, normalize: bool = False
) -> np.ndarray:
    """K-sparse signal: support uniform without replacement, values standard normal.

    With normalize=True the signal is scaled to unit l2 norm (the convention
    for comparisons against sign-measurement reconstruction).
    """
    values = np.zeros(config.n)
    if config.k > 0:
        support = rng.choice(config.n, size=config.k, replace=False)
        nonzeros = rng.standard_normal(config.k)
        # an exactly-zero draw would break the exact-sparsity invariant
        while np.any(nonzeros == 0.0):
            redraw = nonzeros == 0.0
            nonzeros[redraw] = rng.standard_normal(int(redraw.sum()))
        if normalize:
            nonzeros = nonzeros / np.linalg.norm(nonzeros)
        values[support] = nonzeros
    return values


def generate_ensemble(config: InstanceConfig, rng: np.random.Generator) -> SensingEnsemble:
    """Gaussian ensemble: entries of the M x N system matrix A iid N(0, 1/M)."""
    a = rng.normal(0.0, 1.0 / np.sqrt(config.m), size=(config.m, config.n))
    return SensingEnsemble.from_matrix(a)


def benchmark_grid() -> list[tuple[int, int]]:
    """The nine (M, K) pairs of the N=1000 benchmark, in ascending M order."""
    return list(_BENCHMARK_PAIRS)
