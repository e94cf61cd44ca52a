"""Scalar quantizer design for Gaussian sources and the gain-plus-noise model.

Two designs are provided: the Lloyd-Max quantizer (levels are cell centroids,
thresholds are level midpoints, iterated to a fixed point) and a uniform
mid-rise quantizer whose cell width is optimized for minimum mean squared
error. Both are designed from the known zero-mean Gaussian density, not from
samples.

A quantizer acting on Gaussian input ybar is modeled as Q(ybar) = alpha*ybar + r
with r uncorrelated noise; alpha = 1 - sigma_q^2/sigma_ybar^2 where
q = Q(ybar) - ybar. fit_gain_model estimates alpha by Monte-Carlo sampling,
gain_model_analytic evaluates the same quantity with closed-form cell integrals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class QuantizerDesignError(RuntimeError):
    """Design iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_levels: np.ndarray):
        super().__init__(message)
        self.last_levels = last_levels


@dataclass(frozen=True)
class ScalarQuantizer:
    """L = 2^resolution_bits cells: (-inf, p_1], (p_1, p_2], ..., (p_{L-1}, +inf).

    A value lying exactly on a threshold belongs to the lower cell.
    """

    thresholds: np.ndarray
    levels: np.ndarray
    resolution_bits: int

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        levels = np.asarray(self.levels, dtype=np.float64)
        thresholds.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "levels", levels)
        bits = self.resolution_bits
        if bits < 1:
            raise ValueError(f"resolution_bits must be >= 1, got {bits}")
        cells = 2**bits
        if levels.shape != (cells,):
            raise ValueError(f"expected {cells} levels, got shape {levels.shape}")
        if thresholds.shape != (cells - 1,):
            raise ValueError(
                f"expected {cells - 1} thresholds, got shape {thresholds.shape}"
            )
        if not (np.isfinite(thresholds).all() and np.isfinite(levels).all()):
            raise ValueError("thresholds and levels must be finite")
        if np.any(np.diff(thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        # level i must lie in its own cell (p_i, p_{i+1}]
        if np.any(levels[:-1] > thresholds) or np.any(levels[1:] <= thresholds):
            raise ValueError("each level must lie inside its own cell")


@dataclass(frozen=True)
class GainModelFit:
    """Gain-plus-additive-noise model of a quantizer on Gaussian input.

    Stored: the quantization error power sigma_q^2, the input power
    sigma_ybar^2 and the Monte-Carlo sample count (0 for the closed form).
    Derived from them: the gain alpha and the residual power sigma_r^2.
    """

    sigma_q_sq: float
    sigma_ybar_sq: float
    sample_count: int

    def __post_init__(self):
        if self.sigma_ybar_sq <= 0.0:
            raise ValueError("sigma_ybar_sq must be positive")

    @property
    def alpha(self) -> float:
        """Correlation gain 1 - sigma_q^2 / sigma_ybar^2."""
        return 1.0 - self.sigma_q_sq / self.sigma_ybar_sq

    @property
    def sigma_r_sq(self) -> float:
        """Power alpha * (1 - alpha) * sigma_ybar^2 of the uncorrelated residual."""
        alpha = self.alpha
        return alpha * (1.0 - alpha) * self.sigma_ybar_sq


def _standard_pdf(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


def _t_pdf(t: np.ndarray) -> np.ndarray:
    """t * pdf(t) with the t -> +/-inf limit of 0."""
    out = np.zeros_like(t)
    finite = np.isfinite(t)
    out[finite] = t[finite] * _standard_pdf(t[finite])
    return out


def _cell_moments(lower: np.ndarray, upper: np.ndarray):
    """Gaussian moments over standardized cells (lower, upper].

    Returns (P, m1, m2): the probability mass, first moment int t*pdf, and
    second moment int t^2*pdf of each cell for the standard normal density.
    Cells in the right half use complementary normal values and the pdf
    difference is factored through expm1, keeping full relative precision for
    narrow and far-tail cells where direct subtraction cancels.
    """
    pdf_lo = _standard_pdf(np.where(np.isfinite(lower), lower, 0.0)) * np.isfinite(lower)
    pdf_hi = _standard_pdf(np.where(np.isfinite(upper), upper, 0.0)) * np.isfinite(upper)
    mass = np.where(
        lower >= 0.0, ndtr(-lower) - ndtr(-upper), ndtr(upper) - ndtr(lower)
    )
    both = np.isfinite(lower) & np.isfinite(upper)
    m1 = pdf_lo - pdf_hi
    if np.any(both):
        # pdf(a) - pdf(b) = -pdf(a)*expm1(d) = pdf(b)*expm1(-d), d = (a^2-b^2)/2;
        # picking the branch with a non-positive expm1 argument avoids overflow
        # and keeps the larger pdf as the prefactor.
        a = np.where(both, lower, 0.0)
        b = np.where(both, upper, 0.0)
        d = 0.5 * (a - b) * (a + b)
        exact = np.where(
            d <= 0.0, -pdf_lo * np.expm1(d), pdf_hi * np.expm1(np.minimum(-d, 0.0))
        )
        m1 = np.where(both, exact, m1)
    m2 = mass + _t_pdf(lower) - _t_pdf(upper)
    return mass, m1, m2


def _cell_edges(thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.concatenate(([-np.inf], thresholds))
    upper = np.concatenate((thresholds, [np.inf]))
    return lower, upper


def _centroids(thresholds: np.ndarray, sigma: float, fallback: np.ndarray) -> np.ndarray:
    """Conditional Gaussian means of the cells defined by `thresholds`."""
    lower, upper = _cell_edges(thresholds / sigma)
    mass, m1, _ = _cell_moments(lower, upper)
    safe = mass > 0.0
    out = fallback.astype(np.float64, copy=True)
    out[safe] = sigma * m1[safe] / mass[safe]
    return out


def _expected_distortion(thresholds: np.ndarray, levels: np.ndarray, sigma: float) -> float:
    """E[(Y - Q(Y))^2] for Y ~ N(0, sigma^2), evaluated in closed form per cell."""
    lower, upper = _cell_edges(thresholds / sigma)
    mass, m1, m2 = _cell_moments(lower, upper)
    c = levels / sigma
    return float(sigma**2 * np.sum(m2 - 2.0 * c * m1 + np.square(c) * mass))


def _newton_step(levels: np.ndarray, thresholds: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Solve (J - I) d = -residual, J the tridiagonal Jacobian of the centroid map.

    For a cell (a, b) with Gaussian mass P and centroid c, dc/da = pdf(a)(c-a)/P
    and dc/db = pdf(b)(b-c)/P; each threshold moves at half the rate of its two
    neighboring levels, so the map levels -> centroids(midpoints(levels)) has a
    tridiagonal Jacobian. All quantities here are standardized (sigma = 1).
    """
    lower, upper = _cell_edges(thresholds)
    mass, _, _ = _cell_moments(lower, upper)
    centroid = levels + residual
    safe_mass = np.where(mass > 0.0, mass, 1.0)
    d_lower = np.zeros_like(levels)
    d_upper = np.zeros_like(levels)
    d_lower[1:] = _standard_pdf(lower[1:]) * (centroid[1:] - lower[1:]) / safe_mass[1:]
    d_upper[:-1] = _standard_pdf(upper[:-1]) * (upper[:-1] - centroid[:-1]) / safe_mass[:-1]
    d_lower *= mass > 0.0
    d_upper *= mass > 0.0
    banded = np.zeros((3, levels.size))
    banded[0, 1:] = 0.5 * d_upper[:-1]
    banded[1, :] = 0.5 * (d_lower + d_upper) - 1.0
    banded[2, :-1] = 0.5 * d_lower[1:]
    return solve_banded((1, 1), banded, -residual)


def design_lloyd_max(bits: int, sigma: float) -> ScalarQuantizer:
    """Minimum-MSE quantizer for N(0, sigma^2): centroid levels, midpoint thresholds.

    Levels start at the Gaussian quantiles of the cell-probability midpoints and
    are driven to the fixed point (thresholds = adjacent-level midpoints, levels
    = cell centroids) by Newton's method on the fixed-point residual; a Newton
    step that would break the level ordering falls back to a plain centroid
    update. Iteration stops once a plain update would move no level by more
    than 1e-12*sigma, or — for very fine quantizers, where rounding in the
    centroid evaluation floors the achievable movement above that — once the
    movement stops improving while already below 1e-10*sigma. The fixed point
    is a stationary point of the distortion, so residual level errors at that
    scale perturb derived quantities only at second order. The design is
    computed at unit scale and rescaled, so the quantizer for (bits, sigma) is
    sigma times the quantizer for (bits, 1).
    """
    _check_design_args(bits, sigma)
    cells = 2**bits
    probs = (np.arange(cells) + 0.5) / cells
    levels = ndtri(probs)
    max_iterations = 200
    best_levels, best_movement, stalled = levels, np.inf, 0
    for _ in range(max_iterations):
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        residual = _centroids(thresholds, 1.0, levels) - levels
        movement = float(np.max(np.abs(residual)))
        if movement < best_movement:
            best_levels, best_movement, stalled = levels, movement, 0
        else:
            stalled += 1
        if movement < 1e-12:
            break
        if stalled >= 5 and best_movement < 1e-10:
            levels = best_levels
            break
        candidate = levels + _newton_step(levels, thresholds, residual)
        if np.all(np.isfinite(candidate)) and np.all(np.diff(candidate) > 0.0):
            levels = candidate
        else:
            levels = levels + residual
    else:
        raise QuantizerDesignError(
            f"fixed point not reached after {max_iterations} iterations",
            sigma * best_levels,
        )
    levels = sigma * levels
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    return ScalarQuantizer(thresholds, levels, bits)


def design_uniform_mmse(bits: int, sigma: float) -> ScalarQuantizer:
    """Uniform mid-rise quantizer with cell width chosen for minimum MSE.

    The L = 2^bits cells have equal width delta with levels at the cell
    midpoints; the outer cells saturate to the outermost midpoints. delta is
    found by golden-section search on (0, 20*sigma/L].
    """
    _check_design_args(bits, sigma)
    cells = 2**bits

    def build(delta: float):
        edges = (np.arange(1, cells) - cells / 2.0) * delta
        mids = (np.arange(cells) - (cells - 1) / 2.0) * delta
        return edges, mids

    def distortion(delta: float) -> float:
        edges, mids = build(delta)
        return _expected_distortion(edges, mids, sigma)

    delta = _golden_section(distortion, 1e-9 * sigma, 20.0 * sigma / cells, 1e-10 * sigma)
    thresholds, levels = build(delta)
    return ScalarQuantizer(thresholds, levels, bits)


def _check_design_args(bits: int, sigma: float) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must lie in [1, 16], got {bits}")
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal function on [lo, hi] to interval width tol."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def quantize(q: ScalarQuantizer, v) -> np.ndarray:
    """Map each entry to the level of its cell; threshold values go to the lower cell."""
    v = np.asarray(v, dtype=np.float64)
    idx = np.searchsorted(q.thresholds, v, side="left")
    return q.levels[idx]


def fit_gain_model(
    q: ScalarQuantizer,
    sigma_ybar_sq: float,
    sample_count: int,
    rng: np.random.Generator,
) -> GainModelFit:
    """Monte-Carlo estimate of the gain model on N(0, sigma_ybar_sq) input.

    Draws `sample_count` Gaussian samples, computes the quantization error
    q = Q(ybar) - ybar, and returns alpha = 1 - sigma_q^2/sigma_ybar^2 using
    the sample second moments.
    """
    if not 0.0 < sigma_ybar_sq < np.inf:
        raise ValueError(f"sigma_ybar_sq must be positive and finite, got {sigma_ybar_sq}")
    if sample_count < 10_000:
        raise ValueError(f"sample_count must be >= 10000, got {sample_count}")
    ybar = rng.normal(0.0, np.sqrt(sigma_ybar_sq), size=sample_count)
    qerr = quantize(q, ybar) - ybar
    return GainModelFit(
        sigma_q_sq=float(np.mean(np.square(qerr))),
        sigma_ybar_sq=float(np.mean(np.square(ybar))),
        sample_count=sample_count,
    )


def gain_model_analytic(q: ScalarQuantizer, sigma_ybar_sq: float) -> GainModelFit:
    """Gain model evaluated with closed-form Gaussian cell integrals (no sampling).

    sigma_q^2 is the exact expected squared quantization error, so alpha is
    deterministic; sample_count is recorded as 0.
    """
    if not 0.0 < sigma_ybar_sq < np.inf:
        raise ValueError(f"sigma_ybar_sq must be positive and finite, got {sigma_ybar_sq}")
    sq = _expected_distortion(q.thresholds, q.levels, np.sqrt(sigma_ybar_sq))
    return GainModelFit(sigma_q_sq=sq, sigma_ybar_sq=sigma_ybar_sq, sample_count=0)


def quantizer_to_json(q: ScalarQuantizer) -> str:
    """Serialize as {bits, thresholds, levels}; floats keep full precision."""
    payload = {
        "bits": q.resolution_bits,
        "thresholds": [float(t) for t in q.thresholds],
        "levels": [float(level) for level in q.levels],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def quantizer_from_json(text: str) -> ScalarQuantizer:
    payload = json.loads(text)
    return ScalarQuantizer(
        thresholds=np.asarray(payload["thresholds"], dtype=np.float64),
        levels=np.asarray(payload["levels"], dtype=np.float64),
        resolution_bits=int(payload["bits"]),
    )
