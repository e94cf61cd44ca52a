"""Derivative-free simplex search over (beta, epsilon) correction parameters.

The reconstruction error as a function of the post-solve scaling beta and the
fidelity radius epsilon is observed to be quasi-convex but is only available
through Monte-Carlo evaluation, so it is minimized with the Nelder-Mead
simplex method. Callers must make the objective deterministic (fix the trial
seeds - common random numbers) or the simplex ordering is meaningless.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

_FEASIBLE_FLOOR = 1e-9

# Nelder-Mead coefficients (the standard choice), the initial simplex's
# relative edge length, and the stopping controls: the relative simplex
# diameter and the evaluation budget.
_REFLECTION = 1.0
_EXPANSION = 2.0
_CONTRACTION = 0.5
_SHRINK = 0.5
_INIT_SPREAD = 0.2
_TOL = 1e-3
_MAX_EVALS = 400


def _clamp(point: np.ndarray) -> np.ndarray:
    """Pull infeasible coordinates back to just inside the positive quadrant."""
    return np.maximum(point, _FEASIBLE_FLOOR)


def minimize(
    objective: Callable[[float, float], float], start: Tuple[float, float]
) -> Tuple[float, float, float]:
    """Minimize objective(beta, epsilon) over the positive quadrant from `start`.

    Returns (beta, epsilon, value) at the best vertex once the simplex
    diameter falls below _TOL relative to the best vertex's scale, or once
    _MAX_EVALS objective evaluations have been spent. The best value never
    increases from one iteration to the next.
    """
    evals = 0

    def call(point: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = float(objective(float(point[0]), float(point[1])))
        return value if np.isfinite(value) else np.inf

    base = _clamp(np.asarray(start, dtype=np.float64))
    if base.shape != (2,):
        raise ValueError(f"start must be a (beta, epsilon) pair, got {start}")
    vertices = [base]
    for i in range(2):
        step = _INIT_SPREAD * base[i]
        if step < _INIT_SPREAD * 1e-6:
            step = _INIT_SPREAD
        shifted = base.copy()
        shifted[i] += step
        vertices.append(_clamp(shifted))
    values = [call(v) for v in vertices]
    if not all(np.isfinite(values)):
        raise ValueError("objective is not finite on the initial simplex")

    while evals < _MAX_EVALS:
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        best, worst = vertices[0], vertices[-1]
        diameter = max(float(np.linalg.norm(v - best)) for v in vertices[1:])
        if diameter < _TOL * max(1.0, float(np.linalg.norm(best))):
            break

        centroid = (vertices[0] + vertices[1]) / 2.0
        reflected = _clamp(centroid + _REFLECTION * (centroid - worst))
        f_reflected = call(reflected)
        if values[0] <= f_reflected < values[1]:
            vertices[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = _clamp(centroid + _EXPANSION * (reflected - centroid))
            f_expanded = call(expanded)
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = _clamp(centroid + _CONTRACTION * (reflected - centroid))
            f_contracted = call(contracted)
            if f_contracted <= f_reflected:
                vertices[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = _clamp(centroid + _CONTRACTION * (worst - centroid))
            f_contracted = call(contracted)
            if f_contracted < values[-1]:
                vertices[-1], values[-1] = contracted, f_contracted
                continue
        for i in (1, 2):
            vertices[i] = _clamp(best + _SHRINK * (vertices[i] - best))
            values[i] = call(vertices[i])

    order = np.argsort(values, kind="stable")
    best = vertices[order[0]]
    return float(best[0]), float(best[1]), float(values[order[0]])
