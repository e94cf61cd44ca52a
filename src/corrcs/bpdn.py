"""Basis pursuit denoising and its scaled variants for correlated noise.

solve_bpdn computes

    min ||z||_1  subject to  ||y - A z||_2 <= epsilon

by Newton root finding on the Pareto curve phi(tau) = min{||y - A z||_2 :
||z||_1 <= tau}. Each tau-subproblem is handled by a spectral projected
gradient iteration with a nonmonotone line search and exact projection onto
the l1 ball; tau moves with the subproblem residual whenever the subproblem
is solved to tolerance or stagnates. The solve ends, converged, once the
residual is in the root band around epsilon and the subproblem is solved or
no step descends: converged promises the band, not the l1 optimum.

The projection sorts every magnitude. Sorting only a growing prefix of the
largest ones gives the same bits, but on the N=1000 grid's projections the
active set is often hundreds of entries wide, and the prefix version
measured slower than the full sort there.

The correlated-noise corrections come in two algebraically equivalent forms:
solve_scaled_matrix replaces A by alpha*A inside the constraint, while
solve_post_scaled solves the unscaled problem and divides the solution by
beta (beta = alpha recovers the matched correction). Both are provided,
and they are implemented independently so their agreement is an actual check
rather than a restatement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import _as_float_vector, _require_finite, _system

_STEP_MIN = 1e-16
_STEP_MAX = 1e16
_LINE_GAMMA = 1e-4
_LINE_ITERS = 10
_MAX_MATVEC = 10_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BpdnProblem:
    """One instance: system matrix A, observed vector y, fidelity radius epsilon."""

    system_matrix: np.ndarray
    observed: np.ndarray
    epsilon: float

    def __post_init__(self):
        a, y = _system(self.system_matrix, self.observed, "observed")
        _require_finite(y, "observed")
        object.__setattr__(self, "system_matrix", a)
        object.__setattr__(self, "observed", y)
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class SolverReport:
    """Solver output; residual_norm and l1_norm are recomputable from solution."""

    solution: np.ndarray
    residual_norm: float
    l1_norm: float
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "solution", _as_float_vector(self.solution, "solution"))


def epsilon_rule(m: int, sigma: float) -> float:
    """Fidelity radius rule of thumb sqrt(M + 2*sqrt(2M)) * sigma."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return float(np.sqrt(m + 2.0 * np.sqrt(2.0 * m)) * sigma)


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (exact, by sort)."""
    if radius <= 0.0:
        return np.zeros_like(v)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    u = mag.copy()
    u.sort()
    u = u[::-1]
    cum = u.cumsum()
    active = u * _ranks(v.size) > cum - radius
    # the last entry that passes the test
    rho = v.size - 1 - int(active[::-1].argmax())
    # The j = 0 entry holds exactly whenever radius > 0, but it can round to
    # False when radius is below the spacing of u[0]; the projection then
    # degenerates to placing the whole radius on the largest coordinate.
    if not active[rho]:
        rho = 0
    shift = (cum[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - shift, 0.0)


@functools.lru_cache(maxsize=64)
def _ranks(size: int) -> np.ndarray:
    """Read-only 1.0, 2.0, ..., size: the divisors of the projection's shift.

    The values are exact integers, so a product with them has the same bits
    as the product with an integer arange.
    """
    ranks = np.arange(1.0, size + 1.0)
    ranks.setflags(write=False)
    return ranks


def _line_curvy(x, g_scaled, fmax, a, y, tau):
    """Backtracking search along the projected arc P(x - step*g_scaled).

    Returns (f, x, r, n_matvec, first, err) with err nonzero when no
    sufficient-descent step was found; first is the first trial point
    P(x - g_scaled), from which the feasible search takes its direction.
    """
    step = 1.0
    scale = 1.0
    n_safe = 0
    snorm_old = 0.0
    n_matvec = 0
    xnorm_ref = max(1.0, math.sqrt(x.dot(x)))
    first = None
    while True:
        xnew = project_l1(x - step * scale * g_scaled, tau)
        if first is None:
            first = xnew
        rnew = y - a @ xnew
        n_matvec += 1
        fnew = 0.5 * float(rnew @ rnew)
        s = xnew - x
        gts = scale * float(g_scaled @ s)
        if gts >= 0.0:
            return fnew, xnew, rnew, n_matvec, first, 1
        if fnew < fmax + _LINE_GAMMA * step * gts:
            return fnew, xnew, rnew, n_matvec, first, 0
        if n_matvec >= _LINE_ITERS:
            return fnew, xnew, rnew, n_matvec, first, 2
        step /= 2.0
        # the arc can bend so sharply that halving barely moves the iterate;
        # rescale the direction when successive trial displacements stall
        snorm = math.sqrt(s.dot(s)) / xnorm_ref
        if abs(snorm - snorm_old) <= 1e-6 * snorm:
            gnorm = math.sqrt(g_scaled.dot(g_scaled)) / xnorm_ref
            scale = snorm / gnorm / (2.0**n_safe)
            n_safe += 1
        snorm_old = snorm


def _line_feasible(f0, x, d, gtd, fmax, a, y):
    """Backtracking search along the feasible direction d = P(x - g) - x."""
    step = 1.0
    n_matvec = 0
    while True:
        xnew = x + step * d
        rnew = y - a @ xnew
        n_matvec += 1
        fnew = 0.5 * float(rnew @ rnew)
        if fnew < fmax + _LINE_GAMMA * step * gtd:
            return fnew, xnew, rnew, n_matvec, 0
        if n_matvec >= _LINE_ITERS:
            return fnew, xnew, rnew, n_matvec, 2
        if step <= 0.1:
            step /= 2.0
        else:
            # minimizer of the quadratic through f0, slope gtd, and fnew;
            # a non-positive denominator means no usable curvature signal
            denom = 2.0 * (fnew - f0 - step * gtd)
            quad = (-gtd * step**2) / denom if denom > 0.0 else step / 2.0
            if not math.isfinite(quad) or quad < 0.1 * step or quad > 0.9 * step:
                quad = step / 2.0
            step = quad


def solve_bpdn(problem: BpdnProblem, start: Optional[np.ndarray] = None) -> SolverReport:
    """Solve the l1 recovery problem to the fidelity radius of `problem`.

    On a converged report the residual satisfies
    ||y - A z||_2 <= epsilon*(1 + 1e-4) and sits within 1e-3 relative of
    epsilon from below, except in the rare case where no floating-point tau
    places it in that band, accepted only once the root update itself is
    within a few units in the last place of tau. The band is relative to
    epsilon alone, so it holds at any scale of y. converged promises this
    band, not the l1 optimum. The solve ends there when the subproblem's
    duality-gap proxy falls below 1e-6 of its objective, or at the first
    in-band step attempt whose line searches both fail. Outside the band,
    such an attempt hands the residual to the root update, or ends the solve
    unconverged when that update cannot move tau. When the solve ends
    unconverged, or the budget (_MAX_MATVEC = 10,000 matrix-vector
    products, 200 root updates) runs out first, the report carries the best
    iterate seen.

    `start`, a finite vector of length N, is a point to start from, such as
    the solution of the same (A, y) at another radius: the root finding
    starts at tau = ||start||_1 with the residual of `start`, and tau moves
    up or down from there. That costs one matrix-vector product, counted
    against the budget, and saves the climb from tau = 0 when `start` lies
    near the root. converged still promises only the band above. A start
    can also sit where no step descends, as where another solve stopped; a
    started solve that ends unconverged is therefore followed by the solve
    from z = 0, on a budget of its own, whose report is returned with the
    iterations of both.
    Without a start, or with an all-zero one, the solve starts at z = 0,
    tau = 0. A start of another length, or with an entry that is not
    finite, raises ValueError before any product.
    """
    if start is not None:
        start = _as_float_vector(start, "start")
        n = problem.system_matrix.shape[1]
        if start.size != n:
            raise ValueError(f"start length {start.size} does not match matrix columns {n}")
        _require_finite(start, "start")
        if start.any():
            warm = _solve_from(problem, start)
            if warm.converged:
                return warm
            cold = _solve_from(problem, None)
            return replace(cold, iterations=warm.iterations + cold.iterations)
    return _solve_from(problem, None)


def _solve_from(problem: BpdnProblem, start: Optional[np.ndarray]) -> SolverReport:
    """solve_bpdn's root finding, from z = 0, tau = 0 when `start` is None,
    else from the checked, nonzero `start` at tau = ||start||_1."""
    a = problem.system_matrix
    y = problem.observed
    m, n = a.shape
    bnorm = math.sqrt(y.dot(y))
    eps = float(problem.epsilon)

    if eps >= bnorm:
        # the origin is feasible and no vector has smaller l1 norm
        return SolverReport(np.zeros(n), bnorm, 0.0, 0, True)
    if eps == 0.0:
        eps = 1e-12 * bnorm

    eps_up = eps * (1.0 + 1e-4)
    eps_low = eps * (1.0 - 9e-4)

    gap_tol = 1e-6
    dec_tol = 1e-4
    max_newton = 200

    if start is None:
        x = np.zeros(n)
        tau = 0.0
        r = y.copy()
        matvecs = 1
    else:
        x = np.array(start)
        tau = float(np.abs(x).sum())
        r = y - a @ x
        matvecs = 2
    f = 0.5 * float(r @ r)
    g = -(a.T @ r)
    gstep = _init_step(x, g, tau)

    last_fv = np.full(10, -np.inf)
    last_fv[0] = f
    f_prev = f
    allow_tau_update = True
    newton_steps = 0
    iterations = 0

    best_viol = np.inf
    best_l1 = np.inf
    best_x = x.copy()

    converged = False
    while True:
        rnorm = math.sqrt(r.dot(r))
        gnorm = float(np.abs(g).max())

        l1 = float(np.abs(x).sum())
        viol = max(0.0, rnorm - eps_up)
        if (viol, l1) < (best_viol, best_l1):
            best_viol, best_l1, best_x = viol, l1, x.copy()

        gap = float(r @ (r - y)) + tau * gnorm
        # purely relative: when the objective is so small that rounding in the
        # gap evaluation exceeds this threshold, certification is impossible
        # and the subproblem instead terminates through descent exhaustion,
        # whose residual reading is exact to working precision
        sub_opt = abs(gap) <= gap_tol * f
        # a residual below the band means tau overshot the constraint boundary
        # and surplus l1 mass can hide in the null space; keep shrinking tau
        # until the prospective update falls within a few ulps of tau, where
        # the subproblem can no longer respond to it
        tau_res = 16.0 * _EPS * max(1.0, tau)
        delta_tau = rnorm * (rnorm - eps) / gnorm if gnorm > 0.0 else 0.0
        at_root = rnorm >= eps_low or abs(delta_tau) <= tau_res
        in_band = rnorm <= eps_up and at_root
        # an increment inside the tau resolution cannot change the iterate
        tau_new = max(0.0, tau + delta_tau)
        tau_moves = abs(tau_new - tau) > tau_res

        if sub_opt and in_band:
            converged = True
            break
        if matvecs >= _MAX_MATVEC or newton_steps >= max_newton:
            break

        f_change = abs(f - f_prev)
        stagnated = (f_change <= dec_tol * f and rnorm > 2.0 * eps) or (
            f_change <= 0.1 * f * abs(rnorm - eps) and rnorm <= 2.0 * eps
        )
        f_prev = f

        # at most every other pass, so a projected-gradient step always
        # refreshes the curve information between consecutive tau updates
        if (sub_opt or stagnated) and allow_tau_update:
            allow_tau_update = False
            if gnorm <= 0.0:
                break
            # an update that cannot move tau is skipped for a step attempt,
            # whose failure in the band accepts the root
            if tau_moves:
                if tau_new < tau:
                    x = project_l1(x, tau_new)
                    r = y - a @ x
                    f = 0.5 * float(r @ r)
                    g = -(a.T @ r)
                    matvecs += 2
                tau = tau_new
                last_fv[:] = -np.inf
                last_fv[0] = f
                f_prev = f
                gstep = _init_step(x, g, tau)
                newton_steps += 1
                continue
        else:
            allow_tau_update = True

        # one spectral projected-gradient step at the current tau
        x_old, g_old = x, g
        fmax = float(last_fv.max())
        fnew, xnew, rnew, spent, first, lserr = _line_curvy(
            x, gstep * g, fmax, a, y, tau
        )
        if lserr:
            # the curvy search's first trial point is P(x - gstep * g)
            d = first - x
            gtd = float(g @ d)
            fnew, xnew, rnew, nmv, lserr = _line_feasible(f, x, d, gtd, fmax, a, y)
            spent += nmv
        matvecs += spent
        if lserr:
            # no step descends from this iterate. In the root band that ends
            # the solve. Outside it, the next pass takes this pass's root
            # update (f has not changed, so it stagnates, and a pass that
            # reaches a step attempt with tau movable allows the update);
            # when that update cannot move tau, nothing is left to try.
            if in_band:
                converged = True
                break
            if not tau_moves:
                break
            continue

        x, f, r = xnew, fnew, rnew
        g = -(a.T @ r)
        matvecs += 1
        iterations += 1
        last_fv[iterations % last_fv.size] = f

        s = x - x_old
        dg = g - g_old
        sts = float(s @ s)
        sty = float(s @ dg)
        if sty <= 0.0:
            gstep = _STEP_MAX
        else:
            gstep = min(_STEP_MAX, max(_STEP_MIN, sts / sty))

    return _report(problem, x if converged else best_x, iterations, converged)


def _report(problem: BpdnProblem, solution, iterations: int, converged: bool) -> SolverReport:
    """Report of `solution` with its residual and l1 norms recomputed on `problem`."""
    residual = problem.observed - problem.system_matrix @ solution
    return SolverReport(
        solution=solution,
        residual_norm=math.sqrt(residual.dot(residual)),
        l1_norm=float(np.abs(solution).sum()),
        iterations=iterations,
        converged=converged,
    )


def _init_step(x, g, tau):
    """Step from the projected-gradient displacement ||P(x - g) - x||_inf."""
    dx_norm = float(np.abs(project_l1(x - g, tau) - x).max())
    if dx_norm < 1.0 / _STEP_MAX:
        return _STEP_MAX
    return min(_STEP_MAX, max(_STEP_MIN, 1.0 / dx_norm))


def solve_scaled_matrix(problem: BpdnProblem, alpha: float) -> SolverReport:
    """Correlation-corrected recovery with the constraint matrix replaced by alpha*A.

    The scaled problem min ||z||_1 s.t. ||y - alpha*A z||_2 <= epsilon is built
    and solved as its own instance.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    scaled = BpdnProblem(
        system_matrix=alpha * problem.system_matrix,
        observed=problem.observed,
        epsilon=problem.epsilon,
    )
    return solve_bpdn(scaled)


def solve_post_scaled(
    problem: BpdnProblem, beta: float, start: Optional[np.ndarray] = None
) -> SolverReport:
    """Solve the unscaled problem, then divide the solution by beta.

    beta equal to the noise-model gain alpha is the matched correction; other
    values generalize the scaling for tuning studies. `start` is handed to
    the unscaled solve (see solve_bpdn), so it is a point of that problem,
    not yet divided by beta.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    inner = solve_bpdn(problem, start)
    return _report(problem, inner.solution / beta, inner.iterations, inner.converged)
