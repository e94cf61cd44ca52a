"""l1 recovery solver: fidelity rule, projection, recovery, and scaled variants."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcs import bpdn
from corrcs.bpdn import (
    BpdnProblem,
    epsilon_rule,
    project_l1,
    solve_bpdn,
    solve_post_scaled,
    solve_scaled_matrix,
)


def sparse_instance(rng, n, m, k, noise_scale=0.0):
    """Gaussian matrix, k-sparse +/-1-ish signal, optional additive noise."""
    a = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.normal(0.0, 1.0, size=k) + np.sign(rng.normal(size=k))
    y = a @ x
    if noise_scale > 0.0:
        y = y + rng.normal(0.0, noise_scale, size=m)
    return a, x, y


def minimal_l1_support_fit(a, y, k, residual_tol):
    """Least-squares fit over every support of size <= k; return the min-l1 fit.

    Returns (solution, l1, unique) where unique is True when no other feasible
    support fit comes within 1e-6 relative of the smallest l1 norm.
    """
    from itertools import combinations

    n = a.shape[1]
    best = None
    runner_up = np.inf
    for size in range(1, k + 1):
        for support in combinations(range(n), size):
            cols = a[:, support]
            coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if np.linalg.norm(y - cols @ coef) > residual_tol:
                continue
            l1 = float(np.sum(np.abs(coef)))
            if best is None or l1 < best[1]:
                if best is not None:
                    runner_up = best[1]
                z = np.zeros(n)
                z[list(support)] = coef
                best = (z, l1)
            elif l1 < runner_up and (best is None or set(support) != set(np.nonzero(best[0])[0])):
                runner_up = l1
    assert best is not None
    unique = runner_up > best[1] * (1.0 + 1e-6)
    return best[0], best[1], unique


def test_epsilon_rule_values():
    assert epsilon_rule(200, 1.0) == pytest.approx(np.sqrt(240.0), rel=1e-15)
    assert epsilon_rule(200, 0.0) == 0.0
    assert epsilon_rule(2, 1.0) == pytest.approx(np.sqrt(6.0), rel=1e-15)
    assert epsilon_rule(50, 2.0) == pytest.approx(2.0 * epsilon_rule(50, 1.0), rel=1e-15)


def test_epsilon_rule_validation():
    with pytest.raises(ValueError):
        epsilon_rule(0, 1.0)
    with pytest.raises(ValueError):
        epsilon_rule(10, -0.5)


def test_project_l1_optimality_certificate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(0.0, 1.0, size=30) * rng.choice([1.0, 10.0], size=30)
        radius = float(rng.uniform(0.1, 0.9) * np.sum(np.abs(v)))
        p = project_l1(v, radius)
        assert np.sum(np.abs(p)) == pytest.approx(radius, abs=1e-9)
        active = p != 0.0
        assert np.all(np.sign(p[active]) == np.sign(v[active]))
        shifts = np.abs(v[active]) - np.abs(p[active])
        theta = float(np.mean(shifts))
        assert theta >= -1e-12
        assert np.max(np.abs(shifts - theta)) < 1e-9
        assert np.all(np.abs(v[~active]) <= theta + 1e-9)


def test_project_l1_interior_point_unchanged():
    v = np.array([0.5, -0.25, 0.1])
    p = project_l1(v, 2.0)
    assert np.array_equal(p, v)
    assert p is not v


def test_project_l1_nonpositive_radius():
    v = np.array([3.0, -1.0])
    assert np.array_equal(project_l1(v, 0.0), np.zeros(2))
    assert np.array_equal(project_l1(v, -1.0), np.zeros(2))


def test_project_l1_radius_below_float_spacing():
    # radius smaller than the representable spacing at the largest magnitude:
    # exact arithmetic would put the whole radius on that coordinate
    v = np.array([1e13, 3.0, -2.0])
    p = project_l1(v, 1e-4)
    assert np.all(np.isfinite(p))
    assert np.sum(np.abs(p)) <= 1e-4 + np.spacing(1e13)
    assert p[1] == 0.0 and p[2] == 0.0


def project_l1_by_full_sort(v, radius):
    """The sort-based projection as first written; project_l1 must match its bits."""
    if radius <= 0.0:
        return np.zeros_like(v)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    u = np.sort(mag)[::-1]
    cum = np.cumsum(u)
    active = np.nonzero(u * np.arange(1, v.size + 1) > cum - radius)[0]
    rho = active[-1] if active.size else 0
    shift = (cum[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - shift, 0.0)


@st.composite
def projection_inputs(draw):
    """(v, radius) with ties, zeros, subnormal and huge magnitudes, and radii
    from below the spacing of max|v| up to past the l1 norm."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(480, 1100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "sparse", "spread", "tiny"]))
    if kind == "ties":
        v = rng.integers(-3, 4, size=n).astype(float)
    elif kind == "sparse":
        v = rng.normal(size=n) * (rng.random(n) < 0.05)
    elif kind == "spread":
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-300.0, 300.0, size=n)
    elif kind == "tiny":
        v = rng.normal(size=n) * 5e-324 * rng.integers(0, 1000, size=n)
    else:
        v = rng.normal(size=n)
    v[rng.random(n) < 0.1] = -0.0
    mag = np.abs(v)
    top = float(mag.max())
    radius = draw(
        st.one_of(
            st.floats(0.0, 1.0).map(lambda t: t * float(mag.sum())),
            st.floats(0.0, 1.0).map(lambda t: t * float(np.spacing(top))),
            st.floats(-1.0, 1.0).map(lambda t: t * top),
            st.sampled_from([5e-324, 1e-300, 1e-12, 1.0]),
        )
    )
    return v, radius


@settings(max_examples=300, deadline=None)
@given(projection_inputs())
def test_project_l1_matches_full_sort_bit_for_bit(inputs):
    v, radius = inputs
    expected = project_l1_by_full_sort(v, radius)
    got = project_l1(v, radius)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
    st.floats(1e-6, 1.0 - 1e-6),
    st.booleans(),
)
def test_project_l1_kkt_conditions(n, seed, fraction, ties):
    # p is the projection of v onto the ball iff it lies on the sphere and is
    # the soft threshold of v at one shift theta >= 0 that zeroes exactly the
    # entries with |v_i| <= theta.
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, size=n).astype(float) if ties else rng.normal(size=n)
    l1 = float(np.abs(v).sum())
    if l1 == 0.0:
        return
    radius = fraction * l1
    p = project_l1(v, radius)
    tol = 8.0 * n * np.finfo(float).eps * l1
    assert abs(float(np.abs(p).sum()) - radius) <= tol
    active = p != 0.0
    assert active.any()
    assert np.all(np.sign(p[active]) == np.sign(v[active]))
    theta = float(np.mean(np.abs(v[active]) - np.abs(p[active])))
    assert theta >= -tol
    assert np.allclose(p, np.sign(v) * np.maximum(np.abs(v) - theta, 0.0), rtol=0.0, atol=tol)
    assert np.all(np.abs(v[~active]) <= theta + tol)


def test_zero_solution_when_radius_covers_observation():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 12))
    y = rng.normal(size=5)
    report = solve_bpdn(BpdnProblem(a, y, float(np.linalg.norm(y)) + 0.1))
    assert np.array_equal(report.solution, np.zeros(12))
    assert report.converged
    assert report.l1_norm == 0.0
    assert report.residual_norm == pytest.approx(np.linalg.norm(y), rel=1e-12)


def test_exact_recovery_one_sparse():
    rng = np.random.default_rng(0)
    a, x, y = sparse_instance(rng, n=16, m=8, k=1)
    oracle, _, unique = minimal_l1_support_fit(a, y, k=1, residual_tol=1e-8)
    assert unique and np.allclose(oracle, x, atol=1e-8)
    report = solve_bpdn(BpdnProblem(a, y, 1e-8))
    assert report.converged
    nmse = np.sum((report.solution - x) ** 2) / np.sum(x**2)
    assert nmse < 1e-6


def test_zero_epsilon_recovers_like_tiny_epsilon():
    rng = np.random.default_rng(5)
    a, x, y = sparse_instance(rng, n=16, m=8, k=1)
    report = solve_bpdn(BpdnProblem(a, y, 0.0))
    assert report.converged
    nmse = np.sum((report.solution - x) ** 2) / np.sum(x**2)
    assert nmse < 1e-6


def test_converged_residual_sits_on_fidelity_boundary():
    rng = np.random.default_rng(11)
    for trial in range(5):
        a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
        eps = 0.5 * float(np.linalg.norm(y - a @ x))
        report = solve_bpdn(BpdnProblem(a, y, eps))
        assert report.converged
        assert report.residual_norm <= eps * (1.0 + 1e-4)
        assert abs(report.residual_norm - eps) <= 1e-3 * eps


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 24),
    st.integers(4, 48),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 0.95),
)
def test_converged_report_is_inside_the_residual_band(seed, m, n, log_scale, fraction):
    # Small tall and wide instances at matrix scales across six decades: a
    # converged report promises the residual band, whatever the scale.
    rng = np.random.default_rng(seed)
    a, x, y = sparse_instance(rng, n=n, m=m, k=max(1, n // 8), noise_scale=0.05)
    a = 10.0**log_scale * a
    eps = fraction * float(np.linalg.norm(y))
    report = solve_bpdn(BpdnProblem(a, y, eps))
    if report.converged:
        assert report.residual_norm <= eps * (1.0 + 1e-4)


def test_report_norms_recomputable():
    rng = np.random.default_rng(13)
    a, x, y = sparse_instance(rng, n=60, m=24, k=4, noise_scale=0.02)
    report = solve_bpdn(BpdnProblem(a, y, 0.1))
    assert report.residual_norm == pytest.approx(
        np.linalg.norm(y - a @ report.solution), abs=1e-10
    )
    assert report.l1_norm == pytest.approx(np.sum(np.abs(report.solution)), abs=1e-10)


def test_failed_line_search_is_not_rerun_on_identical_inputs(monkeypatch):
    # A failed step attempt ends the solve or hands off to the root update,
    # which moves tau before the next attempt, so no failed search is ever
    # repeated on the same inputs.
    calls = []
    original = bpdn._line_feasible

    def recording(f0, x, d, gtd, fmax, a, y):
        out = original(f0, x, d, gtd, fmax, a, y)
        calls.append(((x.tobytes(), d.tobytes(), fmax), out[4] != 0))
        return out

    monkeypatch.setattr(bpdn, "_line_feasible", recording)
    rng = np.random.default_rng(11)
    for trial in range(5):
        a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
        eps = 0.5 * float(np.linalg.norm(y - a @ x))
        assert solve_bpdn(BpdnProblem(a, y, eps)).converged
    failed = [inputs for inputs, err in calls if err]
    assert failed, "the instances must exercise the failed-search path"
    assert all(left != right for left, right in zip(failed, failed[1:]))


def test_init_step_projection_is_not_recomputed_on_identical_inputs(monkeypatch):
    # The step is initialised at the start and after each root update, which
    # moves tau, so the projection of x - g never sees the same input twice.
    calls = []
    original = bpdn.project_l1

    def recording(v, radius):
        if sys._getframe(1).f_code.co_name == "_init_step":
            calls[-1].append((v.tobytes(), radius))
        return original(v, radius)

    monkeypatch.setattr(bpdn, "project_l1", recording)
    rng = np.random.default_rng(11)
    for trial in range(5):
        calls.append([])
        a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
        eps = 0.5 * float(np.linalg.norm(y - a @ x))
        assert solve_bpdn(BpdnProblem(a, y, eps)).converged
    assert sum(map(len, calls)) > len(calls)
    for solve in calls:
        assert len(set(solve)) == len(solve)


def test_step_attempt_never_projects_the_same_input_twice(monkeypatch):
    # When the curvy search fails, the feasible search takes its direction
    # from P(x - gstep * g): the curvy search's own first trial point.
    attempts = []
    feasible_calls = []
    original_project = bpdn.project_l1
    original_curvy = bpdn._line_curvy
    original_feasible = bpdn._line_feasible

    def project(v, radius):
        if attempts and sys._getframe(1).f_code.co_name != "_init_step":
            attempts[-1].append((v.tobytes(), radius))
        return original_project(v, radius)

    def curvy(*args):
        attempts.append([])
        return original_curvy(*args)

    def feasible(*args):
        feasible_calls.append(None)
        return original_feasible(*args)

    monkeypatch.setattr(bpdn, "project_l1", project)
    monkeypatch.setattr(bpdn, "_line_curvy", curvy)
    monkeypatch.setattr(bpdn, "_line_feasible", feasible)
    rng = np.random.default_rng(11)
    for trial in range(5):
        a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
        eps = 0.5 * float(np.linalg.norm(y - a @ x))
        assert solve_bpdn(BpdnProblem(a, y, eps)).converged
    assert feasible_calls, "the instances must exercise the feasible search"
    for attempt in attempts:
        assert len(set(attempt)) == len(attempt)


def test_failed_step_in_band_ends_the_solve(monkeypatch):
    # From an iterate whose residual lies in the root band, a step attempt
    # whose two line searches fail ends the solve: no search runs after it.
    searches = []
    original_curvy = bpdn._line_curvy
    original_feasible = bpdn._line_feasible

    def curvy(x, g_scaled, fmax, a, y, tau):
        out = original_curvy(x, g_scaled, fmax, a, y, tau)
        searches[-1].append(("curvy", x, out[5] != 0))
        return out

    def feasible(f0, x, d, gtd, fmax, a, y):
        out = original_feasible(f0, x, d, gtd, fmax, a, y)
        searches[-1].append(("feasible", x, out[4] != 0))
        return out

    monkeypatch.setattr(bpdn, "_line_curvy", curvy)
    monkeypatch.setattr(bpdn, "_line_feasible", feasible)
    rng = np.random.default_rng(11)
    ended_in_band = 0
    for trial in range(5):
        searches.append([])
        a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
        eps = 0.5 * float(np.linalg.norm(y - a @ x))
        assert solve_bpdn(BpdnProblem(a, y, eps)).converged

        def in_band(z):
            r = y - a @ z
            return eps * (1.0 - 9e-4) <= np.sqrt(r.dot(r)) <= eps * (1.0 + 1e-4)

        # the feasible search runs only after the curvy one failed, so its
        # failure is the failure of the whole attempt
        ends = [
            i for i, (kind, z, failed) in enumerate(searches[-1])
            if kind == "feasible" and failed and in_band(z)
        ]
        if ends:
            ended_in_band += 1
            assert ends[0] == len(searches[-1]) - 1, (trial, ends, len(searches[-1]))
    assert ended_in_band, "the instances must exercise a failed attempt in the band"


def kkt_optimum(a, y, eps, support):
    """Certified minimiser of ||z||_1 s.t. ||y - A z||_2 <= eps < ||y||_2.

    An active-set loop from the index set `support` (Osborne, Presnell &
    Turlach 2000). For a support S with signs s the KKT conditions give
    z_S = G^-1 (A_S^T y - lam s) with G = A_S^T A_S, and the residual
    r = r0 + lam w, with r0 orthogonal to range(A_S) and w = A_S G^-1 s, so
    ||r|| = eps fixes lam in closed form. Each round drops the indices whose
    coefficient disagrees with its sign and, when there are none, adds the
    largest dual violator |A_j^T r| > lam. Returns (z, lam) once z_S matches
    s and |A^T r| <= lam holds off S, which certifies z as the optimum.
    """
    corr = a.T @ y
    signs = {int(j): float(np.sign(corr[j])) for j in support}
    for _ in range(50):
        cols = sorted(signs)
        s = np.array([signs[j] for j in cols])
        a_s = a[:, cols]
        gram = a_s.T @ a_s
        r0 = y - a_s @ np.linalg.solve(gram, a_s.T @ y)
        w = a_s @ np.linalg.solve(gram, s)
        slack = eps**2 - r0 @ r0
        assert slack > 0.0, "eps is not above the support's least-squares floor"
        lam = np.sqrt(slack / (w @ w))
        z_s = np.linalg.solve(gram, a_s.T @ y - lam * s)
        wrong = [j for j, zj, sj in zip(cols, z_s, s) if zj * sj <= 0.0]
        if wrong:
            for j in wrong:
                del signs[j]
            continue
        z = np.zeros(a.shape[1])
        z[cols] = z_s
        dual = a.T @ (y - a @ z)
        dual[cols] = 0.0
        j = int(np.argmax(np.abs(dual)))
        if abs(dual[j]) <= lam * (1.0 + 1e-9):
            return z, lam
        signs[j] = float(np.sign(dual[j]))
    raise AssertionError("no certificate within 50 rounds")


def test_l1_norm_matches_the_kkt_certified_optimum():
    # Replaces a test that compared l1_norm with cvxpy's CLARABEL optimum of
    # min ||z||_1 s.t. ||y - A z||_2 <= eps at rel 1e-3 and always skipped,
    # as cvxpy is not installed. The optimum is now certified in the test.
    rng = np.random.default_rng(17)
    a, x, y = sparse_instance(rng, n=50, m=20, k=3, noise_scale=0.05)
    eps = float(np.linalg.norm(y - a @ x))
    report = solve_bpdn(BpdnProblem(a, y, eps))
    assert report.converged

    z, lam = kkt_optimum(a, y, eps, np.flatnonzero(report.solution))
    r = y - a @ z
    assert np.linalg.norm(r) == pytest.approx(eps, rel=1e-12)
    assert np.abs(a.T @ r).max() <= lam * (1.0 + 1e-9)
    assert report.l1_norm == pytest.approx(np.abs(z).sum(), rel=1e-3)


def test_warm_start_from_a_larger_radius_matches_the_kkt_optimum():
    # The seed-17 instance of the cold test above, solved again from the
    # solution at a 1.5 times larger radius, as the harness starts bpdn-scale
    # from bpdn: the same optimum, and a residual in the root band.
    rng = np.random.default_rng(17)
    a, x, y = sparse_instance(rng, n=50, m=20, k=3, noise_scale=0.05)
    eps = float(np.linalg.norm(y - a @ x))
    start = solve_bpdn(BpdnProblem(a, y, 1.5 * eps)).solution
    assert start.any()
    report = solve_bpdn(BpdnProblem(a, y, eps), start)
    assert report.converged
    assert eps * (1.0 - 1e-3) <= report.residual_norm <= eps * (1.0 + 1e-4)
    # fewer iterations than the cold solve, so no cold fallback ran
    assert report.iterations < solve_bpdn(BpdnProblem(a, y, eps)).iterations

    z, _ = kkt_optimum(a, y, eps, np.flatnonzero(report.solution))
    assert report.l1_norm == pytest.approx(np.abs(z).sum(), rel=1e-3)


def test_start_where_no_step_descends_falls_back_to_the_cold_solve():
    # Seed 635 of tools/same_solves.py's generator, a wide 29 x 53 matrix at
    # scale 43, started from the solution at a 1.25 times larger radius: no
    # step descends from there, so the started solve ends unconverged after
    # 0 iterations. solve_bpdn then returns the cold solve, with the
    # iterations of both.
    seed = 635
    rng = np.random.default_rng(seed)
    tall = seed % 2 == 0
    m, n = rng.integers(4, 40), rng.integers(4, 60)
    if (m > n) != tall:
        m, n = n, m
    scale = 10.0 ** rng.uniform(-8, 16)
    a = rng.normal(size=(m, n)) * scale
    y = rng.normal(size=m)
    eps = np.linalg.norm(y) * 10.0 ** rng.uniform(-9, -0.005)
    assert (m, n) == (29, 53) and scale == pytest.approx(43.1, rel=1e-3)

    problem = BpdnProblem(a, y, eps)
    start = solve_bpdn(BpdnProblem(a, y, 1.25 * eps)).solution
    started = bpdn._solve_from(problem, start)
    assert (started.iterations, started.converged) == (0, False)
    cold = solve_bpdn(problem)
    assert cold.converged
    report = solve_bpdn(problem, start)
    assert report.solution.tobytes() == cold.solution.tobytes()
    assert report.converged
    assert report.iterations == started.iterations + cold.iterations


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 24),
    st.integers(4, 48),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 0.95),
    st.floats(0.01, 0.95),
)
def test_warm_started_converged_report_is_inside_the_residual_band(
    seed, m, n, log_scale, fraction, start_fraction
):
    # The cold property above, started from the solution at another radius,
    # larger or smaller, so tau moves up or down from the start's l1 norm.
    rng = np.random.default_rng(seed)
    a, x, y = sparse_instance(rng, n=n, m=m, k=max(1, n // 8), noise_scale=0.05)
    a = 10.0**log_scale * a
    ynorm = float(np.linalg.norm(y))
    start = solve_bpdn(BpdnProblem(a, y, start_fraction * ynorm)).solution
    eps = fraction * ynorm
    problem = BpdnProblem(a, y, eps)
    report = solve_bpdn(problem, start)
    if report.converged:
        assert report.residual_norm <= eps * (1.0 + 1e-4)
    else:
        # the cold fallback: a start never loses a converged solve
        assert not solve_bpdn(problem).converged


def test_zero_start_takes_the_cold_path():
    rng = np.random.default_rng(11)
    a, x, y = sparse_instance(rng, n=120, m=40, k=6, noise_scale=0.05)
    problem = BpdnProblem(a, y, 0.5 * float(np.linalg.norm(y - a @ x)))
    cold = solve_bpdn(problem)
    for start in (None, np.zeros(120), -np.zeros(120)):
        report = solve_bpdn(problem, start)
        assert report.solution.tobytes() == cold.solution.tobytes()
        assert (report.iterations, report.converged) == (cold.iterations, cold.converged)


@pytest.mark.parametrize(
    "start, match",
    [
        (np.array([0.0, np.nan, 0.0, 0.0]), "finite"),
        (np.array([np.inf, 0.0, 0.0, 0.0]), "finite"),
        (np.zeros(3), "length"),
        (np.zeros(5), "length"),
    ],
    ids=["nan", "inf", "short", "long"],
)
def test_bad_start_raises_before_any_product(start, match):
    # Also on a radius that covers y, where the solve returns z = 0 without
    # a single product: the start is checked first.
    a = np.arange(12.0).reshape(3, 4)
    y = np.ones(3)
    for eps in (0.1, 10.0):
        problem = BpdnProblem(a, y, eps)
        with pytest.raises(ValueError, match=match):
            solve_bpdn(problem, start)
        with pytest.raises(ValueError, match=match):
            solve_post_scaled(problem, 0.5, start)


def test_scaled_matrix_with_unit_alpha_matches_plain():
    rng = np.random.default_rng(19)
    a, x, y = sparse_instance(rng, n=40, m=16, k=2, noise_scale=0.03)
    problem = BpdnProblem(a, y, 0.2)
    plain = solve_bpdn(problem)
    scaled = solve_scaled_matrix(problem, 1.0)
    assert np.array_equal(plain.solution, scaled.solution)
    assert plain.residual_norm == scaled.residual_norm


def test_scaled_matrix_alpha_validation():
    problem = BpdnProblem(np.eye(3), np.ones(3), 0.1)
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            solve_scaled_matrix(problem, alpha)


def test_constraint_homogeneity():
    # scaling A, y, and epsilon by the same factor leaves the feasible set,
    # and hence the solution, unchanged up to solver tolerance
    rng = np.random.default_rng(23)
    a, x, y = sparse_instance(rng, n=60, m=24, k=3, noise_scale=0.04)
    eps = float(np.linalg.norm(y - a @ x))
    base = solve_bpdn(BpdnProblem(a, y, eps))
    scaled = solve_bpdn(BpdnProblem(0.35 * a, 0.35 * y, 0.35 * eps))
    assert base.converged and scaled.converged
    rel = np.linalg.norm(base.solution - scaled.solution) / np.linalg.norm(base.solution)
    assert rel < 1e-3


@pytest.mark.parametrize("y_norm", [1e-10, 1e-9, 1e-6])
def test_tiny_observation_converges_in_band_at_the_scaled_l1_norm(y_norm):
    # The root band is relative to epsilon alone: an absolute slack of 1e-9
    # in it would let z = 0, with a residual of 2 * epsilon, pass as
    # converged at ||y|| <= 1e-9.
    rng = np.random.default_rng(0)
    a, x, y = sparse_instance(rng, n=50, m=20, k=3, noise_scale=0.05)
    y = y / np.linalg.norm(y)
    unit = solve_bpdn(BpdnProblem(a, y, 0.5))
    eps = 0.5 * y_norm
    report = solve_bpdn(BpdnProblem(a, y_norm * y, eps))
    assert report.converged
    assert eps * (1.0 - 1e-3) <= report.residual_norm <= eps * (1.0 + 1e-4)
    assert report.l1_norm == pytest.approx(y_norm * unit.l1_norm, rel=1e-4)


def test_pinned_root_curve_converges_in_band_at_the_certified_optimum():
    # Seed 2388 of tools/same_solves.py's generator: a tall 41 x 35 matrix
    # at scale 1.16e4, whose consecutive root updates read the same in-band
    # residual. The solve still ends in the band, at the optimum.
    seed = 2388
    rng = np.random.default_rng(seed)
    tall = seed % 2 == 0
    m, n = rng.integers(4, 40), rng.integers(4, 60)
    if (m > n) != tall:
        m, n = n, m
    scale = 10.0 ** rng.uniform(-8, 16)
    a = rng.normal(size=(m, n)) * scale
    y = rng.normal(size=m)
    eps = np.linalg.norm(y) * 10.0 ** rng.uniform(-9, -0.005)
    assert (m, n) == (41, 35) and scale == pytest.approx(1.16e4, rel=1e-3)

    report = solve_bpdn(BpdnProblem(a, y, eps))
    assert report.converged
    assert eps * (1.0 - 1e-3) <= report.residual_norm <= eps * (1.0 + 1e-4)
    z, _ = kkt_optimum(a, y, eps, np.flatnonzero(report.solution))
    assert report.l1_norm == pytest.approx(np.abs(z).sum(), rel=1e-9)


def test_post_scaled_unit_beta_identical():
    rng = np.random.default_rng(29)
    a, x, y = sparse_instance(rng, n=40, m=16, k=2, noise_scale=0.05)
    problem = BpdnProblem(a, y, 0.25)
    plain = solve_bpdn(problem)
    post = solve_post_scaled(problem, 1.0)
    assert np.array_equal(plain.solution, post.solution)
    assert plain.iterations == post.iterations
    assert plain.converged == post.converged


def test_post_scaled_l1_norm_scales_inversely():
    rng = np.random.default_rng(31)
    a, x, y = sparse_instance(rng, n=40, m=16, k=2, noise_scale=0.05)
    problem = BpdnProblem(a, y, 0.25)
    inner = solve_bpdn(problem)
    beta = 0.6366
    post = solve_post_scaled(problem, beta)
    assert post.l1_norm == pytest.approx(inner.l1_norm / beta, rel=1e-12)
    assert np.allclose(post.solution, inner.solution / beta)


def test_post_scaled_beta_validation():
    problem = BpdnProblem(np.eye(3), np.ones(3), 0.1)
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_post_scaled(problem, beta)


def test_infeasible_radius_reports_nonconverged():
    # overdetermined noisy system: no z attains a residual below the
    # least-squares floor, so a radius under that floor cannot be met
    rng = np.random.default_rng(37)
    a = rng.normal(size=(30, 10))
    y = rng.normal(size=30)
    report = solve_bpdn(BpdnProblem(a, y, 1e-9))
    assert not report.converged
    assert report.residual_norm > 1e-9
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    floor = float(np.linalg.norm(y - a @ coef))
    assert report.residual_norm == pytest.approx(floor, rel=1e-2)


def test_stall_outside_the_band_goes_to_the_root_update_then_stops(monkeypatch):
    # At a 1e15 matrix scale no step descends and every root update falls
    # inside the tau resolution: the first pass takes the root update, which
    # cannot move tau, so a step attempt follows; it fails at the zero
    # iterate, outside the band, and as the root update still cannot move
    # tau the solve stops unconverged after that one attempt.
    calls = []
    original = bpdn._line_curvy

    def recording(x, g_scaled, fmax, a, y, tau):
        calls.append((fmax, tau))
        return original(x, g_scaled, fmax, a, y, tau)

    monkeypatch.setattr(bpdn, "_line_curvy", recording)
    rng = np.random.default_rng(1)
    a = 1e15 * rng.normal(size=(10, 30))
    y = rng.normal(size=10)
    y *= 1.5 / np.linalg.norm(y)
    report = solve_bpdn(BpdnProblem(a, y, 1.0))
    assert calls == [(1.1249999999999998, 0.0)]
    assert (report.iterations, report.converged) == (0, False)
    assert report.residual_norm == 1.4999999999999998


def test_problem_validation():
    with pytest.raises(ValueError):
        BpdnProblem(np.eye(3), np.ones(4), 0.1)
    with pytest.raises(ValueError):
        BpdnProblem(np.eye(3), np.ones(3), -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_input(bad):
    a = np.eye(3)
    a_bad = a.copy()
    a_bad[1, 2] = bad
    y_bad = np.ones(3)
    y_bad[0] = bad
    with pytest.raises(ValueError, match="system_matrix"):
        BpdnProblem(a_bad, np.ones(3), 0.1)
    with pytest.raises(ValueError, match="observed"):
        BpdnProblem(a, y_bad, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        BpdnProblem(a, np.ones(3), bad)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_problem_rejects_empty_shapes(shape):
    with pytest.raises(ValueError, match="non-empty"):
        BpdnProblem(np.zeros(shape), np.zeros(shape[0]), 0.1)
