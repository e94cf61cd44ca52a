"""End-to-end acceptance checks at desk scale.

Each test covers one numbered acceptance target and prints a single summary
line with the measured quantities, so a verbose run doubles as a ledger of
what was reproduced. The heavy Monte-Carlo fixtures (full benchmark grid,
200 trials per point) are module-scoped and deterministic: rerunning the
suite regenerates bit-identical statistics.
"""

import itertools
import time

import numpy as np
import pytest

from corrcs.bpdn import (
    BpdnProblem,
    epsilon_rule,
    solve_bpdn,
    solve_post_scaled,
    solve_scaled_matrix,
)
from corrcs.experiments import (
    CI99_FACTOR,
    ExperimentConfig,
    draw_instance,
    improvement_db,
    measure,
    nmse,
    run_experiment,
    run_experiments,
    tuning_objective,
)
from corrcs.quantizers import (
    design_lloyd_max,
    design_uniform_mmse,
    fit_gain_model,
    gain_model_analytic,
)
from corrcs.siggen import InstanceConfig, benchmark_grid

pytestmark = pytest.mark.acceptance

MASTER_SEED = 7
TRIALS = 200
GRID = tuple((1000, m, k) for m, k in benchmark_grid())


@pytest.fixture(scope="module")
def grid_runs():
    """Full-grid runs with Gaussian correlated noise at 1, 3, and 5 bits, then
    with true 1-bit Lloyd-Max quantized measurements.

    One pass draws each instance once and measures it in all four ways.
    """
    configs = [
        ExperimentConfig(
            grid=GRID,
            trials=TRIALS,
            noise_mode=noise_mode,
            methods=("bpdn", "bpdn-scale"),
            master_seed=MASTER_SEED,
            bits=bits,
        )
        for noise_mode, bits in (
            ("artificial-correlated", 1),
            ("artificial-correlated", 3),
            ("artificial-correlated", 5),
            ("lloyd-max-quantized", 1),
        )
    ]
    return run_experiments(configs)


@pytest.fixture(scope="module")
def artificial_runs(grid_runs):
    """Full-grid runs with Gaussian correlated noise at 1, 3, and 5 bits."""
    return {result.config.bits: result for result in grid_runs[:3]}


@pytest.fixture(scope="module")
def quantized_run(grid_runs):
    """Full-grid run with true 1-bit Lloyd-Max quantized measurements."""
    return grid_runs[3]


def _grid_improvements(result):
    """(m, k, dB improvement of bpdn-scale over bpdn) per grid point."""
    rows = []
    for m, k in benchmark_grid():
        plain = result.point(1000, m, k, "bpdn")
        scaled = result.point(1000, m, k, "bpdn-scale")
        rows.append((m, k, improvement_db(plain.mean_nmse, scaled.mean_nmse)))
    return rows


def test_criterion_01_gain_table_monte_carlo_fits():
    cases = [
        ("lloyd-max", 1, 0.6366, 0.002),
        ("uniform", 1, 0.6366, 0.002),
        ("lloyd-max", 3, 0.9655, 0.002),
        ("uniform", 3, 0.9626, 0.002),
        ("lloyd-max", 5, 0.99749, 0.0008),
        ("uniform", 5, 0.99651, 0.0008),
    ]
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    fitted = []
    for design, bits, expected, tol in cases:
        build = design_lloyd_max if design == "lloyd-max" else design_uniform_mmse
        fit = fit_gain_model(build(bits, 1.0), 1.0, 1_000_000, rng)
        fitted.append(f"{design}/{bits}b {fit.alpha:.5f}")
        assert abs(fit.alpha - expected) <= tol, (design, bits, fit.alpha, expected)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"gain-table fits took {elapsed:.1f}s"
    print(f"criterion 01: {', '.join(fitted)} in {elapsed:.1f}s: PASS")


def test_criterion_02_one_bit_lloyd_max_closed_form():
    q = design_lloyd_max(1, 1.0)
    level = np.sqrt(2.0 / np.pi)
    assert np.allclose(q.levels, [-level, level], rtol=0.0, atol=1e-8)
    analytic = gain_model_analytic(q, 1.0)
    assert abs(analytic.alpha - 2.0 / np.pi) <= 1e-12
    fit = fit_gain_model(q, 1.0, 1_000_000, np.random.default_rng(MASTER_SEED))
    assert abs(fit.alpha - 2.0 / np.pi) <= 0.002
    print(
        f"criterion 02: 1-bit levels +-{level:.6f}, alpha 2/pi "
        f"(analytic {analytic.alpha:.12f}, sampled {fit.alpha:.5f}): PASS"
    )


def test_criterion_03_artificial_improvement_profile(artificial_runs):
    bands = {1: (5.5, 1.27, 0.75), 3: (2.3, 0.26, 0.20), 5: (0.6, 0.06, 0.06)}
    summary = []
    for bits, (first_floor, last_mid, last_tol) in bands.items():
        imps = [imp for _, _, imp in _grid_improvements(artificial_runs[bits])]
        assert imps[0] >= first_floor, (bits, imps[0])
        assert abs(imps[-1] - last_mid) <= last_tol, (bits, imps[-1])
        for left, right in zip(imps, imps[1:]):
            assert right <= left + 1e-9, (bits, imps)
        summary.append(f"{bits}-bit {imps[0]:.2f}->{imps[-1]:.2f} dB")
    print(f"criterion 03: monotone improvements {'; '.join(summary)}: PASS")


def test_criterion_04_quantized_matches_artificial(artificial_runs, quantized_run):
    artificial = _grid_improvements(artificial_runs[1])
    quantized = _grid_improvements(quantized_run)
    gaps = [abs(a[2] - q[2]) for a, q in zip(artificial, quantized)]
    assert max(gaps) < 1.0, list(zip(artificial, quantized))
    print(
        "criterion 04: 1-bit quantized vs artificial improvement gap "
        f"max {max(gaps):.3f} dB over {len(gaps)} grid points: PASS"
    )


def test_criterion_05_scaled_recovery_anchor_points(artificial_runs):
    result = artificial_runs[1]
    first = result.point(1000, 200, 1, "bpdn-scale").mean_nmse
    last = result.point(1000, 1000, 542, "bpdn-scale").mean_nmse
    assert abs(first - 0.121) <= 0.02, first
    assert abs(last - 0.597) <= 0.05, last
    print(f"criterion 05: scaled-recovery NMSE anchors {first:.4f} / {last:.4f}: PASS")


def _artificial_instance(cfg, alpha):
    """(x, A, y, sigma_t) as an artificial-correlated trial draws them:
    y = alpha*A@x plus white noise of the residual power
    alpha*(1-alpha)*sigma_t^2, where sigma_t = ||x||/sqrt(M) is the per-trial
    measurement scale."""
    x, a, ybar, sigma_t_sq = draw_instance(cfg)
    y = measure(cfg, ybar, sigma_t_sq, alpha, None)
    return x, a, y, float(np.sqrt(sigma_t_sq))


def test_criterion_06_matrix_scaling_equals_rescaling():
    alpha = gain_model_analytic(design_lloyd_max(1, 1.0), 1.0).alpha
    m = 400
    pre_vals, post_vals = [], []
    for trial in range(100):
        cfg = InstanceConfig(n=1000, m=m, k=41, master_seed=MASTER_SEED, trial_index=trial)
        x, a, y, sigma_t = _artificial_instance(cfg, alpha)
        sigma_w = sigma_t * float(np.sqrt(alpha * (1.0 - alpha)))
        problem = BpdnProblem(a, y, epsilon_rule(m, sigma_w))
        pre_vals.append(nmse(solve_scaled_matrix(problem, alpha).solution, x))
        post_vals.append(nmse(solve_post_scaled(problem, alpha).solution, x))
    gap = abs(improvement_db(float(np.mean(pre_vals)), float(np.mean(post_vals))))
    assert gap < 0.2, gap
    print(f"criterion 06: scaled-matrix vs post-scaling mean-NMSE gap {gap:.4f} dB: PASS")


def _min_l1_support_search(a, y, k_max, eps):
    """Exhaustive minimum-l1 feasible reconstruction over supports of size <= k_max.

    Returns (best_l1, best_vector, runner_up_l1); the runner-up value serves
    to reject instances whose minimizer is not unique up to the margin.
    """
    n = a.shape[1]
    best_l1, best_z, runner_up = np.inf, None, np.inf
    for size in range(1, k_max + 1):
        for support in itertools.combinations(range(n), size):
            cols = a[:, support]
            coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if np.linalg.norm(y - cols @ coef) > eps:
                continue
            l1 = float(np.abs(coef).sum())
            if l1 < best_l1:
                runner_up = best_l1
                z = np.zeros(n)
                z[list(support)] = coef
                best_l1, best_z = l1, z
            elif l1 < runner_up:
                runner_up = l1
    return best_l1, best_z, runner_up


def _dual_certificate_strict(a, z):
    """True when the support's sign pattern certifies a unique l1 minimizer."""
    support = np.flatnonzero(z)
    cols = a[:, support]
    lam = cols @ np.linalg.solve(cols.T @ cols, np.sign(z[support]))
    rest = np.setdiff1d(np.arange(a.shape[1]), support)
    return float(np.max(np.abs(a[:, rest].T @ lam))) < 1.0 - 1e-6


def test_criterion_07_noiseless_recovery_matches_search_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    eps = 1e-8
    certified = matched = 0
    worst = 0.0
    for trial in range(200):
        k = 1 + trial % 2
        a = rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 16))
        x = np.zeros(16)
        support = rng.choice(16, size=k, replace=False)
        x[support] = rng.normal(size=k) + np.sign(rng.normal(size=k))
        y = a @ x
        l1, z, runner_up = _min_l1_support_search(a, y, k, eps)
        if z is None or not np.isfinite(l1):
            continue
        if runner_up < np.inf and runner_up <= l1 * (1.0 + 1e-6):
            continue
        if not _dual_certificate_strict(a, z):
            continue
        certified += 1
        err = nmse(solve_bpdn(BpdnProblem(a, y, eps)).solution, z)
        worst = max(worst, err)
        if err < 1e-6:
            matched += 1
    assert certified >= 100, f"only {certified}/200 instances certified unique"
    assert matched == certified, f"{matched}/{certified} matched the oracle"
    assert worst < 1e-6, worst
    print(
        f"criterion 07: {matched}/{certified} certified-unique instances matched, "
        f"worst NMSE {worst:.2e}: PASS"
    )


# Ratio of mean NMSEs, default point (alpha, eps_ref) over the simplex optimum,
# at (N=1000, M=200, K=1, 1 bit, artificial correlated noise). Measured on
# master seeds 1 and 2 with 400 trials each, pooled over the 800 trials as
# (nmse_at_alpha_1 + nmse_at_alpha_2) / (nmse_at_optimum_1 + nmse_at_optimum_2)
# from the JSON files written by
#   corrcs optimize-beta-epsilon --m 200 --k 1 --bits 1 --trials 400 --seed S --out tune-S.json
# for S in 1, 2: 0.242824 / 0.027263 = 8.907 (paired 99% CI [8.05, 9.85]).
TUNED_GAIN_REFERENCE = 8.91


def _best_over_beta(objective, epsilon):
    """Minimum over beta of the tuning objective at a fixed radius.

    At fixed epsilon the objective is a*u^2 + b*u + c in u = 1/beta, so its
    values at u = 1, 2, 3 fix the coefficients and the minimizer -b/(2a).
    """
    f1, f2, f3 = (objective(1.0 / u, epsilon) for u in (1.0, 2.0, 3.0))
    a = 0.5 * (f1 - 2.0 * f2 + f3)
    b = f2 - f1 - 3.0 * a
    assert a > 0.0, (epsilon, f1, f2, f3)
    return objective(-2.0 * a / b, epsilon)


def _paired_nmse(objective, points):
    """Per-trial NMSE at each (beta, epsilon) point, re-solved from fresh instances.

    Rows follow `points`; columns are the objective's trials. epsilon is at
    the ensemble reference scale sqrt(K/M), as in the objective.
    """
    sigma_ref = float(np.sqrt(objective.k / objective.m))
    out = np.empty((len(points), objective.trials))
    for trial in range(objective.trials):
        cfg = InstanceConfig(
            n=objective.n,
            m=objective.m,
            k=objective.k,
            master_seed=objective.master_seed,
            trial_index=trial,
        )
        x, a, y, sigma_t = _artificial_instance(cfg, objective.alpha)
        for row, (beta, epsilon) in enumerate(points):
            problem = BpdnProblem(a, y, epsilon * (sigma_t / sigma_ref))
            out[row, trial] = nmse(solve_post_scaled(problem, beta).solution, x)
    return out


def _ratio_ci99(baseline, method):
    """Ratio of mean errors with its paired 99% CI (delta method on the log ratio)."""
    mean_b, mean_m = float(np.mean(baseline)), float(np.mean(method))
    cov = np.cov(baseline, method)
    var_log = (
        cov[0, 0] / mean_b**2
        - 2.0 * cov[0, 1] / (mean_b * mean_m)
        + cov[1, 1] / mean_m**2
    ) / baseline.size
    ratio = mean_b / mean_m
    half = CI99_FACTOR * float(np.sqrt(var_log))
    return ratio, ratio * float(np.exp(-half)), ratio * float(np.exp(half))


def test_criterion_08_tuned_scaling_and_radius():
    objective = tuning_objective(
        m=200, k=1, trials=100, master_seed=MASTER_SEED, n=1000, bits=1
    )
    row = objective.tune()
    eps_ref, p_alpha = row["reference_epsilon"], row["nmse_at_alpha"]
    beta, epsilon, p_opt = row["beta"], row["epsilon"], row["nmse_at_optimum"]
    beta_ratio = beta / objective.alpha
    eps_ratio = epsilon / eps_ref
    assert 0.7 <= beta_ratio <= 1.0, beta_ratio
    assert 0.8 <= eps_ratio <= 1.1, eps_ratio

    # Optimality: no radius in the band, with its best beta, beats the simplex.
    scan_min = min(
        _best_over_beta(objective, eps_ref * r) for r in np.linspace(0.80, 1.10, 31)
    )
    assert p_opt <= (1.0 + 1e-3) * scan_min, (p_opt, scan_min)

    # Gain: the paired per-trial errors reproduce the objective, and their
    # ratio of means is consistent with the reference measured on other seeds.
    baseline, tuned = _paired_nmse(
        objective, [(objective.alpha, eps_ref), (beta, epsilon)]
    )
    assert float(np.mean(baseline)) == pytest.approx(p_alpha, rel=1e-12)
    assert float(np.mean(tuned)) == pytest.approx(p_opt, rel=1e-12)
    gain, low, high = _ratio_ci99(baseline, tuned)
    print(
        f"criterion 08: beta ratio {beta_ratio:.3f}, epsilon ratio {eps_ratio:.3f}, "
        f"error ratio {gain:.2f}x, 99% CI [{low:.2f}, {high:.2f}], "
        f"reference {TUNED_GAIN_REFERENCE:.2f}x, scan minimum {scan_min:.6f}"
    )
    assert low <= TUNED_GAIN_REFERENCE <= high, (low, high, TUNED_GAIN_REFERENCE)
    assert low > 1.0, low
    print("criterion 08: PASS")


def test_criterion_09_method_crossover_across_sparsity():
    points = {}
    for k in (6, 38):
        result = run_experiment(
            ExperimentConfig(
                grid=((256, 128, k),),
                trials=100,
                noise_mode="lloyd-max-quantized",
                methods=("bpdn-scale", "biht"),
                master_seed=MASTER_SEED,
                bits=1,
                normalize_signals=True,
            )
        )
        points[k] = {m: result.point(256, 128, k, m) for m in ("bpdn-scale", "biht")}
    sparse_biht, sparse_scale = points[6]["biht"], points[6]["bpdn-scale"]
    dense_biht, dense_scale = points[38]["biht"], points[38]["bpdn-scale"]
    assert (
        sparse_biht.mean_nmse + sparse_biht.ci99
        < sparse_scale.mean_nmse - sparse_scale.ci99
    ), (sparse_biht, sparse_scale)
    assert (
        dense_scale.mean_nmse + dense_scale.ci99
        < dense_biht.mean_nmse - dense_biht.ci99
    ), (dense_biht, dense_scale)
    print(
        "criterion 09: k=6 biht "
        f"{sparse_biht.mean_nmse:.4f} < scale {sparse_scale.mean_nmse:.4f}; "
        f"k=38 scale {dense_scale.mean_nmse:.4f} < biht {dense_biht.mean_nmse:.4f}, "
        "disjoint 99% CIs: PASS"
    )


def test_criterion_10_property_suite_representatives():
    # Noise-variance identity: total correlated-noise power splits into the
    # deterministic (alpha-1)^2 part plus the white part, equal to (1-alpha)
    # times the signal power when w carries the residual variance.
    sigma_ybar_sq, alpha = 2.5, 0.8
    sigma_w_sq = alpha * (1.0 - alpha) * sigma_ybar_sq
    total = (alpha - 1.0) ** 2 * sigma_ybar_sq + sigma_w_sq
    assert np.isclose(total, (1.0 - alpha) * sigma_ybar_sq, rtol=1e-12)

    # Quantizer fixed point: thresholds sit midway between neighboring levels,
    # and the fitted gain strictly improves with resolution.
    q = design_lloyd_max(3, 1.0)
    assert np.allclose(q.thresholds, 0.5 * (q.levels[:-1] + q.levels[1:]), atol=1e-9)
    alphas = [gain_model_analytic(design_lloyd_max(b, 1.0), 1.0).alpha for b in range(1, 6)]
    assert all(right > left for left, right in zip(alphas, alphas[1:])), alphas

    # Solver feasibility: the returned iterate respects the residual bound.
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0 / np.sqrt(40), size=(40, 120))
    x = np.zeros(120)
    x[rng.choice(120, size=4, replace=False)] = rng.normal(size=4)
    y = a @ x + rng.normal(0.0, 0.01, 40)
    report = solve_bpdn(BpdnProblem(a, y, 0.1))
    assert report.converged
    assert np.linalg.norm(y - a @ report.solution) <= 0.1 * (1.0 + 1e-4) + 1e-9

    # Harness determinism: identical configurations reproduce identical results.
    cfg = ExperimentConfig(
        grid=((64, 32, 3),),
        trials=4,
        noise_mode="artificial-correlated",
        methods=("bpdn", "bpdn-scale"),
        master_seed=11,
    )
    assert run_experiment(cfg) == run_experiment(cfg)
    print(
        "criterion 10: variance identity, quantizer fixed point, solver "
        "feasibility, harness determinism: PASS"
    )
