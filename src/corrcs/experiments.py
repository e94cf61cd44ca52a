"""Monte-Carlo harness: trial execution, aggregation, persistence, sweeps.

A trial at grid point (N, M, K) generates a K-sparse signal and a Gaussian
ensemble from per-trial seed streams, produces measurements under the
configured noise mode, reconstructs with each requested method, and scores
the normalized mean squared error. The per-measurement signal power is
tracked per trial (sigma_t^2 = ||x||^2 / M, the exact variance of each entry
of A x given x) the way a receiver with automatic gain control would, so
noise levels, quantizer scaling, and fidelity radii all follow the realized
signal energy rather than its ensemble average.

Noise modes
-----------
artificial-correlated   y = alpha*ybar + w with w ~ N(0, alpha*(1-alpha)*sigma_t^2),
                        the statistics that distortion-matched quantization induces.
lloyd-max-quantized     y = sigma_t * Q(ybar / sigma_t) with Q the minimum-distortion
                        Lloyd-Max quantizer designed for a unit Gaussian.
uniform-quantized       same with the minimum-distortion uniform (equal-step) quantizer.

Methods
-------
bpdn         l1 recovery with fidelity radius from the sigma_q rule (total noise).
bpdn-scale   l1 recovery with radius from the sigma_r rule (uncorrelated part),
             solution divided by alpha.
bpdn-beta    like bpdn-scale but divided by a caller-chosen beta.
biht         1-bit baseline on sign measurements against unit-norm truth.

Instances: draw_instance draws a trial's signal, matrix, noiseless
measurements and sigma_t^2, and measure turns them into y at one bit depth.
Grid trials and the tuner's cached trials both go through these two
functions, so at the same point, seed and radius the tuner solves exactly
the problems the grid solves.

Jobs: a job is one (grid point, trial index) pair. The instance of a trial
does not depend on the bit depth, so run_experiments runs configs that
differ only in bits as one pass: a job draws its instance once and then
measures and solves it at every depth in turn; in artificial-correlated
mode the noise stream is re-seeded for each depth, so each depth sees the
draw it would see alone. The phase sweep's job is one delta column. _map is
the one fan-out: it runs a list of jobs inline at one worker and on one
process pool otherwise.

Reproducibility: results are bit-identical for a given config and master
seed regardless of worker count, because every trial derives its own seed
streams and aggregation always reduces the trial-ordered array with numpy's
fixed-shape pairwise summation. They are bit-identical only at the same BLAS
thread count, though: a threaded matrix-vector product may sum in another
order, and on the N=1000 grid one thread and two gave different mean NMSEs
from the same seed. Nothing here pins or records that count.
"""

from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from . import __version__
from .biht import BihtProblem, sign_with_positive_zero, solve_biht
from .bpdn import BpdnProblem, epsilon_rule, solve_bpdn, solve_post_scaled
from .model import _as_float_vector
from .quantizers import (
    ScalarQuantizer,
    design_lloyd_max,
    design_uniform_mmse,
    gain_model_analytic,
    quantize,
)
from .siggen import InstanceConfig, generate_ensemble, generate_signal, purpose_rng

NOISE_MODES = ("artificial-correlated", "lloyd-max-quantized", "uniform-quantized")
METHODS = ("bpdn", "bpdn-scale", "bpdn-beta", "biht")

#: Results CSV columns in file order, each with the type its text reads back
#: as; float columns are written at 17 significant digits.
CSV_COLUMNS = {
    "n": int, "m": int, "k": int, "delta": float, "rho": float, "method": str,
    "noise_mode": str, "bits": int, "trials": int, "mean_nmse": float,
    "ci99": float, "nonconverged": int,
}
CSV_HEADER = ",".join(CSV_COLUMNS)

# Two-sided 99% normal quantile for confidence-interval half-widths.
CI99_FACTOR = float(ndtri(0.995))

MANIFEST_FORMAT = "corrcs-manifest/2"

#: Fraction of non-converged trials above which a grid point is flagged.
NONCONVERGED_FLAG_FRACTION = 0.01


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Normalized squared error ||estimate - truth||^2 / ||truth||^2."""
    estimate = _as_float_vector(estimate, "estimate")
    truth = _as_float_vector(truth, "truth")
    if estimate.size != truth.size:
        raise ValueError(
            f"length mismatch: estimate {estimate.size}, truth {truth.size}"
        )
    denom = float(truth @ truth)
    if denom <= 0.0:
        raise ValueError("truth must be nonzero")
    diff = estimate - truth
    return float(diff @ diff) / denom


def improvement_db(p_baseline: float, p_method: float) -> float:
    """Error-ratio improvement 10*log10(p_baseline / p_method) in dB."""
    if not p_baseline > 0.0:
        raise ValueError(f"p_baseline must be > 0, got {p_baseline}")
    if not p_method > 0.0:
        raise ValueError(f"p_method must be > 0, got {p_method}")
    return float(10.0 * np.log10(p_baseline / p_method))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment bit-identically.

    explicit_epsilon=None sizes each method's radius by the radius rule. A
    value, read at the reference scale sqrt(K/M) and rescaled to each trial's
    signal power like everything else, is every method's radius instead.
    """

    grid: Tuple[Tuple[int, int, int], ...]
    trials: int
    noise_mode: str
    methods: Tuple[str, ...]
    master_seed: int
    bits: int = 1
    explicit_epsilon: Optional[float] = None
    beta: Optional[float] = None
    normalize_signals: bool = False
    retain_trials: bool = False

    def __post_init__(self):
        grid = tuple((int(n), int(m), int(k)) for n, m, k in self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))
        if not grid:
            raise ValueError("grid must contain at least one (n, m, k) point")
        for n, m, k in grid:
            if not (1 <= m <= n and 1 <= k <= m):
                raise ValueError(f"invalid grid point (n={n}, m={m}, k={k})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(
                f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}"
            )
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        eps = self.explicit_epsilon
        if eps is not None and not 0.0 <= eps < np.inf:
            raise ValueError(f"explicit_epsilon must be finite and >= 0, got {eps}")
        if "bpdn-beta" in self.methods and (self.beta is None or not self.beta > 0.0):
            raise ValueError("method bpdn-beta requires beta > 0")


@dataclass(frozen=True)
class GridPointResult:
    """Aggregated NMSE for one (grid point, method) pair."""

    n: int
    m: int
    k: int
    delta: float
    rho: float
    method: str
    noise_mode: str
    bits: int
    trials: int
    mean_nmse: float
    ci99: float
    nonconverged: int
    trial_nmse: Optional[Tuple[float, ...]] = None

    @property
    def flagged(self) -> bool:
        """True when more than 1% of trials failed to converge."""
        return self.nonconverged > NONCONVERGED_FLAG_FRACTION * self.trials


@dataclass(frozen=True)
class ExperimentResult:
    """Config echo plus one GridPointResult per (grid point, method)."""

    config: ExperimentConfig
    points: Tuple[GridPointResult, ...]

    def point(self, n: int, m: int, k: int, method: str) -> GridPointResult:
        for p in self.points:
            if (p.n, p.m, p.k, p.method) == (n, m, k, method):
                return p
        raise KeyError(f"no result for (n={n}, m={m}, k={k}, method={method})")


@functools.lru_cache(maxsize=None)
def _design(noise_mode: str, bits: int) -> Tuple[float, Optional[ScalarQuantizer]]:
    """(alpha, quantizer) of a bit depth: the unit-sigma minimum-distortion
    quantizer of the mode and its analytic correlation gain.

    Artificial mode mimics Lloyd-Max statistics: it takes the Lloyd-Max alpha
    and measures without a quantizer (None). Memoised per process, so each
    (mode, bits) is designed once; the quantizer is frozen with read-only
    arrays, so every caller can share one instance.
    """
    if noise_mode == "uniform-quantized":
        q = design_uniform_mmse(bits, 1.0)
    else:
        q = design_lloyd_max(bits, 1.0)
    alpha = gain_model_analytic(q, 1.0).alpha
    return alpha, (None if noise_mode == "artificial-correlated" else q)


def draw_instance(
    cfg: InstanceConfig, normalize: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Draw one trial's instance: (x, A, ybar = A x, sigma_t^2 = x.x / M).

    The signal stream is drawn before the matrix stream; both are keyed by
    (master_seed, trial_index), so the draw does not depend on the bit depth,
    the noise mode or the caller.
    """
    x = generate_signal(cfg, purpose_rng(cfg, "signal"), normalize=normalize)
    a = generate_ensemble(cfg, purpose_rng(cfg, "matrix")).system_matrix
    return x, a, a @ x, float(x @ x) / cfg.m


def measure(
    cfg: InstanceConfig,
    ybar: np.ndarray,
    sigma_t_sq: float,
    alpha: float,
    quantizer: Optional[ScalarQuantizer],
) -> np.ndarray:
    """Measurements y of a drawn instance at one bit depth.

    Without a quantizer (artificial-correlated mode) y = alpha*ybar + w, with
    w white of variance alpha*(1-alpha)*sigma_t^2 drawn from a freshly seeded
    noise stream, so every depth of a trial sees the same white draw. With
    one, y = sigma_t * Q(ybar / sigma_t).
    """
    if quantizer is None:
        sigma_w = float(np.sqrt(alpha * (1.0 - alpha) * sigma_t_sq))
        return alpha * ybar + purpose_rng(cfg, "noise").normal(0.0, sigma_w, cfg.m)
    sigma_t = float(np.sqrt(sigma_t_sq))
    return sigma_t * quantize(quantizer, ybar / sigma_t)


def _run_trial(
    config: ExperimentConfig,
    depths: Tuple[Tuple[float, Optional[ScalarQuantizer]], ...],
    job: Tuple[Tuple[int, int, int], int],
) -> List[Dict[str, Tuple[float, bool]]]:
    """Run one job, a (grid point, trial index) pair: draw its instance once,
    then measure and solve it at each (alpha, quantizer) depth in order.

    Returns, per depth, method -> (nmse, converged).
    """
    (n, m, k), trial_index = job
    cfg = InstanceConfig(
        n=n, m=m, k=k, master_seed=config.master_seed, trial_index=trial_index
    )
    x, a, ybar, sigma_t_sq = draw_instance(cfg, normalize=config.normalize_signals)
    sigma_t = float(np.sqrt(sigma_t_sq))
    outcomes: List[Dict[str, Tuple[float, bool]]] = []
    for alpha, quantizer in depths:
        y = measure(cfg, ybar, sigma_t_sq, alpha, quantizer)
        sigma_q = float(np.sqrt((1.0 - alpha) * sigma_t_sq))
        sigma_r = float(np.sqrt(alpha * (1.0 - alpha) * sigma_t_sq))
        if config.explicit_epsilon is not None:
            scale = sigma_t / float(np.sqrt(k / m))
            eps_bpdn = eps_scaled = float(config.explicit_epsilon) * scale
        else:
            eps_bpdn = epsilon_rule(m, sigma_q)
            eps_scaled = epsilon_rule(m, sigma_r)

        out: Dict[str, Tuple[float, bool]] = {}
        for method in config.methods:
            if method == "biht":
                signs = sign_with_positive_zero(ybar)
                report = solve_biht(BihtProblem(a, signs, k=k))
                truth = x / float(np.linalg.norm(x))
                out[method] = (nmse(report.solution, truth), report.converged)
                continue
            if method == "bpdn":
                report = solve_bpdn(BpdnProblem(a, y, eps_bpdn))
            elif method == "bpdn-scale":
                report = solve_post_scaled(BpdnProblem(a, y, eps_scaled), alpha)
            else:  # bpdn-beta
                report = solve_post_scaled(BpdnProblem(a, y, eps_scaled), config.beta)
            out[method] = (nmse(report.solution, x), report.converged)
        outcomes.append(out)
    return outcomes


def _aggregate(
    point: Tuple[int, int, int],
    method: str,
    config: ExperimentConfig,
    per_trial: np.ndarray,
    nonconverged: int,
) -> GridPointResult:
    n, m, k = point
    trials = per_trial.size
    mean = float(np.mean(per_trial))
    ci99 = (
        float(CI99_FACTOR * np.std(per_trial, ddof=1) / np.sqrt(trials))
        if trials > 1
        else 0.0
    )
    return GridPointResult(
        n=n,
        m=m,
        k=k,
        delta=float(m / n),
        rho=float(k / m),
        method=method,
        noise_mode=config.noise_mode,
        bits=config.bits,
        trials=trials,
        mean_nmse=mean,
        ci99=ci99,
        nonconverged=nonconverged,
        trial_nmse=tuple(float(v) for v in per_trial) if config.retain_trials else None,
    )


def _map(fn: Callable, items: Sequence, workers: int, chunksize: int) -> list:
    """[fn(item) for item in items], in order: inline at workers == 1, else on
    one process pool of that many workers. The harness's only fan-out."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every (grid point, trial, method) and aggregate NMSE per point.

    workers > 1 distributes trials across processes; aggregation is ordered
    by trial index so the result does not depend on scheduling.
    """
    return run_experiments([config], workers=workers)[0]


def run_experiments(
    configs: Sequence[ExperimentConfig], workers: int = 1
) -> List[ExperimentResult]:
    """Run configs that differ only in bits as one pass; one result per config.

    Each (grid point, trial) is one job that draws its instance once and
    measures and solves it at every config's bit depth, in config order; the
    instance streams do not depend on the bit depth, so every result equals
    what run_experiment gives for that config alone. workers > 1 runs the
    jobs on one process pool.
    """
    if not configs:
        raise ValueError("configs must contain at least one ExperimentConfig")
    first = configs[0]
    for config in configs[1:]:
        if replace(config, bits=first.bits) != first:
            raise ValueError("configs passed together may differ only in bits")
    depths = tuple(_design(config.noise_mode, config.bits) for config in configs)
    jobs = [(point, trial) for point in first.grid for trial in range(first.trials)]
    run_job = functools.partial(_run_trial, first, depths)
    outcomes = _map(run_job, jobs, workers, chunksize=8)

    results: List[ExperimentResult] = []
    for depth, config in enumerate(configs):
        points: List[GridPointResult] = []
        for point_index, point in enumerate(config.grid):
            # Jobs are point-major, so each point owns one contiguous run.
            rows = [
                outcome[depth]
                for outcome in outcomes[
                    point_index * config.trials : (point_index + 1) * config.trials
                ]
            ]
            for method in config.methods:
                per_trial = np.array([row[method][0] for row in rows])
                nonconverged = sum(1 for row in rows if not row[method][1])
                points.append(_aggregate(point, method, config, per_trial, nonconverged))
        results.append(ExperimentResult(config=config, points=tuple(points)))
    return results


def _sweep_column(
    delta: float,
    n: int,
    rho_step: float,
    trials: int,
    methods: Tuple[str, ...],
    nmse_cutoff: float,
    master_seed: int,
    bits: int,
) -> List[GridPointResult]:
    """Ascend rho in one delta column; a method drops out past the NMSE cutoff.

    rho has to stay sequential here because the cutoff decides which methods
    the next cell runs; columns are independent of each other. Each cell
    records the swept (delta, rho), not (M/N, K/M).
    """
    m = int(round(delta * n))
    cells: List[GridPointResult] = []
    active = list(methods)
    for rho in np.arange(rho_step, 1.0 + 1e-12, rho_step):
        if not active:
            break
        k = int(round(rho * m))
        if k < 1:
            continue
        if k > m:
            break
        config = ExperimentConfig(
            grid=((n, m, k),),
            trials=trials,
            noise_mode="lloyd-max-quantized",
            methods=tuple(active),
            master_seed=master_seed,
            bits=bits,
            normalize_signals=True,
        )
        for point in run_experiment(config).points:
            cells.append(replace(point, delta=delta, rho=float(rho)))
            if point.mean_nmse > nmse_cutoff:
                active.remove(point.method)
    return cells


def run_phase_sweep(
    delta_step: float = 0.05,
    rho_step: float = 0.05,
    trials: int = 100,
    methods: Tuple[str, ...] = ("bpdn-scale", "biht"),
    nmse_cutoff: float = 1.0,
    n: int = 256,
    master_seed: int = 0,
    bits: int = 1,
    workers: int = 1,
) -> Tuple[GridPointResult, ...]:
    """Sweep the (delta, rho) = (M/N, K/M) phase plane bottom-up.

    For each undersampling column delta, sparsity rho ascends from the first
    step; a method stops contributing to the column once its mean NMSE
    exceeds nmse_cutoff (reconstruction quality only degrades with rho, so
    nothing of interest lies above). All methods see unit-norm signals;
    bpdn-* methods read 1-bit quantized measurements, biht reads signs.

    workers > 1 runs the delta columns on one process pool, one column per
    job; cells come back in delta order either way.
    """
    if not 0.0 < delta_step <= 1.0 or not 0.0 < rho_step <= 1.0:
        raise ValueError("delta_step and rho_step must be in (0, 1]")
    if not nmse_cutoff > 0.0:
        raise ValueError(f"nmse_cutoff must be > 0, got {nmse_cutoff}")
    if n < 1 or not methods:
        raise ValueError(f"need n >= 1 and a method, got n={n}, methods={methods!r}")
    for method in methods:
        if method not in ("bpdn-scale", "biht"):
            raise ValueError(f"phase sweep supports bpdn-scale and biht, got {method!r}")

    deltas = [
        float(delta)
        for delta in np.arange(delta_step, 1.0 + 1e-12, delta_step)
        if 1 <= int(round(delta * n)) <= n
    ]
    column = functools.partial(
        _sweep_column,
        n=n,
        rho_step=rho_step,
        trials=trials,
        methods=tuple(methods),
        nmse_cutoff=nmse_cutoff,
        master_seed=master_seed,
        bits=bits,
    )
    per_column = _map(column, deltas, workers, chunksize=1)
    return tuple(cell for cells in per_column for cell in cells)


class TuningObjective:
    """Mean NMSE of beta-corrected recovery as a function of (beta, epsilon).

    Evaluations reuse one fixed set of trial seeds (common random numbers) so
    the surface is deterministic, as the simplex search requires. epsilon is
    interpreted at the ensemble reference scale sqrt(K/M) and rescaled to
    each trial's gain-controlled level. Because the l1 solve depends only on
    epsilon while beta is a closed-form rescaling of its solution, solves are
    cached per epsilon: each cache entry stores per-trial
    (||z||^2, <z, x>, ||x||^2) from which NMSE(beta) follows directly.
    """

    def __init__(
        self,
        m: int,
        k: int,
        trials: int,
        master_seed: int,
        n: int = 1000,
        noise_mode: str = "artificial-correlated",
        bits: int = 1,
    ):
        # Validate the inputs as the grid's config of this point would.
        ExperimentConfig(
            grid=((n, m, k),),
            trials=trials,
            noise_mode=noise_mode,
            methods=("bpdn",),
            master_seed=master_seed,
            bits=bits,
        )
        self.n, self.m, self.k = int(n), int(m), int(k)
        self.trials = int(trials)
        self.master_seed = int(master_seed)
        self.noise_mode = noise_mode
        self.bits = int(bits)
        self.alpha, self._quantizer = _design(noise_mode, self.bits)
        self._instances: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray, float]]] = None
        self._solve_cache: Dict[float, List[Tuple[float, float, float]]] = {}
        self.solve_count = 0

    def _materialize(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
        """Per trial (x, A, y, sigma_t), drawn and measured as the grid does."""
        if self._instances is None:
            instances = []
            for t in range(self.trials):
                cfg = InstanceConfig(
                    n=self.n,
                    m=self.m,
                    k=self.k,
                    master_seed=self.master_seed,
                    trial_index=t,
                )
                x, a, ybar, sigma_t_sq = draw_instance(cfg)
                y = measure(cfg, ybar, sigma_t_sq, self.alpha, self._quantizer)
                instances.append((x, a, y, float(np.sqrt(sigma_t_sq))))
            self._instances = instances
        return self._instances

    def reference_epsilon(self) -> float:
        """The sigma_r fidelity-radius rule at the ensemble reference scale."""
        sigma_ref = float(np.sqrt(self.k / self.m))
        return epsilon_rule(
            self.m, sigma_ref * float(np.sqrt(self.alpha * (1.0 - self.alpha)))
        )

    def _solve_all(self, epsilon: float) -> List[Tuple[float, float, float]]:
        key = float(epsilon)
        if key not in self._solve_cache:
            sigma_ref = float(np.sqrt(self.k / self.m))
            stats = []
            for x, a, y, sigma_t in self._materialize():
                scale = sigma_t / sigma_ref
                report = solve_bpdn(BpdnProblem(a, y, key * scale))
                z = report.solution
                stats.append((float(z @ z), float(z @ x), float(x @ x)))
            self._solve_cache[key] = stats
            self.solve_count += len(stats)
        return self._solve_cache[key]

    def __call__(self, beta: float, epsilon: float) -> float:
        if not beta > 0.0 or epsilon < 0.0:
            return float("inf")
        total = 0.0
        for zz, zx, xx in self._solve_all(epsilon):
            total += (zz / beta**2 - 2.0 * zx / beta + xx) / xx
        return total / self.trials


def tuning_objective(
    m: int,
    k: int,
    trials: int,
    master_seed: int,
    n: int = 1000,
    noise_mode: str = "artificial-correlated",
    bits: int = 1,
) -> TuningObjective:
    """Convenience constructor for the cached (beta, epsilon) NMSE objective."""
    return TuningObjective(
        m=m,
        k=k,
        trials=trials,
        master_seed=master_seed,
        n=n,
        noise_mode=noise_mode,
        bits=bits,
    )


def _write_json(path: str, payload: dict) -> None:
    """Write `payload` as key-sorted JSON indented by two, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_results_csv(path: str, points: Sequence[GridPointResult]) -> None:
    """Write one CSV row per (grid point, method), floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in points:
            writer.writerow(
                [
                    format(getattr(p, name), ".17g") if kind is float else getattr(p, name)
                    for name, kind in CSV_COLUMNS.items()
                ]
            )


def read_results_csv(path: str) -> Tuple[GridPointResult, ...]:
    """Read back rows written by write_results_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header {header!r}")
        return tuple(
            GridPointResult(
                **{name: CSV_COLUMNS[name](cell) for name, cell in zip(header, row, strict=True)}
            )
            for row in reader
        )


def _write_manifest(
    path: str, kind: str, key: str, body: dict, points: Sequence[GridPointResult]
) -> None:
    """The manifest envelope: format, kind, library version, master seed, the
    run's parameters under `key`, and every point without its trial NMSEs."""
    _write_json(
        path,
        {
            "format": MANIFEST_FORMAT,
            "kind": kind,
            "library_version": __version__,
            "master_seed": body.get("master_seed"),
            key: body,
            "points": [
                {name: value for name, value in asdict(p).items() if name != "trial_nmse"}
                for p in points
            ],
        },
    )


def write_manifest(path: str, result: ExperimentResult) -> None:
    """Persist config echo, library version, and per-point results as JSON."""
    _write_manifest(path, "experiment", "config", asdict(result.config), result.points)


def _load_manifest(path: str, kind: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unexpected manifest format {payload.get('format')!r}")
    if payload.get("kind", "experiment") != kind:
        raise ValueError(f"expected a {kind} manifest, got {payload.get('kind')!r}")
    return payload


def read_manifest(path: str) -> ExperimentResult:
    """Load a manifest written by write_manifest."""
    payload = _load_manifest(path, "experiment")
    raw = dict(payload["config"])
    raw["grid"] = tuple(tuple(point) for point in raw["grid"])
    raw["methods"] = tuple(raw["methods"])
    config = ExperimentConfig(**raw)
    points = tuple(GridPointResult(**point) for point in payload["points"])
    return ExperimentResult(config=config, points=points)


def write_sweep_manifest(
    path: str, params: dict, points: Sequence[GridPointResult]
) -> None:
    """Persist phase-sweep parameters and cells as JSON."""
    _write_manifest(path, "phase-sweep", "sweep", dict(params), points)


def read_sweep_manifest(path: str) -> Tuple[dict, Tuple[GridPointResult, ...]]:
    """Load a manifest written by write_sweep_manifest."""
    payload = _load_manifest(path, "phase-sweep")
    points = tuple(GridPointResult(**point) for point in payload["points"])
    return dict(payload["sweep"]), points
