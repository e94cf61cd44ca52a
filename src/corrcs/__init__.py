"""Sparse recovery from measurements whose noise is correlated with the signal.

Coarse quantization (and any other distortion whose error tracks the
measurement amplitude) produces noise of the form y = alpha*ybar + w, with
ybar the noiseless measurements, 0 < alpha <= 1, and w uncorrelated with
ybar. Standard l1 recovery treats y - ybar as the noise and pays for the
full quantization error; dividing a recovery of alpha*x by alpha - with the
fidelity radius sized to the uncorrelated part only - removes the correlated
component and measurably lowers the reconstruction error. This package
provides the noise model, minimum-distortion scalar quantizers and their
gain models, the l1 solver with its scaled variants, a 1-bit baseline, a
derivative-free (beta, epsilon) tuner, and a Monte-Carlo harness that
reproduces the published benchmark numbers.
"""

__version__ = "0.1.0"

from .model import (
    NoiseSpec,
    SensingEnsemble,
    correlated_noise_variance,
)
from .siggen import (
    BENCHMARK_N,
    InstanceConfig,
    benchmark_grid,
    generate_ensemble,
    generate_signal,
    purpose_rng,
)
from .quantizers import (
    GainModelFit,
    QuantizerDesignError,
    ScalarQuantizer,
    design_lloyd_max,
    design_uniform_mmse,
    fit_gain_model,
    gain_model_analytic,
    quantize,
    quantizer_from_json,
    quantizer_to_json,
)
from .bpdn import (
    BpdnProblem,
    SolverReport,
    epsilon_rule,
    project_l1,
    solve_bpdn,
    solve_post_scaled,
    solve_scaled_matrix,
)
from .biht import BihtProblem, hard_threshold, sign_with_positive_zero, solve_biht
from .neldermead import SimplexConfig, minimize
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    GridPointResult,
    TuningObjective,
    improvement_db,
    nmse,
    read_manifest,
    read_results_csv,
    read_sweep_manifest,
    run_experiment,
    run_experiments,
    run_phase_sweep,
    tuning_objective,
    write_manifest,
    write_results_csv,
    write_sweep_manifest,
)

__all__ = [
    "__version__",
    "NoiseSpec",
    "SensingEnsemble",
    "correlated_noise_variance",
    "BENCHMARK_N",
    "InstanceConfig",
    "benchmark_grid",
    "generate_ensemble",
    "generate_signal",
    "purpose_rng",
    "GainModelFit",
    "QuantizerDesignError",
    "ScalarQuantizer",
    "design_lloyd_max",
    "design_uniform_mmse",
    "fit_gain_model",
    "gain_model_analytic",
    "quantize",
    "quantizer_from_json",
    "quantizer_to_json",
    "BpdnProblem",
    "SolverReport",
    "epsilon_rule",
    "project_l1",
    "solve_bpdn",
    "solve_post_scaled",
    "solve_scaled_matrix",
    "BihtProblem",
    "hard_threshold",
    "sign_with_positive_zero",
    "solve_biht",
    "SimplexConfig",
    "minimize",
    "ExperimentConfig",
    "ExperimentResult",
    "GridPointResult",
    "TuningObjective",
    "improvement_db",
    "nmse",
    "read_manifest",
    "read_results_csv",
    "read_sweep_manifest",
    "run_experiment",
    "run_experiments",
    "run_phase_sweep",
    "tuning_objective",
    "write_manifest",
    "write_results_csv",
    "write_sweep_manifest",
]
