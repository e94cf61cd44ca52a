"""Monte-Carlo harness: scoring, aggregation, sweeps, persistence, tuning."""

import dataclasses
import json

import numpy as np
import pytest

from corrcs import experiments
from corrcs.bpdn import epsilon_rule
from corrcs.experiments import (
    CI99_FACTOR,
    ExperimentConfig,
    GridPointResult,
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

SMALL = dict(
    grid=((64, 32, 3),),
    trials=6,
    noise_mode="artificial-correlated",
    methods=("bpdn", "bpdn-scale"),
    master_seed=101,
)


def test_nmse_examples():
    truth = np.array([1.0, 0.0])
    assert nmse(truth, truth) == 0.0
    assert nmse(np.array([0.5, 0.0]), truth) == 0.25
    assert nmse(np.zeros(2), truth) == 1.0


def test_nmse_rejects_zero_truth_and_length_mismatch():
    with pytest.raises(ValueError):
        nmse(np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        nmse(np.array([1.0]), np.array([1.0, 2.0]))


def test_improvement_db_examples():
    assert improvement_db(0.4, 0.4) == 0.0
    assert improvement_db(1.0, 0.1) == pytest.approx(10.0, abs=1e-12)
    assert improvement_db(0.29, 0.1212) == pytest.approx(3.789, abs=0.001)


def test_improvement_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        improvement_db(0.0, 0.1)
    with pytest.raises(ValueError):
        improvement_db(0.1, -1.0)


def test_ci_half_width_matches_formula():
    config = ExperimentConfig(**SMALL, retain_trials=True)
    point = run_experiment(config).points[0]
    values = np.array(point.trial_nmse)
    assert point.mean_nmse == pytest.approx(float(np.mean(values)), abs=1e-15)
    expected = CI99_FACTOR * np.std(values, ddof=1) / np.sqrt(values.size)
    assert point.ci99 == pytest.approx(float(expected), rel=1e-12)


def test_rerun_is_bit_identical_and_worker_count_invariant():
    config = ExperimentConfig(**SMALL)
    first = run_experiment(config)
    second = run_experiment(config)
    parallel = run_experiment(config, workers=2)
    assert first == second
    assert first == parallel


def test_flag_raised_only_above_one_percent_nonconverged():
    base = dict(
        n=64, m=32, k=3, delta=0.5, rho=0.09375, method="bpdn",
        noise_mode="artificial-correlated", bits=1, trials=100,
        mean_nmse=0.5, ci99=0.05,
    )
    assert GridPointResult(**base, nonconverged=3).flagged
    assert GridPointResult(**base, nonconverged=2).flagged
    assert not GridPointResult(**base, nonconverged=1).flagged
    assert not GridPointResult(**base, nonconverged=0).flagged


def test_independent_seeds_agree_within_joint_confidence():
    grid = ((64, 32, 3), (96, 48, 5))
    shared = dict(
        grid=grid, trials=30, noise_mode="artificial-correlated", methods=("bpdn",)
    )
    first = run_experiment(ExperimentConfig(**shared, master_seed=1))
    second = run_experiment(ExperimentConfig(**shared, master_seed=2))
    for pa, pb in zip(first.points, second.points):
        assert abs(pa.mean_nmse - pb.mean_nmse) <= pa.ci99 + pb.ci99


def test_quantized_and_artificial_noise_agree_within_one_db():
    shared = dict(
        grid=((256, 128, 10),), trials=30, methods=("bpdn",), master_seed=5, bits=3
    )
    quantized = run_experiment(
        ExperimentConfig(**shared, noise_mode="lloyd-max-quantized")
    ).points[0]
    artificial = run_experiment(
        ExperimentConfig(**shared, noise_mode="artificial-correlated")
    ).points[0]
    gap = improvement_db(artificial.mean_nmse, quantized.mean_nmse)
    assert abs(gap) < 1.0


def test_error_grows_with_sparsity_at_fixed_m():
    config = ExperimentConfig(
        grid=((256, 128, 5), (256, 128, 15), (256, 128, 30)),
        trials=30,
        noise_mode="artificial-correlated",
        methods=("bpdn",),
        master_seed=9,
    )
    points = run_experiment(config).points
    for lo, hi in zip(points, points[1:]):
        assert hi.mean_nmse >= lo.mean_nmse - (lo.ci99 + hi.ci99)


def test_result_point_lookup():
    result = run_experiment(ExperimentConfig(**SMALL))
    assert result.point(64, 32, 3, "bpdn-scale").method == "bpdn-scale"
    with pytest.raises(KeyError):
        result.point(64, 32, 4, "bpdn")


def test_csv_roundtrip_preserves_all_fields(tmp_path):
    result = run_experiment(ExperimentConfig(**SMALL))
    path = str(tmp_path / "points.csv")
    write_results_csv(path, result.points)
    assert read_results_csv(path) == result.points


def test_csv_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_results_csv(str(path))


def test_manifest_roundtrip(tmp_path):
    result = run_experiment(ExperimentConfig(**SMALL))
    path = str(tmp_path / "run.json")
    write_manifest(path, result)
    assert read_manifest(path) == result


_PINNED_CSV = (
    "n,m,k,delta,rho,method,noise_mode,bits,trials,mean_nmse,ci99,nonconverged\n"
    "1000,200,6,0.20000000000000001,0.029999999999999999,bpdn,lloyd-max-quantized,"
    "1,3,0.33333333333333331,0.10000000000000001,0\n"
    "1000,200,6,0.20000000000000001,0.029999999999999999,bpdn-scale,lloyd-max-quantized,"
    "1,3,2.5000000000000001e-05,1.0000000000000001e+300,1\n"
)

_PINNED_MANIFEST = """\
{
  "config": {
    "beta": null,
    "bits": 1,
    "explicit_epsilon": null,
    "grid": [
      [
        1000,
        200,
        6
      ]
    ],
    "master_seed": 5,
    "methods": [
      "bpdn",
      "bpdn-scale"
    ],
    "noise_mode": "lloyd-max-quantized",
    "normalize_signals": false,
    "retain_trials": false,
    "trials": 3
  },
  "format": "corrcs-manifest/2",
  "kind": "experiment",
  "library_version": "0.1.0",
  "master_seed": 5,
  "points": [
    {
      "bits": 1,
      "ci99": 0.1,
      "delta": 0.2,
      "k": 6,
      "m": 200,
      "mean_nmse": 0.3333333333333333,
      "method": "bpdn",
      "n": 1000,
      "noise_mode": "lloyd-max-quantized",
      "nonconverged": 0,
      "rho": 0.03,
      "trials": 3
    },
    {
      "bits": 1,
      "ci99": 1e+300,
      "delta": 0.2,
      "k": 6,
      "m": 200,
      "mean_nmse": 2.5e-05,
      "method": "bpdn-scale",
      "n": 1000,
      "noise_mode": "lloyd-max-quantized",
      "nonconverged": 1,
      "rho": 0.03,
      "trials": 3
    }
  ]
}
"""


def test_csv_and_manifest_bytes_are_pinned(tmp_path):
    # a format that still reads back (repr for ".17g", reordered keys or
    # columns) would pass the round trips above; the literal text would not
    row = dict(n=1000, m=200, k=6, delta=0.2, rho=0.03,
               noise_mode="lloyd-max-quantized", bits=1, trials=3)
    points = (
        GridPointResult(method="bpdn", mean_nmse=1 / 3, ci99=0.1, nonconverged=0, **row),
        GridPointResult(method="bpdn-scale", mean_nmse=2.5e-05, ci99=1e300,
                        nonconverged=1, **row),
    )
    config = ExperimentConfig(grid=((1000, 200, 6),), trials=3,
                              noise_mode="lloyd-max-quantized",
                              methods=("bpdn", "bpdn-scale"), master_seed=5)
    csv_path = tmp_path / "points.csv"
    manifest_path = tmp_path / "run.json"
    write_results_csv(str(csv_path), points)
    write_manifest(str(manifest_path), experiments.ExperimentResult(config, points))
    assert csv_path.read_bytes() == _PINNED_CSV.encode()
    assert manifest_path.read_bytes() == _PINNED_MANIFEST.encode()


def test_manifest_of_the_previous_format_is_rejected(tmp_path):
    # format 1 also held the alpha, sigma_w_sq and epsilon_mode config keys
    result = run_experiment(ExperimentConfig(**SMALL))
    path = tmp_path / "run.json"
    write_manifest(str(path), result)
    payload = json.loads(path.read_text())
    payload["format"] = "corrcs-manifest/1"
    payload["config"].update(alpha=None, sigma_w_sq=None, epsilon_mode="rule")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="manifest format"):
        read_manifest(str(path))


def test_sweep_manifest_roundtrip_and_kind_check(tmp_path):
    cells = run_phase_sweep(
        delta_step=0.5, rho_step=0.25, trials=2, n=16, master_seed=3
    )
    params = {"delta_step": 0.5, "rho_step": 0.25, "trials": 2, "n": 16,
              "master_seed": 3}
    path = str(tmp_path / "sweep.json")
    write_sweep_manifest(path, params, cells)
    loaded_params, loaded_cells = read_sweep_manifest(path)
    assert loaded_params == params
    assert loaded_cells == cells
    with pytest.raises(ValueError):
        read_manifest(path)


def test_phase_sweep_skips_empty_cells_and_stops_past_cutoff():
    cells = run_phase_sweep(
        delta_step=0.5, rho_step=0.05, trials=2, n=16, master_seed=3
    )
    assert cells
    for cell in cells:
        assert cell.k >= 1
        assert cell.noise_mode == "lloyd-max-quantized"
    # rho = 0.05 at delta = 0.5 means k = round(0.4) = 0: never recorded
    assert not [c for c in cells if (c.delta, c.rho) == (0.5, 0.05)]
    # each (column, method) series ascends rho and ends at the first cell
    # whose mean NMSE exceeds the cutoff
    for delta in (0.5, 1.0):
        for method in ("bpdn-scale", "biht"):
            series = [
                c for c in cells if c.delta == delta and c.method == method
            ]
            rhos = [c.rho for c in series]
            assert rhos == sorted(rhos)
            exceeded = [c.rho for c in series if c.mean_nmse > 1.0]
            if exceeded:
                assert exceeded == [rhos[-1]]


def test_phase_sweep_cells_record_the_swept_coordinates():
    # At n = 16 the swept delta = 0.3 gives m = 5, so m/n = 0.3125; each cell
    # must carry the swept (delta, rho), not (m/n, k/m).
    deltas = [float(d) for d in np.arange(0.3, 1.0 + 1e-12, 0.3)]
    rhos = [float(r) for r in np.arange(0.3, 1.0 + 1e-12, 0.3)]
    cells = run_phase_sweep(
        delta_step=0.3, rho_step=0.3, trials=2, n=16, master_seed=3
    )
    assert {c.delta for c in cells} == set(deltas)
    for cell in cells:
        assert cell.delta != cell.m / cell.n
        assert cell.m == round(cell.delta * 16)
        assert cell.rho in rhos
        assert cell.k == round(cell.rho * cell.m)


# Four delta columns; at this seed the first two stop at the cutoff before
# rho reaches 1 and the last two run to the top.
POOLED_SWEEP = dict(delta_step=0.25, rho_step=0.25, trials=2, n=16, master_seed=3)


def test_phase_sweep_is_worker_count_invariant():
    serial = run_phase_sweep(**POOLED_SWEEP, workers=1)
    pooled = run_phase_sweep(**POOLED_SWEEP, workers=2)
    assert pooled == serial
    deltas = sorted({c.delta for c in serial})
    assert len(deltas) >= 3
    tops = [max(c.rho for c in serial if c.delta == d) for d in deltas]
    assert min(tops) < 1.0


def test_pooled_phase_sweep_starts_one_pool(monkeypatch):
    starts = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    run_phase_sweep(**POOLED_SWEEP, workers=1)
    assert starts == []
    run_phase_sweep(**POOLED_SWEEP, workers=2)
    assert starts == [2]


def test_phase_sweep_designs_each_quantizer_once(monkeypatch):
    # Every cell of a sweep uses the same 1-bit Lloyd-Max quantizer and gain.
    calls = []
    original = experiments.design_lloyd_max

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "design_lloyd_max", counting)
    experiments._design.cache_clear()
    cells = run_phase_sweep(**POOLED_SWEEP, workers=1)
    assert len({c.delta for c in cells}) >= 3
    assert len({(c.delta, c.rho) for c in cells}) > 2
    assert len(calls) <= 2, calls


# Configs of one grid figure: the same instances at three bit depths.
DEPTHS_GRID = dict(
    grid=((64, 32, 3), (64, 48, 6)),
    trials=3,
    methods=("bpdn", "bpdn-scale"),
    master_seed=23,
    retain_trials=True,
)


def _depth_configs(noise_mode):
    return [
        ExperimentConfig(**DEPTHS_GRID, noise_mode=noise_mode, bits=bits)
        for bits in (1, 3, 5)
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "noise_mode",
    ["lloyd-max-quantized", "uniform-quantized", "artificial-correlated"],
)
def test_run_experiments_equals_one_run_per_config(noise_mode, workers):
    configs = _depth_configs(noise_mode)
    joint = run_experiments(configs, workers=workers)
    separate = [run_experiment(config) for config in configs]
    assert joint == separate
    # the depths measure the same instances differently
    assert len({r.points[0].mean_nmse for r in joint}) == len(configs)


def test_run_experiments_rejects_mismatched_configs():
    configs = _depth_configs("lloyd-max-quantized")
    with pytest.raises(ValueError):
        run_experiments([])
    for change in (
        {"master_seed": 24},
        {"trials": 2},
        {"grid": ((64, 32, 3),)},
        {"noise_mode": "uniform-quantized"},
        {"methods": ("bpdn",)},
        {"retain_trials": False},
    ):
        with pytest.raises(ValueError):
            run_experiments([configs[0], dataclasses.replace(configs[1], **change)])
    with pytest.raises(ValueError):
        run_experiments(configs, workers=0)


def test_pooled_grid_run_starts_one_pool(monkeypatch):
    starts = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    configs = _depth_configs("artificial-correlated")
    run_experiments(configs, workers=1)
    assert starts == []
    run_experiments(configs, workers=2)
    assert starts == [2]


def test_phase_sweep_validation():
    with pytest.raises(ValueError):
        run_phase_sweep(delta_step=0.0)
    with pytest.raises(ValueError):
        run_phase_sweep(rho_step=1.5)
    with pytest.raises(ValueError):
        run_phase_sweep(nmse_cutoff=0.0)
    with pytest.raises(ValueError):
        run_phase_sweep(methods=("bpdn",))
    with pytest.raises(ValueError):
        run_phase_sweep(methods=())
    with pytest.raises(ValueError):
        run_phase_sweep(n=0)
    with pytest.raises(ValueError):
        run_phase_sweep(workers=0)


def test_tuning_objective_reference_epsilon():
    obj = tuning_objective(m=32, k=2, trials=4, master_seed=7, n=64)
    sigma_ref = np.sqrt(2.0 / 32.0) * np.sqrt(obj.alpha * (1.0 - obj.alpha))
    assert obj.reference_epsilon() == pytest.approx(
        epsilon_rule(32, float(sigma_ref)), rel=1e-15
    )


def test_tuning_objective_caches_solves_per_epsilon():
    obj = tuning_objective(m=32, k=2, trials=4, master_seed=7, n=64)
    eps0 = obj.reference_epsilon()
    obj(1.0, eps0)
    assert obj.solve_count == 4
    obj(0.8, eps0)
    assert obj.solve_count == 4
    obj(1.0, 1.1 * eps0)
    assert obj.solve_count == 8


def test_tuning_objective_matches_direct_scaled_recovery():
    # the cached quadratic-form evaluation must agree with actually solving
    # and scoring the beta-scaled recovery through the harness
    obj = tuning_objective(m=32, k=2, trials=4, master_seed=7, n=64)
    eps0 = obj.reference_epsilon()
    config = ExperimentConfig(
        grid=((64, 32, 2),),
        trials=4,
        noise_mode="artificial-correlated",
        methods=("bpdn-beta",),
        master_seed=7,
        beta=0.8,
        explicit_epsilon=eps0,
    )
    direct = run_experiment(config).points[0].mean_nmse
    assert obj(0.8, eps0) == pytest.approx(direct, rel=1e-12)


def test_tuning_objective_solves_the_grids_problems(monkeypatch):
    # the tuner's cached instances and radii are the grid's, bit for bit
    problems = []

    def recording(a, y, epsilon):
        problems.append((np.asarray(y).tobytes(), epsilon))
        return original(a, y, epsilon)

    original = experiments.BpdnProblem
    monkeypatch.setattr(experiments, "BpdnProblem", recording)
    obj = tuning_objective(m=32, k=2, trials=20, master_seed=7, n=64)
    eps0 = obj.reference_epsilon()
    obj(0.8, eps0)
    tuner = problems.copy()
    problems.clear()
    config = ExperimentConfig(
        grid=((64, 32, 2),),
        trials=20,
        noise_mode="artificial-correlated",
        methods=("bpdn-beta",),
        master_seed=7,
        beta=0.8,
        explicit_epsilon=eps0,
    )
    run_experiment(config)
    assert len(tuner) == 20
    assert tuner == problems


def test_tuning_objective_rejects_infeasible_points_with_inf():
    obj = tuning_objective(m=32, k=2, trials=2, master_seed=7, n=64)
    assert obj(0.0, 1.0) == np.inf
    assert obj(-1.0, 1.0) == np.inf
    assert obj(1.0, -0.5) == np.inf


def test_tuning_objective_validation():
    with pytest.raises(ValueError):
        tuning_objective(m=32, k=2, trials=2, master_seed=0, noise_mode="other")
    for bad in ({"trials": 0}, {"k": 0}, {"k": 33}):
        with pytest.raises(ValueError):
            tuning_objective(**{**dict(m=32, k=2, trials=2, master_seed=0), **bad})


def test_config_validation():
    good = dict(SMALL)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "grid": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "grid": ((32, 64, 3),)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "grid": ((64, 32, 33),)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "noise_mode": "additive"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "methods": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "methods": ("lasso",)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "bits": 0})
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "explicit_epsilon": bad})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "methods": ("bpdn-beta",)})
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(**good), workers=0)


def test_config_is_immutable():
    config = ExperimentConfig(**SMALL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.trials = 7
