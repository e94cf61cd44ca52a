"""Command-line interface: file IO, exit codes, and recipe outputs."""

import dataclasses
import json

import numpy as np
import pytest

from corrcs import cli, experiments
from corrcs.bpdn import epsilon_rule
from corrcs.quantizers import design_lloyd_max, gain_model_analytic

TABLE1_ALPHAS = {
    ("lloyd-max", "1"): 0.63662,
    ("lloyd-max", "3"): 0.96545,
    ("lloyd-max", "5"): 0.99750,
    ("uniform", "1"): 0.63662,
    ("uniform", "3"): 0.96256,
    ("uniform", "5"): 0.99650,
}


@pytest.fixture
def solve_files(tmp_path):
    """A solvable noisy instance on disk: (matrix_path, y_path, x, noise_norm)."""
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0 / np.sqrt(30), size=(30, 90))
    x = np.zeros(90)
    support = rng.choice(90, size=3, replace=False)
    x[support] = rng.normal(size=3) + np.sign(rng.normal(size=3))
    noise = rng.normal(0.0, 0.03, size=30)
    y = a @ x + noise
    matrix_path = tmp_path / "a.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(matrix_path, a, delimiter=",", fmt="%.17g")
    np.savetxt(y_path, y, fmt="%.17g")
    return str(matrix_path), str(y_path), x, float(np.linalg.norm(noise))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_bpdn_writes_solution_and_report(capsys, tmp_path, solve_files):
    matrix, yfile, x, noise_norm = solve_files
    out = str(tmp_path / "run")
    code, stdout, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn", "--epsilon", str(noise_norm), "--out", out,
    )
    assert code == 0
    assert stdout.strip() == f"{out}-solution.csv"
    solution = np.loadtxt(f"{out}-solution.csv")
    report = json.load(open(f"{out}-report.json"))
    assert report["method"] == "bpdn"
    assert report["converged"] is True
    assert report["epsilon"] == noise_norm
    assert report["l1_norm"] == pytest.approx(float(np.abs(solution).sum()), rel=1e-12)
    assert float(np.sum((solution - x) ** 2) / np.sum(x**2)) < 0.05


def test_solve_scaled_at_alpha_one_matches_plain_bpdn(capsys, tmp_path, solve_files):
    matrix, yfile, _, noise_norm = solve_files
    out_plain = str(tmp_path / "plain")
    out_scaled = str(tmp_path / "scaled")
    code_a, _, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn", "--epsilon", str(noise_norm), "--out", out_plain,
    )
    code_b, _, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn-scale", "--alpha", "1.0",
        "--epsilon", str(noise_norm), "--out", out_scaled,
    )
    assert code_a == code_b == 0
    plain = open(f"{out_plain}-solution.csv", "rb").read()
    scaled = open(f"{out_scaled}-solution.csv", "rb").read()
    assert plain == scaled


def test_solve_epsilon_auto_applies_radius_rule(capsys, tmp_path, solve_files):
    matrix, yfile, _, _ = solve_files
    sigma = 0.03
    out_auto = str(tmp_path / "auto")
    out_explicit = str(tmp_path / "explicit")
    code_a, _, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn", "--epsilon", "auto", "--sigma", str(sigma),
        "--out", out_auto,
    )
    code_b, _, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn", "--epsilon", str(epsilon_rule(30, sigma)),
        "--out", out_explicit,
    )
    assert code_a == code_b == 0
    report = json.load(open(f"{out_auto}-report.json"))
    assert report["epsilon"] == epsilon_rule(30, sigma)
    auto = open(f"{out_auto}-solution.csv", "rb").read()
    explicit = open(f"{out_explicit}-solution.csv", "rb").read()
    assert auto == explicit


def test_solve_rerun_is_byte_identical(capsys, tmp_path, solve_files):
    matrix, yfile, _, noise_norm = solve_files
    outputs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", matrix, "--y", yfile,
            "--method", "bpdn", "--epsilon", str(noise_norm), "--out", out,
        )
        assert code == 0
        outputs.append(
            open(f"{out}-solution.csv", "rb").read()
            + open(f"{out}-report.json", "rb").read()
        )
    assert outputs[0] == outputs[1]


def test_solve_biht_from_sign_measurements(capsys, tmp_path, solve_files):
    matrix, yfile, x, _ = solve_files
    out = str(tmp_path / "signs")
    code, _, _ = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "biht", "--k", "3", "--out", out,
    )
    assert code == 0
    report = json.load(open(f"{out}-report.json"))
    assert report["method"] == "biht"
    assert report["k"] == 3
    solution = np.loadtxt(f"{out}-solution.csv")
    assert np.count_nonzero(solution) <= 3


def test_solve_missing_alpha_for_scaled_method_exits_one(capsys, tmp_path, solve_files):
    matrix, yfile, _, noise_norm = solve_files
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn-scale", "--epsilon", str(noise_norm),
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "alpha" in stderr


@pytest.mark.parametrize(
    "flags, missing",
    [(["--method", "biht"], "--k"), (["--method", "bpdn", "--epsilon", "auto"], "--sigma")],
    ids=["biht-without-k", "auto-epsilon-without-sigma"],
)
def test_solve_without_a_required_flag_exits_one(capsys, tmp_path, solve_files, flags, missing):
    matrix, yfile, _, _ = solve_files
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile, *flags,
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert missing in stderr
    assert not (tmp_path / "x-solution.csv").exists()


def test_solve_scaled_bits_matches_its_alpha(capsys, tmp_path, solve_files):
    # --bits 1 stands for the 1-bit Lloyd-Max alpha
    matrix, yfile, _, noise_norm = solve_files
    alpha = gain_model_analytic(design_lloyd_max(1, 1.0), 1.0).alpha
    outputs = []
    for name, flag, value in (("bits", "--bits", "1"), ("alpha", "--alpha", repr(alpha))):
        out = str(tmp_path / name)
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", matrix, "--y", yfile, "--method", "bpdn-scale",
            flag, value, "--epsilon", str(noise_norm), "--out", out,
        )
        assert code == 0
        outputs.append(
            open(f"{out}-solution.csv", "rb").read()
            + open(f"{out}-report.json", "rb").read()
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_solve_non_finite_alpha_exits_one(capsys, tmp_path, solve_files, alpha):
    matrix, yfile, _, noise_norm = solve_files
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn-scale", "--alpha", alpha, "--epsilon", str(noise_norm),
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "finite" in stderr
    assert not (tmp_path / "x-solution.csv").exists()


def test_solve_rejects_bad_epsilon_and_mismatched_dimensions(capsys, tmp_path, solve_files):
    matrix, yfile, _, _ = solve_files
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", yfile,
        "--method", "bpdn", "--epsilon", "lots", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "epsilon" in stderr
    short = tmp_path / "short.csv"
    np.savetxt(short, np.ones(7), fmt="%.17g")
    for method in (["bpdn", "--epsilon", "1.0"], ["biht", "--k", "3"]):
        code, _, stderr = run_cli(
            capsys, "solve", "--matrix", matrix, "--y", str(short),
            "--method", *method, "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "length 7 does not match matrix rows 30" in stderr


def test_solve_missing_file_exits_one(capsys, tmp_path, solve_files):
    matrix, _, _, _ = solve_files
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", str(tmp_path / "absent.csv"),
        "--method", "bpdn", "--epsilon", "1.0", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize("method", ["bpdn", "biht"])
def test_solve_non_finite_measurement_exits_one(capsys, tmp_path, solve_files, method):
    matrix, yfile, _, _ = solve_files
    y = np.loadtxt(yfile)
    y[4] = np.nan
    bad = tmp_path / "nan.csv"
    np.savetxt(bad, y, fmt="%.17g")
    out = tmp_path / "x"
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", str(bad),
        "--method", method, "--epsilon", "1.0", "--k", "3", "--out", str(out),
    )
    assert code == 1
    assert "finite" in stderr
    assert not (tmp_path / "x-solution.csv").exists()


def test_solve_empty_measurement_exits_one(capsys, tmp_path, solve_files):
    matrix, _, _, _ = solve_files
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "x"
    code, _, stderr = run_cli(
        capsys, "solve", "--matrix", matrix, "--y", str(empty),
        "--method", "bpdn", "--epsilon", "1.0", "--out", str(out),
    )
    assert code == 1
    assert "no values" in stderr
    assert not (tmp_path / "x-solution.csv").exists()


def test_solve_infeasible_radius_exits_two(capsys, tmp_path):
    # more measurements than unknowns with a radius far below the attainable
    # least-squares floor: the solver must report failure, not a solution
    rng = np.random.default_rng(4)
    a = rng.normal(size=(30, 10))
    y = rng.normal(size=30)
    matrix_path = tmp_path / "a.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(matrix_path, a, delimiter=",", fmt="%.17g")
    np.savetxt(y_path, y, fmt="%.17g")
    out = str(tmp_path / "hard")
    code, _, _ = run_cli(
        capsys, "solve", "--matrix", str(matrix_path), "--y", str(y_path),
        "--method", "bpdn", "--epsilon", "1e-9", "--out", out,
    )
    assert code == 2
    report = json.load(open(f"{out}-report.json"))
    assert report["converged"] is False


def test_quantizer_json_matches_library_design(capsys, tmp_path):
    out = str(tmp_path / "q.json")
    code, stdout, _ = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "3",
        "--sigma", "2.0", "--out", out,
    )
    assert code == 0
    assert stdout.strip() == out
    payload = json.load(open(out))
    reference = design_lloyd_max(3, 2.0)
    assert payload["quantizer"]["levels"] == pytest.approx(
        list(reference.levels), rel=1e-15
    )
    assert payload["quantizer"]["thresholds"] == pytest.approx(
        list(reference.thresholds), rel=1e-15
    )
    analytic = gain_model_analytic(reference, 4.0)
    assert payload["gain_model"]["alpha"] == pytest.approx(analytic.alpha, rel=1e-12)
    assert payload["gain_model"]["sigma_ybar_sq"] == pytest.approx(4.0, rel=1e-12)


def test_quantizer_one_bit_levels(capsys, tmp_path):
    out = str(tmp_path / "q1.json")
    code, _, _ = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "1",
        "--sigma", "1.0", "--out", out,
    )
    assert code == 0
    payload = json.load(open(out))
    assert payload["gain_model"]["alpha"] == pytest.approx(2.0 / np.pi, abs=1e-8)
    assert payload["quantizer"]["levels"] == pytest.approx(
        [-0.79788, 0.79788], abs=1e-5
    )


def test_quantizer_sampled_fit_is_seed_deterministic(capsys, tmp_path):
    first = str(tmp_path / "qa.json")
    second = str(tmp_path / "qb.json")
    for out in (first, second):
        code, _, _ = run_cli(
            capsys, "quantizer", "--design", "uniform", "--bits", "2",
            "--samples", "20000", "--seed", "11", "--out", out,
        )
        assert code == 0
    assert open(first, "rb").read() == open(second, "rb").read()
    payload = json.load(open(first))
    assert payload["gain_model"]["sample_count"] == 20000


def test_quantizer_zero_bits_exits_one(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "0",
        "--out", str(tmp_path / "q.json"),
    )
    assert code == 1
    assert "bits" in stderr


def test_quantizer_negative_samples_exits_one(capsys, tmp_path):
    # only 0 selects the analytic model; a negative count is an error
    out = tmp_path / "q.json"
    code, _, stderr = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "1",
        "--samples", "-5", "--out", str(out),
    )
    assert code == 1
    assert "--samples" in stderr
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_quantizer_non_finite_sigma_exits_one(capsys, tmp_path, sigma):
    out = tmp_path / "q.json"
    code, _, stderr = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "1",
        "--sigma", sigma, "--out", str(out),
    )
    assert code == 1
    assert "sigma" in stderr
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "20000"])
@pytest.mark.parametrize("sigma", ["1e200", "1e160", "1e-170", "1e-160"])
def test_quantizer_sigma_whose_square_overflows_exits_one(capsys, tmp_path, sigma, samples):
    # each sigma is finite but its square is not, underflows to 0, or is
    # subnormal (1e-320 keeps too few bits for the gain): the error line
    # names the flag, not a traceback
    out = tmp_path / "q.json"
    code, _, stderr = run_cli(
        capsys, "quantizer", "--design", "lloyd-max", "--bits", "1",
        "--sigma", sigma, "--samples", samples, "--out", str(out),
    )
    assert code == 1
    assert "sigma_ybar_sq" in stderr
    assert "--sigma" in stderr
    assert not out.exists()


def test_reproduce_table1_alphas(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys, "reproduce", "--figure", "table1", "--seed", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.load(open(stdout.strip()))
    gains = payload["correlation_gain"]
    assert len(gains["lloyd-max"]) == len(gains["uniform"]) == 3
    for (design, bits), expected in TABLE1_ALPHAS.items():
        assert gains[design][bits] == pytest.approx(expected, abs=0.002)


def test_reproduce_fig3_shape_and_exit(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys, "reproduce", "--figure", "fig3", "--trials", "1",
        "--seed", "42", "--out", str(tmp_path),
    )
    assert code == 0
    lines = open(stdout.strip()).read().splitlines()
    # header + 9 grid points x 2 methods x 3 bit depths
    assert len(lines) == 55
    assert lines[0] == "n,m,k,delta,rho,method,noise_mode,bits,trials,mean_nmse,ci99,nonconverged"
    assert (tmp_path / "fig3.plt").exists()
    for bits in (1, 3, 5):
        assert (tmp_path / f"fig3-{bits}bit-manifest.json").exists()


def test_reproduce_fig5_desk_writes_csv_manifest_and_plot(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys, "reproduce", "--figure", "fig5", "--scale", "desk",
        "--trials", "1", "--workers", "1", "--out", str(tmp_path),
    )
    assert code == 0
    assert stdout.strip() == str(tmp_path / "fig5.csv")
    assert (tmp_path / "fig5-manifest.json").exists()
    plot = (tmp_path / "fig5.plt").read_text().splitlines()
    assert plot[-1] == 'plot "fig5.csv" using 4:5:10 every ::1 with image'
    assert open(tmp_path / "fig5.csv").readline().strip() == experiments.CSV_HEADER


def test_reproduce_table2_row_matches_optimize(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys, "reproduce", "--figure", "table2", "--scale", "desk",
        "--trials", "2", "--out", str(tmp_path),
    )
    assert code == 0
    (row,) = json.load(open(stdout.strip()))["rows"]
    out = str(tmp_path / "tuned.json")
    code, _, _ = run_cli(
        capsys, "optimize-beta-epsilon", "--m", "200", "--k", "1", "--bits", "1",
        "--trials", "2", "--out", out,
    )
    assert code == 0
    tuned = json.load(open(out))
    assert (row["m"], row["k"]) == (200, 1)
    assert {key: tuned[key] for key in row} == row


def test_reproduce_unknown_figure_exits_one(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["reproduce", "--figure", "fig9", "--out", str(tmp_path)])
    assert err.value.code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["quantizer", "--design", "lloyd-max", "--bits", "1",
                  "--out", "q.json", "--frobnicate"])
    assert err.value.code == 1


def test_phase_sweep_rerun_is_byte_identical(capsys, tmp_path):
    dirs = [str(tmp_path / name) for name in ("one", "two")]
    for out in dirs:
        code, stdout, _ = run_cli(
            capsys, "phase-sweep", "--n", "16", "--delta-step", "0.5",
            "--rho-step", "0.25", "--trials", "2", "--seed", "3", "--out", out,
        )
        assert code == 0
        assert stdout.strip().endswith("phase-sweep.csv")
    for name in ("phase-sweep.csv", "phase-sweep-manifest.json"):
        first = open(f"{dirs[0]}/{name}", "rb").read()
        second = open(f"{dirs[1]}/{name}", "rb").read()
        assert first == second


def test_phase_sweep_files_do_not_depend_on_worker_count(capsys, tmp_path):
    dirs = {workers: tmp_path / f"w{workers}" for workers in ("1", "2")}
    for workers, out in dirs.items():
        code, _, _ = run_cli(
            capsys, "phase-sweep", "--n", "16", "--delta-step", "0.25",
            "--rho-step", "0.25", "--trials", "2", "--seed", "3",
            "--workers", workers, "--out", str(out),
        )
        assert code == 0
    for name in ("phase-sweep.csv", "phase-sweep-manifest.json"):
        assert (dirs["1"] / name).read_bytes() == (dirs["2"] / name).read_bytes()


def test_phase_sweep_rejects_unknown_method(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "phase-sweep", "--methods", "bpdn", "--out", str(tmp_path),
    )
    assert code == 1
    assert "bpdn" in stderr


@pytest.mark.parametrize(
    "flag, value", [("--n", "0"), ("--methods", ""), ("--methods", "biht,biht")]
)
def test_phase_sweep_without_cells_exits_one(capsys, tmp_path, flag, value):
    # a small sweep, so a check that lets the bad value through fails fast;
    # a repeated method would write each of its cells twice
    code, _, stderr = run_cli(
        capsys, "phase-sweep", "--n", "16", "--delta-step", "0.5", "--rho-step", "0.5",
        "--trials", "1", "--workers", "1", flag, value, "--out", str(tmp_path),
    )
    assert code == 1
    assert "phase-sweep: error" in stderr
    assert not (tmp_path / "phase-sweep.csv").exists()


def test_phase_sweep_non_converged_solves_exit_two(capsys, tmp_path, monkeypatch):
    solve = experiments.solve_post_scaled

    def failing(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(experiments, "solve_post_scaled", failing)
    code, stdout, _ = run_cli(
        capsys, "phase-sweep", "--n", "16", "--delta-step", "0.5",
        "--rho-step", "0.5", "--trials", "2", "--workers", "1",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert stdout.strip().endswith("phase-sweep.csv")


def test_optimize_improves_on_matched_parameters(capsys, tmp_path):
    out = str(tmp_path / "tuned.json")
    code, stdout, _ = run_cli(
        capsys, "optimize-beta-epsilon", "--m", "32", "--k", "2", "--n", "64",
        "--trials", "4", "--seed", "7", "--out", out,
    )
    assert code == 0
    assert stdout.strip() == out
    row = json.load(open(out))
    assert row["nmse_at_optimum"] <= row["nmse_at_alpha"]
    assert row["beta"] > 0.0 and row["epsilon"] > 0.0
    assert row["beta_over_alpha"] == pytest.approx(row["beta"] / row["alpha"], rel=1e-12)


@pytest.mark.parametrize("trials, k", [("0", "2"), ("4", "0")])
def test_optimize_rejects_bad_point_exits_one(capsys, tmp_path, trials, k):
    out = tmp_path / "tuned.json"
    code, _, stderr = run_cli(
        capsys, "optimize-beta-epsilon", "--m", "32", "--k", k, "--n", "64",
        "--trials", trials, "--out", str(out),
    )
    assert code == 1
    assert "optimize-beta-epsilon: error" in stderr
    assert not out.exists()


def test_workers_validation(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "phase-sweep", "--n", "16", "--delta-step", "0.5",
        "--rho-step", "0.5", "--trials", "2", "--workers", "0",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "workers" in stderr
