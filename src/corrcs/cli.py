"""Command-line front end: benchmark recipes, sweeps, tuning, and one-off solves.

Exit codes: 0 on success, 1 on invalid input (including unknown flags and
file/dimension errors), 2 when a reconstruction the command depends on fails
to converge beyond the tolerated fraction. All outputs are deterministic
functions of the flags - rerunning an invocation reproduces every output
file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .biht import BihtProblem, sign_with_positive_zero, solve_biht
from .bpdn import BpdnProblem, SolverReport, epsilon_rule, solve_bpdn, solve_post_scaled
from .experiments import (
    CSV_COLUMNS,
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    GridPointResult,
    _design,
    _write_json,
    run_experiments,
    run_phase_sweep,
    tuning_objective,
    write_manifest,
    write_results_csv,
    write_sweep_manifest,
)
from .model import _require_finite
from .quantizers import (
    _check_input_power,
    design_lloyd_max,
    design_uniform_mmse,
    fit_gain_model,
    gain_model_analytic,
    quantizer_to_json,
)
from .siggen import BENCHMARK_N, benchmark_grid

FIGURES = ("fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3", "table4")

_FIGURE_MODES = {
    "fig2": "artificial-correlated",
    "fig3": "lloyd-max-quantized",
    "fig4": "uniform-quantized",
}
_TABLE_BITS = {"table2": 1, "table3": 3, "table4": 5}
_BENCHMARK_BITS = (1, 3, 5)
_GRID_METHODS = ("bpdn", "bpdn-scale")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; invalid input here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="corrcs", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"corrcs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rep = sub.add_parser("reproduce", help="rerun a published benchmark recipe")
    rep.add_argument("--figure", required=True, choices=FIGURES)
    rep.add_argument("--scale", default="desk", choices=("paper", "desk"))
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--trials", type=int, default=None, help="override the recipe's trial count")
    rep.add_argument("--workers", type=int, default=None)
    rep.add_argument("--out", default=".", help="output directory")

    slv = sub.add_parser("solve", help="reconstruct one signal from files")
    slv.add_argument("--matrix", required=True, help="CSV, one row per matrix row")
    slv.add_argument("--y", required=True, help="CSV, one measurement per row")
    slv.add_argument("--method", required=True, choices=METHODS)
    slv.add_argument("--alpha", type=float, default=None)
    slv.add_argument("--bits", type=int, default=None,
                     help="derive alpha from this bit depth when --alpha is absent")
    slv.add_argument("--epsilon", default="auto",
                     help="fidelity radius, or 'auto' to apply the radius rule to --sigma")
    slv.add_argument("--sigma", type=float, default=None,
                     help="noise standard deviation for --epsilon auto")
    slv.add_argument("--k", type=int, default=None, help="sparsity budget (biht)")
    slv.add_argument("--out", required=True, help="output prefix")

    qnt = sub.add_parser("quantizer", help="design a scalar quantizer and its gain model")
    qnt.add_argument("--design", required=True, choices=("lloyd-max", "uniform"))
    qnt.add_argument("--bits", type=int, required=True)
    qnt.add_argument("--sigma", type=float, default=1.0)
    qnt.add_argument("--samples", type=int, default=0,
                     help="Monte-Carlo sample count for the gain fit (0 = analytic)")
    qnt.add_argument("--seed", type=int, default=0)
    qnt.add_argument("--out", required=True, help="output JSON file")

    swp = sub.add_parser("phase-sweep", help="map the (delta, rho) phase plane")
    swp.add_argument("--delta-step", type=float, default=0.05)
    swp.add_argument("--rho-step", type=float, default=0.05)
    swp.add_argument("--trials", type=int, default=100)
    swp.add_argument("--n", type=int, default=256)
    swp.add_argument("--cutoff", type=float, default=1.0)
    swp.add_argument("--methods", default="bpdn-scale,biht")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--workers", type=int, default=None)
    swp.add_argument("--out", default=".", help="output directory")

    opt = sub.add_parser(
        "optimize-beta-epsilon",
        help="search the (beta, epsilon) plane for the lowest mean NMSE",
    )
    opt.add_argument("--m", type=int, required=True)
    opt.add_argument("--k", type=int, required=True)
    opt.add_argument("--n", type=int, default=BENCHMARK_N)
    opt.add_argument("--bits", type=int, default=1)
    opt.add_argument("--noise-mode", default="artificial-correlated")
    opt.add_argument("--trials", type=int, default=100)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", required=True, help="output JSON file")

    return parser


def _workers(value: Optional[int]) -> int:
    if value is not None:
        if value < 1:
            raise ValueError(f"--workers must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _plot_script(title: str, y_expr: str) -> str:
    return (
        "# gnuplot script; columns refer to the CSV header\n"
        f"# {CSV_HEADER}\n"
        'set datafile separator ","\n'
        "set logscale y\n"
        f'set title "{title}"\n'
        'set xlabel "grid point (ascending M)"\n'
        'set ylabel "mean NMSE"\n'
        f"plot {y_expr}\n"
    )


def _using(*columns: str) -> str:
    """gnuplot `using` spec of results-CSV columns, by name (1-based positions)."""
    return ":".join(str(CSV_COLUMNS.index(name) + 1) for name in columns)


def _flagged_exit(points: Sequence[GridPointResult]) -> int:
    """Exit 2 when any l1-method grid point exceeds the non-convergence budget.

    The 1-bit baseline stops at its iteration cap by design, so it does not
    count as a solver failure.
    """
    for p in points:
        if p.method != "biht" and p.flagged:
            return 2
    return 0


def _sweep(out_dir: str, name: str, params: dict, workers: int) -> tuple:
    """Run a phase sweep on params (recorded in its manifest) and write
    `name`.csv and `name`-manifest.json; returns the CSV path and the cells."""
    cells = run_phase_sweep(workers=workers, **params)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    write_results_csv(csv_path, cells)
    write_sweep_manifest(os.path.join(out_dir, f"{name}-manifest.json"), params, cells)
    return csv_path, cells


def _cmd_reproduce(args) -> int:
    figure = args.figure
    workers = _workers(args.workers)
    os.makedirs(args.out, exist_ok=True)

    if figure == "table1":
        alphas = {
            design: {str(bits): _design(mode, bits)[0] for bits in _BENCHMARK_BITS}
            for design, mode in (("lloyd-max", _FIGURE_MODES["fig3"]),
                                 ("uniform", _FIGURE_MODES["fig4"]))
        }
        path = os.path.join(args.out, "table1.json")
        _write_json(path, {"correlation_gain": alphas, "library_version": __version__})
        print(path)
        return 0

    if figure in _FIGURE_MODES:
        trials = args.trials if args.trials is not None else (1000 if args.scale == "paper" else 50)
        configs = [
            ExperimentConfig(
                grid=tuple((BENCHMARK_N, m, k) for m, k in benchmark_grid()),
                trials=trials,
                noise_mode=_FIGURE_MODES[figure],
                methods=_GRID_METHODS,
                master_seed=args.seed,
                bits=bits,
            )
            for bits in _BENCHMARK_BITS
        ]
        points: List[GridPointResult] = []
        for result in run_experiments(configs, workers=workers):
            write_manifest(
                os.path.join(args.out, f"{figure}-{result.config.bits}bit-manifest.json"),
                result,
            )
            points.extend(result.points)
        csv_path = os.path.join(args.out, f"{figure}.csv")
        write_results_csv(csv_path, points)
        bit_list = " ".join(map(str, _BENCHMARK_BITS))
        method_list = " ".join(_GRID_METHODS)
        with open(os.path.join(args.out, f"{figure}.plt"), "w") as fh:
            fh.write(
                _plot_script(
                    f"mean NMSE per grid point ({_FIGURE_MODES[figure]})",
                    f'for [b in "{bit_list}"] for [m in "{method_list}"] "{figure}.csv" '
                    f"using {_using('mean_nmse')} every ::1 with linespoints "
                    "title sprintf(\"%s %s-bit\", m, b)",
                )
            )
        print(csv_path)
        return _flagged_exit(points)

    if figure == "fig5":
        if args.scale == "paper":
            params = dict(delta_step=0.01, rho_step=0.01, trials=1000, n=BENCHMARK_N)
        else:
            params = dict(delta_step=0.05, rho_step=0.05, trials=100, n=256)
        if args.trials is not None:
            params["trials"] = args.trials
        params.update(master_seed=args.seed, nmse_cutoff=1.0)
        csv_path, cells = _sweep(args.out, "fig5", params, workers)
        with open(os.path.join(args.out, "fig5.plt"), "w") as fh:
            fh.write(
                _plot_script(
                    "phase plane: mean NMSE per (delta, rho) cell",
                    f'"fig5.csv" using {_using("delta", "rho", "mean_nmse")} every ::1 with image',
                )
            )
        print(csv_path)
        return _flagged_exit(cells)

    # table2/3/4: tuned (beta, epsilon) per grid point
    bits = _TABLE_BITS[figure]
    trials = args.trials if args.trials is not None else (1000 if args.scale == "paper" else 100)
    grid = benchmark_grid() if args.scale == "paper" else [benchmark_grid()[0]]
    rows = [
        tuning_objective(
            m=m, k=k, n=BENCHMARK_N, bits=bits,
            noise_mode="artificial-correlated", trials=trials, master_seed=args.seed,
        ).tune()
        for m, k in grid
    ]
    path = os.path.join(args.out, f"{figure}.json")
    _write_json(
        path,
        {
            "bits": bits,
            "library_version": __version__,
            "master_seed": args.seed,
            "trials": trials,
            "rows": rows,
        },
    )
    print(path)
    return 0


def _load_csv(path: str, ndmin: int) -> np.ndarray:
    with warnings.catch_warnings():
        # numpy warns on a file without data; it is rejected below instead
        warnings.simplefilter("ignore", UserWarning)
        arr = np.loadtxt(path, delimiter=",", ndmin=ndmin)
    if arr.size == 0:
        raise ValueError(f"{path} holds no values")
    return np.asarray(arr, dtype=np.float64)


def _load_vector(path: str) -> np.ndarray:
    v = _load_csv(path, 1).reshape(-1)
    # biht reads only the signs of y, which would turn a NaN into -1.
    _require_finite(v, path)
    return v


def _cmd_solve(args) -> int:
    a = _load_csv(args.matrix, 2)
    y = _load_vector(args.y)

    if args.method == "biht":
        if args.k is None:
            raise ValueError("--k is required for method biht")
        signs = sign_with_positive_zero(y)
        report = solve_biht(BihtProblem(a, signs, k=args.k))
        extra = {"k": args.k}
    else:
        if args.epsilon == "auto":
            if args.sigma is None:
                raise ValueError("--epsilon auto requires --sigma")
            epsilon = epsilon_rule(a.shape[0], args.sigma)
        else:
            try:
                epsilon = float(args.epsilon)
            except ValueError:
                raise ValueError(f"--epsilon must be a number or 'auto', got {args.epsilon!r}")
        problem = BpdnProblem(a, y, epsilon)
        if args.method == "bpdn":
            report = solve_bpdn(problem)
            extra = {"epsilon": epsilon}
        else:
            alpha = args.alpha
            if alpha is None and args.bits is not None:
                alpha = _design("lloyd-max-quantized", args.bits)[0]
            if alpha is None:
                raise ValueError("--alpha (or --bits) is required for method bpdn-scale")
            report = solve_post_scaled(problem, alpha)
            extra = {"epsilon": epsilon, "alpha": alpha}

    solution_path = f"{args.out}-solution.csv"
    report_path = f"{args.out}-report.json"
    np.savetxt(solution_path, report.solution, fmt="%.17g")
    _write_json(
        report_path,
        {
            "method": args.method,
            "converged": report.converged,
            "iterations": report.iterations,
            "residual_norm": report.residual_norm,
            "l1_norm": report.l1_norm,
            **extra,
        },
    )
    print(solution_path)
    if args.method != "biht" and not report.converged:
        return 2
    return 0


def _cmd_quantizer(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0 (0 = analytic), got {args.samples}")
    builder = design_lloyd_max if args.design == "lloyd-max" else design_uniform_mmse
    q = builder(args.bits, args.sigma)
    # a product under- or overflows to 0 or inf, where float ** would raise
    sigma_ybar_sq = args.sigma * args.sigma
    _check_input_power(sigma_ybar_sq, f"--sigma {args.sigma!r}: its square sigma_ybar_sq")
    if args.samples > 0:
        rng = np.random.default_rng(args.seed)
        fit = fit_gain_model(q, sigma_ybar_sq, args.samples, rng)
    else:
        fit = gain_model_analytic(q, sigma_ybar_sq)
    _write_json(
        args.out,
        {
            "quantizer": json.loads(quantizer_to_json(q)),
            "gain_model": {
                "alpha": fit.alpha,
                "sigma_q_sq": fit.sigma_q_sq,
                "sigma_r_sq": fit.sigma_r_sq,
                "sigma_ybar_sq": fit.sigma_ybar_sq,
                "sample_count": fit.sample_count,
            },
        },
    )
    print(args.out)
    return 0


def _cmd_phase_sweep(args) -> int:
    params = dict(
        delta_step=args.delta_step,
        rho_step=args.rho_step,
        trials=args.trials,
        methods=tuple(m for m in args.methods.split(",") if m),
        nmse_cutoff=args.cutoff,
        n=args.n,
        master_seed=args.seed,
    )
    csv_path, cells = _sweep(args.out, "phase-sweep", params, _workers(args.workers))
    print(csv_path)
    return _flagged_exit(cells)


def _cmd_optimize(args) -> int:
    row = tuning_objective(
        m=args.m, k=args.k, n=args.n, bits=args.bits,
        noise_mode=args.noise_mode, trials=args.trials, master_seed=args.seed,
    ).tune()
    _write_json(args.out, dict(row, noise_mode=args.noise_mode, bits=args.bits,
                               trials=args.trials, master_seed=args.seed))
    print(args.out)
    return 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "solve": _cmd_solve,
    "quantizer": _cmd_quantizer,
    "phase-sweep": _cmd_phase_sweep,
    "optimize-beta-epsilon": _cmd_optimize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"corrcs {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
