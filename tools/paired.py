"""Paired comparison of the seeded statistics of two revisions.

    python3 tools/paired.py BASE [CHANGE]

Both revisions are exported with the `export` helper of tools/bench_pairs.py
(CHANGE defaults to HEAD, so commit first), and each export runs, from its
own `src` and at master seed 0:

- fig2 and fig3 desk (the N = 1000 grid at 1, 3 and 5 bits, `bpdn` and
  `bpdn-scale`) at 8 trials, keeping every trial's NMSE (`retain_trials`);
- fig5 desk (the n = 256 phase plane, `bpdn-scale` and `biht`) at 2 trials.

A trial's instance depends only on (seed, trial, purpose), not on the
solver, so the two sides' NMSEs are paired trial by trial. Per grid
(point, method) the report gives the mean paired difference with its 99% CI
(delta method on the log ratio of the means, as criterion 08 of
tests/test_acceptance.py computes it), the largest relative move of any one
trial, and the change in non-converged trials; it lists every fig5 cell
whose mean differs, is on one side only, or crosses the NMSE cutoff.

The rule: each grid point's paired CI contains 0, or its mean moves by less
than a tenth of the base's 99% CI half-width at that point; and no l1-method
point or cell gains a non-converged trial (BIHT stops at its iteration cap
by design, so its count is reported, not ruled on). A fig5 cell that moves
or crosses the cutoff is reported and does not fail the rule by itself. The
script exits 1 when the rule fails or a run fails. Seeded outputs depend on
the BLAS thread count, so run both sides in the same environment. Uses the
standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import blas_threads, export, git  # noqa: E402

CI99_FACTOR = statistics.NormalDist().inv_cdf(0.995)
NMSE_CUTOFF = 1.0
GRID_TRIALS = 8
FIG5_TRIALS = 2

# Runs in each exported tree, with the grid trials, the fig5 trials and the
# cutoff as its arguments, and prints its statistics as one JSON document.
WORKLOAD = """
import json, sys
from corrcs.experiments import ExperimentConfig, run_experiments, run_phase_sweep
from corrcs.siggen import BENCHMARK_N, benchmark_grid

grid_trials, fig5_trials, cutoff = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
out = {"grid": [], "fig5": []}
for figure, mode in (("fig2", "artificial-correlated"), ("fig3", "lloyd-max-quantized")):
    configs = [
        ExperimentConfig(
            grid=tuple((BENCHMARK_N, m, k) for m, k in benchmark_grid()),
            trials=grid_trials, noise_mode=mode, methods=("bpdn", "bpdn-scale"),
            master_seed=0, bits=bits, retain_trials=True,
        )
        for bits in (1, 3, 5)
    ]
    for result in run_experiments(configs):
        for p in result.points:
            out["grid"].append({
                "figure": figure, "bits": p.bits, "n": p.n, "m": p.m, "k": p.k,
                "method": p.method, "trial_nmse": list(p.trial_nmse),
                "ci99": p.ci99, "nonconverged": p.nonconverged,
            })
cells = run_phase_sweep(delta_step=0.05, rho_step=0.05, trials=fig5_trials, n=256,
                        master_seed=0, nmse_cutoff=cutoff)
for c in cells:
    out["fig5"].append({
        "delta": c.delta, "rho": c.rho, "method": c.method,
        "mean_nmse": c.mean_nmse, "nonconverged": c.nonconverged,
    })
print(json.dumps(out))
"""


def collect(tree: str) -> dict:
    """The statistics of the workload, run from `tree`'s `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, "-c", WORKLOAD, str(GRID_TRIALS), str(FIG5_TRIALS),
            str(NMSE_CUTOFF)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload failed in {tree}: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout)


def paired_move(base, change) -> dict:
    """Mean paired difference of two trial-ordered NMSE lists, with its 99% CI.

    The CI comes from the delta method on log(mean change / mean base) and is
    mapped back to a difference of means, so it contains 0 exactly when the
    ratio's CI contains 1. The variance of the log ratio is taken as the
    variance of b/mean_b - c/mean_c, which equals criterion 08's
    var_b/mean_b^2 - 2 cov/(mean_b mean_c) + var_c/mean_c^2 but does not
    cancel to 0 when the two sides differ at round-off.
    """
    b = np.asarray(base, dtype=float)
    c = np.asarray(change, dtype=float)
    mean_b, mean_c = float(b.mean()), float(c.mean())
    var_log = float(np.var(b / mean_b - c / mean_c, ddof=1)) / b.size if b.size > 1 else 0.0
    half = CI99_FACTOR * math.sqrt(var_log)
    ratio = mean_c / mean_b
    scale = np.maximum(np.abs(b), np.abs(c))
    moves = np.divide(np.abs(c - b), scale, out=np.zeros_like(b), where=scale > 0)
    return {
        "base_mean": mean_b,
        "diff": mean_c - mean_b,
        "low": mean_b * (ratio * math.exp(-half) - 1.0),
        "high": mean_b * (ratio * math.exp(half) - 1.0),
        "max_rel": float(moves.max()),
        "moved": bool((b != c).any()),
    }


def _grid_key(p: dict) -> tuple:
    return (p["figure"], p["bits"], p["n"], p["m"], p["k"], p["method"])


def _cell_key(c: dict) -> tuple:
    return (c["delta"], c["rho"], c["method"])


def compare(base: dict, change: dict) -> tuple:
    """(report lines, whether the rule holds) for two sides' statistics."""
    lines = []
    ok = True
    grid_b = {_grid_key(p): p for p in base["grid"]}
    grid_c = {_grid_key(p): p for p in change["grid"]}
    if grid_b.keys() != grid_c.keys():
        lines.append("grid points differ between the sides")
        ok = False
    moved = outside = 0
    worst_rel = worst_share = 0.0
    for key in sorted(grid_b.keys() & grid_c.keys()):
        pb, pc = grid_b[key], grid_c[key]
        name = "{} {}-bit n={} m={} k={} {}".format(*key)
        gained = pc["nonconverged"] - pb["nonconverged"]
        if gained > 0:
            ok = False
            lines.append(f"{name}: FAIL, non-converged trials {pb['nonconverged']} -> "
                         f"{pc['nonconverged']}")
        move = paired_move(pb["trial_nmse"], pc["trial_nmse"])
        if not move["moved"]:
            continue
        moved += 1
        excludes_zero = move["low"] > 0.0 or move["high"] < 0.0
        half = pb["ci99"]
        share = abs(move["diff"]) / half if half > 0.0 else math.inf
        worst_rel = max(worst_rel, move["max_rel"])
        worst_share = max(worst_share, share)
        verdict = "inside"
        if excludes_zero:
            outside += 1
            verdict = "outside, under a tenth of the CI" if share < 0.1 else "FAIL"
            ok = ok and share < 0.1
        lines.append(
            f"{name}: mean {move['base_mean']:.6g} moved {move['diff']:+.3g}, "
            f"paired 99% CI [{move['low']:+.3g}, {move['high']:+.3g}] ({verdict}), "
            f"{share:.2g} of the 99% CI half-width, largest trial move "
            f"{move['max_rel']:.3g}, non-converged {gained:+d}"
        )

    cells_b = {_cell_key(c): c for c in base["fig5"]}
    cells_c = {_cell_key(c): c for c in change["fig5"]}
    cells_moved = crossed = 0
    for key in sorted(cells_b.keys() | cells_c.keys()):
        name = "fig5 delta={:.2f} rho={:.2f} {}".format(*key)
        if key not in cells_b or key not in cells_c:
            crossed += 1
            side = "base" if key in cells_b else "change"
            lines.append(f"{name}: only in {side} (the other side stopped the column "
                         "at the cutoff)")
            continue
        cb, cc = cells_b[key], cells_c[key]
        if key[2] != "biht" and cc["nonconverged"] > cb["nonconverged"]:
            ok = False
            lines.append(f"{name}: FAIL, non-converged trials {cb['nonconverged']} -> "
                         f"{cc['nonconverged']}")
        if cb["mean_nmse"] == cc["mean_nmse"]:
            continue
        cells_moved += 1
        cross = (cb["mean_nmse"] > NMSE_CUTOFF) != (cc["mean_nmse"] > NMSE_CUTOFF)
        crossed += cross
        rel = abs(cc["mean_nmse"] - cb["mean_nmse"]) / max(cb["mean_nmse"], cc["mean_nmse"])
        lines.append(f"{name}: mean {cb['mean_nmse']:.6g} -> {cc['mean_nmse']:.6g} "
                     f"(relative {rel:.3g}){', crosses the cutoff' if cross else ''}")

    lines.append(
        f"grid: {len(grid_b)} (point, method) pairs, {moved} moved, {outside} with a "
        f"paired CI that excludes 0; largest trial move {worst_rel:.3g}, largest mean "
        f"move {worst_share:.2g} of the 99% CI half-width"
    )
    lines.append(f"fig5: {len(cells_b)} -> {len(cells_c)} cells, {cells_moved} moved, "
                 f"{crossed} across the cutoff")
    lines.append("rule " + ("holds" if ok else "FAILS"))
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the parent")
    parser.add_argument("change", nargs="?", default="HEAD", help="git revision of the change")
    args = parser.parse_args(argv)
    sides = ("base", "change")
    commits = {side: git("rev-parse", getattr(args, side)) for side in sides}
    stats = {}
    with tempfile.TemporaryDirectory(prefix="paired_") as tmp:
        for side in sides:
            tree = os.path.join(tmp, side)
            export(commits[side], tree)
            stats[side] = collect(tree)
    threads = blas_threads(sys.executable).get("openblas_threads")
    print(f"{commits['base'][:12]} -> {commits['change'][:12]}, OpenBLAS threads {threads}, "
          f"seed 0, grid {GRID_TRIALS} trials, fig5 {FIG5_TRIALS} trials")
    lines, ok = compare(stats["base"], stats["change"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
