"""The benchmark's workloads: the CLI flags of each recipe, how to read its
output, its correctness check, and its failure and quality figures.

Every workload is one `corrcs.cli.main` call on the recipe's own flags plus
`--seed` and `--out`. The trial counts are the benchmark's choice: large
enough that the checks below hold for every seed tried, small enough that a
measured run repeats the call at least twice.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

CUTOFF = 1.0  # the NMSE cutoff `reproduce --figure fig5` passes to the sweep
FIG3_POINTS = 9
FIG3_BITS = ("1", "3", "5")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple  # the recipe's flags, without --trials, --seed and --out
    trials: int
    design_bits: tuple  # Lloyd-Max bit depths the recipe designs (set-up probe)
    output: str  # file the recipe writes under --out, which the check reads

    @property
    def pooled(self) -> bool:
        return "--workers" in self.flags and self.flags[self.flags.index("--workers") + 1] != "1"

    @property
    def counts_solves(self) -> bool:
        """The recipe's JSON output has no per-solve record, so solves are
        counted where `corrcs.experiments` calls solve_bpdn."""
        return self.output.endswith(".json")

    def argv(self, seed: int, out_dir: str, trials=None, workers=None) -> list:
        """The recipe's flags for one call; `trials`/`workers` override the workload's."""
        flags = list(self.flags)
        if workers is not None:
            flags[flags.index("--workers") + 1] = str(workers)
        trials = self.trials if trials is None else trials
        target = os.path.join(out_dir, self.output) if self.output.endswith(".json") else out_dir
        return flags + ["--trials", str(trials), "--seed", str(seed), "--out", target]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig3-grid",
            ("reproduce", "--figure", "fig3", "--scale", "desk", "--workers", "1"),
            trials=2,
            design_bits=(1, 3, 5),
            output="fig3.csv",
        ),
        Workload(
            "fig5-phase",
            ("reproduce", "--figure", "fig5", "--scale", "desk", "--workers", "2"),
            trials=1,
            design_bits=(1,),
            output="fig5.csv",
        ),
        Workload(
            "table-tune",
            ("optimize-beta-epsilon", "--m", "400", "--k", "41", "--bits", "1"),
            trials=3,
            design_bits=(1,),
            output="tune.json",
        ),
    )
}


def read_output(workload: Workload, out_dir: str):
    """The recipe's result: CSV rows as dicts, or the tuning JSON object."""
    path = os.path.join(out_dir, workload.output)
    with open(path, newline="") as fh:
        if workload.output.endswith(".json"):
            return json.load(fh)
        return list(csv.DictReader(fh))


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def check(workload: Workload, result, reference=None) -> list:
    """Problems found in a recipe's output; an empty list means it passed.

    `reference` is this seed's entry of reference.json when the run uses the
    trial count the reference was recorded at, else None.
    """
    if workload.name == "table-tune":
        return _check_tune(result)
    if not result:
        return ["output has no rows"]
    problems = [
        f"row {i}: non-finite {key} {row.get(key)!r}"
        for i, row in enumerate(result)
        for key in ("mean_nmse", "ci99")
        if not _finite(row.get(key))
    ]
    if problems:
        return problems
    if workload.name == "fig3-grid":
        return _check_fig3(result, reference)
    return _check_fig5(result, reference)


def _check_fig3(rows, reference) -> list:
    problems = []
    nmse = {(r["bits"], r["m"], r["method"]): float(r["mean_nmse"]) for r in rows}
    expected = FIG3_POINTS * len(FIG3_BITS) * 2
    if len(rows) != expected or len(nmse) != expected:
        problems.append(f"expected {expected} distinct rows, got {len(rows)}")
    for (bits, m, method), value in sorted(nmse.items()):
        if method != "bpdn":
            continue
        scaled = nmse.get((bits, m, "bpdn-scale"))
        if scaled is None or not scaled < value:
            problems.append(
                f"bits={bits} m={m}: bpdn-scale NMSE {scaled} is not below bpdn {value}"
            )
    if reference is not None:
        ref = {(str(b), str(m), meth): (mean, ci) for b, m, meth, mean, ci in reference}
        if set(ref) != set(nmse):
            problems.append("grid points differ from the reference run")
        for key, (mean, ci99) in sorted(ref.items()):
            value = nmse.get(key)
            if value is not None and not abs(value - mean) <= ci99:
                problems.append(
                    f"bits={key[0]} m={key[1]} {key[2]}: mean {value} outside the "
                    f"reference 99% CI {mean} +/- {ci99}"
                )
    return problems


def fig5_columns(rows) -> dict:
    """The sweep's cells as {"<m> <method>": [k, ...]} in row order."""
    columns: dict = {}
    for r in rows:
        columns.setdefault(f"{r['m']} {r['method']}", []).append(int(r["k"]))
    return columns


def _check_fig5(rows, reference) -> list:
    """Within each delta column a method's rho ascends and only its last cell
    may exceed the cutoff; with a reference, the cell set matches it exactly."""
    problems = []
    columns: dict = {}
    for r in rows:
        if r["method"] not in ("bpdn-scale", "biht"):
            problems.append(f"unexpected method {r['method']!r}")
        columns.setdefault((r["m"], r["method"]), []).append(r)
    for (m, method), cells in sorted(columns.items()):
        rhos = [float(c["rho"]) for c in cells]
        if rhos != sorted(set(rhos)):
            problems.append(f"m={m} {method}: rho does not ascend")
        above = [i for i, c in enumerate(cells) if float(c["mean_nmse"]) > CUTOFF]
        if above and above != [len(cells) - 1]:
            problems.append(f"m={m} {method}: cells continue past the NMSE cutoff")
    if reference is not None and fig5_columns(rows) != reference:
        problems.append("the set of cells differs from the reference run")
    return problems


def _check_tune(row) -> list:
    keys = ("nmse_at_alpha", "nmse_at_optimum", "beta", "epsilon")
    bad = [k for k in keys if not _finite(row.get(k))]
    if bad:
        return [f"non-finite {k}" for k in bad]
    if not row["nmse_at_optimum"] <= row["nmse_at_alpha"]:
        return [
            f"nmse_at_optimum {row['nmse_at_optimum']} exceeds "
            f"nmse_at_alpha {row['nmse_at_alpha']}"
        ]
    return []


def l1_solves(result) -> tuple:
    """(attempted, non-converged) l1 solves read from the recipe's CSV.

    BIHT rows are left out: the 1-bit baseline stops at its iteration cap by
    design, which the CLI's own exit-code rule also ignores. The tuning
    recipe writes no per-solve record; its counts come from a counter.
    """
    rows = [r for r in result if r["method"] != "biht"]
    return sum(int(r["trials"]) for r in rows), sum(int(r["nonconverged"]) for r in rows)


def gain_ratio(workload: Workload, result) -> float:
    """How many times lower the corrected (or tuned) method's error is.

    fig3-grid: mean bpdn NMSE over mean bpdn-scale NMSE, 1-bit points.
    fig5-phase: mean BIHT NMSE over mean bpdn-scale NMSE, cells where both report.
    table-tune: NMSE at the default (alpha, reference radius) over the tuned NMSE.
    """
    if workload.name == "table-tune":
        return result["nmse_at_alpha"] / result["nmse_at_optimum"]
    if workload.name == "fig3-grid":
        one_bit = [r for r in result if r["bits"] == "1"]
        base = _mean(float(r["mean_nmse"]) for r in one_bit if r["method"] == "bpdn")
        corrected = _mean(float(r["mean_nmse"]) for r in one_bit if r["method"] == "bpdn-scale")
        return base / corrected
    cells: dict = {}
    for r in result:
        cells.setdefault((r["m"], r["k"]), {})[r["method"]] = float(r["mean_nmse"])
    both = [c for c in cells.values() if len(c) == 2]
    return _mean(c["biht"] for c in both) / _mean(c["bpdn-scale"] for c in both)
