"""Tests of the benchmark itself (not of corrcs).

    python3 -m pytest perfbench/tests

Run from the repository root. The smoke runs use one trial per recipe and a
0.1 s budget, so every workload makes the fewest calls its mode allows.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import OUT_DIR, import_program  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, check, fig5_columns, read_output  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@functools.cache
def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--trials", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tag = f"{workload}-seed3-trace{trace}"
    return {"lines": lines, "result": json.loads(lines[-1]), "tag": tag}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    run = smoke(workload, trace)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        # the human-readable lines above the result carry the same name and unit
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in run["lines"]
        )
    assert any(line.startswith("env ") for line in run["lines"])


def test_pool_starts_zero_without_a_pool():
    for workload in ("fig3-grid", "table-tune"):
        metrics = smoke(workload, 1)["result"]["metrics"]
        assert metrics["experiments.pool_starts"]["value"] == 0
    assert smoke("fig5-phase", 1)["result"]["metrics"]["experiments.pool_starts"]["value"] > 0


@pytest.mark.parametrize("workload", ["table-tune", "fig5-phase"])
def test_trace_parses_and_spans_nest(workload):
    path = os.path.join(ROOT, OUT_DIR, smoke(workload, 1)["tag"] + "-spans.json")
    with open(path) as fh:
        traces = json.load(fh)
    assert "main" in traces
    for trace in traces.values():
        names = trace["names"]
        spans = trace["spans"]
        n = len(spans["name"])
        assert n > 0 and all(len(col) == n for col in spans.values())
        for i in range(n):
            assert 0 <= spans["name"][i] < len(names)
            assert spans["start"][i] <= spans["end"][i]
            p = spans["parent"][i]
            if p >= 0:
                assert spans["start"][p] <= spans["start"][i]
                assert spans["end"][i] <= spans["end"][p]
        duration = np.asarray(spans["end"]) - np.asarray(spans["start"])
        assert (self_times(np.asarray(spans["parent"]), duration) >= -1e-9).all()


def _copy_output(workload: str, tmp_path) -> str:
    name = WORKLOADS[workload].output
    src = os.path.join(ROOT, OUT_DIR, smoke(workload, 0)["tag"], "call0", name)
    shutil.copy(src, tmp_path / name)
    return str(tmp_path)


def _rewrite(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def test_check_rejects_corrupted_fig3_csv(tmp_path):
    workload = WORKLOADS["fig3-grid"]
    out = _copy_output("fig3-grid", tmp_path)
    rows = read_output(workload, out)
    assert check(workload, rows) == []
    reference = [
        [int(r["bits"]), int(r["m"]), r["method"], float(r["mean_nmse"]), 0.0] for r in rows
    ]
    assert check(workload, rows, reference) == []
    # swap the first point's two methods: bpdn-scale is no longer below bpdn
    first = [r for r in rows if r["bits"] == "1" and r["m"] == "200"]
    nmse = {r["method"]: r["mean_nmse"] for r in first}
    bpdn, scaled = nmse["bpdn"], nmse["bpdn-scale"]
    path = os.path.join(out, workload.output)
    _rewrite(path, scaled, "SCALED")
    _rewrite(path, bpdn, scaled)
    _rewrite(path, "SCALED", bpdn)
    assert any("not below" in p for p in check(workload, read_output(workload, out)))
    _rewrite(path, bpdn, "nan")
    assert any("non-finite" in p for p in check(workload, read_output(workload, out)))


def test_check_rejects_corrupted_fig5_csv(tmp_path):
    workload = WORKLOADS["fig5-phase"]
    out = _copy_output("fig5-phase", tmp_path)
    rows = read_output(workload, out)
    assert check(workload, rows, fig5_columns(rows)) == []
    path = os.path.join(out, workload.output)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:1] + lines[2:])  # drop one cell
    assert check(workload, read_output(workload, out), fig5_columns(rows)) != []


def test_check_rejects_corrupted_tuning_json(tmp_path):
    workload = WORKLOADS["table-tune"]
    out = _copy_output("table-tune", tmp_path)
    row = read_output(workload, out)
    assert check(workload, row) == []
    row["nmse_at_optimum"] = row["nmse_at_alpha"] * 1.01
    with open(os.path.join(out, workload.output), "w") as fh:
        json.dump(row, fh)
    assert check(workload, read_output(workload, out)) != []


def test_fig5_csv_identical_across_worker_counts(tmp_path):
    cli = import_program(ROOT)
    workload = WORKLOADS["fig5-phase"]
    data = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(workload.argv(5, out, trials=1, workers=workers)) == 0
        with open(os.path.join(out, workload.output), "rb") as fh:
            data.append(fh.read())
    assert data[0] == data[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
