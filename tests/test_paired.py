"""The paired comparison of the statistics gate, tools/paired.py."""

import copy
import importlib.util
import os

import numpy as np
import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "paired.py"
)


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stats():
    """Two grid points of 8 trials and three fig5 cells, as `collect` returns them."""
    rng = np.random.default_rng(0)
    grid = []
    for m, k in ((200, 1), (400, 41)):
        trials = list(rng.uniform(0.05, 0.5, size=8))
        grid.append({
            "figure": "fig3", "bits": 1, "n": 1000, "m": m, "k": k, "method": "bpdn",
            "trial_nmse": trials,
            "ci99": float(2.5758 * np.std(trials, ddof=1) / np.sqrt(8)),
            "nonconverged": 0,
        })
    fig5 = [
        {"delta": 0.5, "rho": rho, "method": "bpdn-scale", "mean_nmse": value,
         "nonconverged": 0}
        for rho, value in ((0.05, 0.02), (0.1, 0.4), (0.15, 0.99))
    ]
    return {"grid": grid, "fig5": fig5}


def test_identical_statistics_pass(paired):
    lines, ok = paired.compare(_stats(), _stats())
    assert ok
    assert lines[-3].startswith("grid: 2 (point, method) pairs, 0 moved, 0 with")
    assert lines[-2] == "fig5: 3 -> 3 cells, 0 moved, 0 across the cutoff"


def test_a_one_percent_scaling_is_a_move_whose_ci_excludes_zero(paired):
    base = _stats()
    change = copy.deepcopy(base)
    for point in change["grid"]:
        point["trial_nmse"] = [1.01 * v for v in point["trial_nmse"]]
    move = paired.paired_move(base["grid"][0]["trial_nmse"], change["grid"][0]["trial_nmse"])
    assert move["moved"]
    assert move["diff"] == pytest.approx(0.01 * move["base_mean"], rel=1e-9)
    # every trial moved by the same factor, so the CI is the move itself
    assert 0.0 < move["low"] <= move["high"]
    assert move["low"] == pytest.approx(move["diff"], rel=1e-9)
    assert move["high"] == pytest.approx(move["diff"], rel=1e-9)
    assert move["max_rel"] == pytest.approx(0.01 / 1.01, rel=1e-9)
    lines, ok = paired.compare(base, change)
    assert "2 moved, 2 with a paired CI that excludes 0" in lines[-3]
    # these trials spread widely, so 1% is under a tenth of the half-width
    assert ok
    assert sum("(outside, under a tenth of the CI)" in line for line in lines) == 2


def test_a_move_past_a_tenth_of_the_ci_half_width_fails(paired):
    base = _stats()
    change = copy.deepcopy(base)
    change["grid"][0]["trial_nmse"] = [1.1 * v for v in base["grid"][0]["trial_nmse"]]
    lines, ok = paired.compare(base, change)
    assert not ok
    assert "(FAIL)" in lines[0]
    assert lines[-1] == "rule FAILS"


def test_a_move_with_a_ci_around_zero_passes(paired):
    base = _stats()
    change = copy.deepcopy(base)
    trials = change["grid"][0]["trial_nmse"]
    trials[0] *= 1.01
    trials[1] *= 0.99
    lines, ok = paired.compare(base, change)
    assert ok
    assert "1 moved, 0 with a paired CI that excludes 0" in lines[-3]
    assert "(inside)" in lines[0]


def test_a_point_that_gains_a_non_converged_trial_fails(paired):
    change = _stats()
    change["grid"][1]["nonconverged"] = 1
    lines, ok = paired.compare(_stats(), change)
    assert not ok
    assert lines[0] == "fig3 1-bit n=1000 m=400 k=41 bpdn: FAIL, non-converged trials 0 -> 1"
    assert lines[-1] == "rule FAILS"


def test_fig5_cells_that_move_or_cross_the_cutoff_are_listed(paired):
    change = _stats()
    change["fig5"][2]["mean_nmse"] = 1.01
    change["fig5"].append({"delta": 0.5, "rho": 0.2, "method": "bpdn-scale",
                           "mean_nmse": 1.2, "nonconverged": 0})
    lines, ok = paired.compare(_stats(), change)
    assert ok
    assert "fig5 delta=0.50 rho=0.15 bpdn-scale: mean 0.99 -> 1.01" in lines[0]
    assert lines[0].endswith(", crosses the cutoff")
    assert lines[1].startswith("fig5 delta=0.50 rho=0.20 bpdn-scale: only in change")
    assert lines[-2] == "fig5: 3 -> 4 cells, 1 moved, 2 across the cutoff"


def test_a_round_off_move_of_one_trial_has_a_ci_around_zero(paired):
    # the three-term form of the log-ratio variance cancels to 0 here, which
    # would give a zero-width CI that excludes 0
    base = _stats()
    change = copy.deepcopy(base)
    change["grid"][0]["trial_nmse"][3] *= 1.0 + 1e-11
    move = paired.paired_move(base["grid"][0]["trial_nmse"], change["grid"][0]["trial_nmse"])
    assert move["low"] < 0.0 < move["high"]
    lines, ok = paired.compare(base, change)
    assert ok and "(inside)" in lines[0]
