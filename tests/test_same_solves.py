"""The instance comparison of the solver check, tools/same_solves.py."""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_solves.py"
)

RECORD = {
    "seed": 3, "m": 12, "n": 40, "scale": 1e4, "eps_ratio": 0.25,
    "solution": "aa", "iterations": 50, "converged": True,
    "l1": 2.0, "residual_ratio": 1.00001,
}


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("same_solves", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def test_equal_solves_are_not_listed(compare):
    # residual and l1 may differ only through their solution, which is equal
    assert compare([RECORD, dict(RECORD, seed=4)], [RECORD, dict(RECORD, seed=4)]) == []


@pytest.mark.parametrize(
    "change",
    [{"solution": "bb", "l1": 2.5}, {"iterations": 51}, {"converged": False}],
    ids=["solution", "iterations", "converged"],
)
def test_each_differing_field_lists_the_instance(compare, change):
    lines = compare([RECORD], [dict(RECORD, **change)])
    assert len(lines) == 1
    assert lines[0].startswith("3: 12x40 scale 1e+04 eps/||y|| 0.25: ")
    assert lines[0].endswith("FLIP") == ("converged" in change)


def test_a_listed_instance_shows_both_sides(compare):
    change = dict(RECORD, solution="bb", iterations=60, converged=False,
                  l1=1.5, residual_ratio=0.5)
    assert compare([RECORD], [change]) == [
        "3: 12x40 scale 1e+04 eps/||y|| 0.25: iterations 50 -> 60, "
        "residual/eps 1.00001 -> 0.5, l1 moved 0.25, converged True -> False  FLIP"
    ]


def test_records_must_pair_seed_by_seed(compare):
    with pytest.raises(ValueError):
        compare([RECORD], [dict(RECORD, seed=4)])
    with pytest.raises(ValueError):
        compare([RECORD], [])
