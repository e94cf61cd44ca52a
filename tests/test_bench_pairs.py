"""The pair summary of the benchmark script, tools/bench_pairs.py."""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py"
)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "converged_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
    {"name": "gain_ratio", "unit": "ratio", "better": "higher", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _pair(base, change):
    return {"base": {"metrics": base}, "change": {"metrics": change}}


def _planted():
    pairs = []
    for i in range(10):
        base = {"wall_s": 1.0 + 0.01 * i, "peak_rss_mb": 70.0,
                "converged_frac": 1.0, "gain_ratio": 1.5, "setup_s": 0.0}
        change = {"wall_s": 0.8 + 0.01 * i, "peak_rss_mb": 80.0,
                  "converged_frac": 0.98, "gain_ratio": 1.3, "setup_s": 0.0}
        if i == 9:  # the one pair the change loses on wall time
            change["wall_s"] = 2.0
        pairs.append(_pair(base, change))
    # a failed run counts in neither side's numbers nor in the pairs
    pairs.append({"base": {"error": "exit 1"}, "change": {"metrics": dict(change)}})
    return pairs


def test_summary_counts_wins_and_the_gain_rule(summarize):
    wall = summarize(_planted(), END_TO_END)["wall_s"]
    assert wall["pairs"] == 10
    assert wall["wins"] == 9
    assert wall["base"]["median"] == pytest.approx(1.045)
    assert wall["median_gain"] > wall["base_iqr"]
    assert wall["claim_met"] is True
    assert wall["regressed"] is False


def test_summary_flags_moves_beyond_the_bound(summarize):
    summary = summarize(_planted(), END_TO_END)
    # 70 -> 80 MB is 14% worse against a 10% bound.
    assert summary["peak_rss_mb"]["regressed"] is True
    assert summary["peak_rss_mb"]["claim_met"] is False
    # higher-better: 1.0 -> 0.98 is 2% worse against 1%; 1.5 -> 1.3 is 13%
    # worse against 15%.
    assert summary["converged_frac"]["regressed"] is True
    assert summary["gain_ratio"]["regressed"] is False
    assert summary["gain_ratio"]["bound"] == 0.15
    # equal medians never regress, even at 0
    assert summary["setup_s"]["regressed"] is False
    assert summary["setup_s"]["wins"] == 0


def test_summary_flags_any_worsening_from_a_zero_median(summarize):
    pairs = [_pair({"setup_s": 0.0}, {"setup_s": 0.001}) for _ in range(3)]
    entry = summarize(pairs, END_TO_END[-1:])["setup_s"]
    assert entry["regressed"] is True


def test_summary_skips_metrics_without_runs(summarize):
    pairs = [{"base": {"error": "exit 1"}, "change": {"error": "exit 1"}}]
    assert summarize(pairs, END_TO_END) == {}
