"""Instance generation: distribution checks, determinism, benchmark grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcs.siggen import (
    BENCHMARK_N,
    InstanceConfig,
    benchmark_grid,
    generate_ensemble,
    generate_signal,
    purpose_rng,
)


def _cfg(n=1000, m=200, k=1, seed=42, trial=0):
    return InstanceConfig(n=n, m=m, k=k, master_seed=seed, trial_index=trial)


def test_signal_zero_sparsity_gives_zero_vector():
    cfg = _cfg(n=50, m=10, k=0)
    x = generate_signal(cfg, purpose_rng(cfg, "signal"))
    assert np.array_equal(x, np.zeros(50))


def test_signal_full_sparsity_is_dense():
    cfg = _cfg(n=40, m=40, k=40)
    x = generate_signal(cfg, purpose_rng(cfg, "signal"))
    assert np.count_nonzero(x) == 40


def test_first_benchmark_point_has_one_nonzero():
    cfg = _cfg(n=1000, m=200, k=1)
    x = generate_signal(cfg, purpose_rng(cfg, "signal"))
    assert np.count_nonzero(x) == 1


def test_signal_support_size_exact_across_trials():
    for trial in range(20):
        cfg = _cfg(n=120, m=60, k=17, trial=trial)
        x = generate_signal(cfg, purpose_rng(cfg, "signal"))
        assert np.count_nonzero(x) == 17


def test_signal_normalization():
    cfg = _cfg(n=64, m=32, k=5)
    x = generate_signal(cfg, purpose_rng(cfg, "signal"), normalize=True)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, n))
    k = draw(st.integers(0, m))
    seed = draw(st.integers(0, 2**64 - 1))
    trial = draw(st.integers(0, 2**31))
    return InstanceConfig(n=n, m=m, k=k, master_seed=seed, trial_index=trial)


@settings(max_examples=200, deadline=None)
@given(cfg=_instances(), normalize=st.booleans())
def test_signal_properties(cfg, normalize):
    x = generate_signal(cfg, purpose_rng(cfg, "signal"), normalize=normalize)
    assert x.shape == (cfg.n,)
    assert np.count_nonzero(x) == cfg.k
    again = generate_signal(cfg, purpose_rng(cfg, "signal"), normalize=normalize)
    assert x.tobytes() == again.tobytes()
    if normalize and cfg.k > 0:
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_ensemble_entry_statistics():
    cfg = _cfg(n=1000, m=1000, k=1)
    ensemble = generate_ensemble(cfg, purpose_rng(cfg, "matrix"))
    a = ensemble.system_matrix
    assert abs(a.mean()) < 0.001
    assert a.var() == pytest.approx(1.0 / 1000, rel=0.02)


def test_benchmark_grid_contents():
    grid = benchmark_grid()
    assert grid[0] == (200, 1)
    assert grid[-1] == (1000, 542)
    assert len(grid) == 9
    assert BENCHMARK_N == 1000


def test_same_seed_and_trial_bit_identical():
    cfg_a = _cfg(seed=7, trial=3)
    cfg_b = _cfg(seed=7, trial=3)
    xa = generate_signal(cfg_a, purpose_rng(cfg_a, "signal"))
    xb = generate_signal(cfg_b, purpose_rng(cfg_b, "signal"))
    assert np.array_equal(xa, xb)
    ea = generate_ensemble(cfg_a, purpose_rng(cfg_a, "matrix"))
    eb = generate_ensemble(cfg_b, purpose_rng(cfg_b, "matrix"))
    assert np.array_equal(ea.system_matrix, eb.system_matrix)


def test_different_trials_differ():
    cfg_a = _cfg(seed=7, trial=0)
    cfg_b = _cfg(seed=7, trial=1)
    xa = generate_signal(cfg_a, purpose_rng(cfg_a, "signal"))
    xb = generate_signal(cfg_b, purpose_rng(cfg_b, "signal"))
    assert not np.array_equal(xa, xb)


def test_purpose_streams_are_independent():
    cfg = _cfg(n=100, m=50, k=50)
    draws_signal = purpose_rng(cfg, "signal").standard_normal(100)
    draws_matrix = purpose_rng(cfg, "matrix").standard_normal(100)
    draws_noise = purpose_rng(cfg, "noise").standard_normal(100)
    assert not np.array_equal(draws_signal, draws_matrix)
    assert not np.array_equal(draws_matrix, draws_noise)


def test_unknown_purpose_rejected():
    with pytest.raises(KeyError):
        purpose_rng(_cfg(), "weather")


def test_config_validation():
    with pytest.raises(ValueError):
        InstanceConfig(n=10, m=11, k=1, master_seed=0)  # m > n
    with pytest.raises(ValueError):
        InstanceConfig(n=10, m=5, k=6, master_seed=0)  # k > m
    with pytest.raises(ValueError):
        InstanceConfig(n=10, m=5, k=1, master_seed=-1)
    with pytest.raises(ValueError):
        InstanceConfig(n=10, m=5, k=1, master_seed=0, trial_index=-1)
