"""
Recovering a sparse signal from quantized measurements
======================================================

One reconstruction instance end to end: a K-sparse signal measured through
a Gaussian matrix, 1-bit quantized with automatic gain control, then
recovered three ways -- ordinary basis pursuit denoising (which ignores the
attenuation), and the correlation-corrected variant via both of its
equivalent implementations (scaling the matrix before solving, or dividing
the solution afterward).
"""

import numpy as np

from corrcs.bpdn import (
    BpdnProblem,
    epsilon_rule,
    solve_bpdn,
    solve_post_scaled,
    solve_scaled_matrix,
)
from corrcs.experiments import improvement_db, nmse
from corrcs.quantizers import design_lloyd_max, gain_model_analytic, quantize
from corrcs.siggen import InstanceConfig, generate_ensemble, generate_signal, purpose_rng

n, m, k = 1000, 400, 41
cfg = InstanceConfig(n=n, m=m, k=k, master_seed=42, trial_index=0)
x = generate_signal(cfg, purpose_rng(cfg, "signal"))
a = generate_ensemble(cfg, purpose_rng(cfg, "matrix")).system_matrix
ybar = a @ x
print(f"instance: N={n}, M={m}, K={k}, ||x|| = {np.linalg.norm(x):.4f}")

# 1-bit quantization with gain control: the quantizer is designed at unit
# scale and applied at the realized measurement scale sigma_t = ||x||/sqrt(M)
# (the entries of ybar are N(0, ||x||^2/M) given x).
quantizer = design_lloyd_max(1, 1.0)
sigma_t = float(np.linalg.norm(x)) / np.sqrt(m)
y = sigma_t * quantize(quantizer, ybar / sigma_t)
print(f"measurements quantized to {np.unique(y).size} distinct values")

# The gain model supplies alpha and the residual noise power, from which the
# residual-only radius follows; ordinary BPDN must budget for the full
# quantization error instead. alpha is scale-invariant, so the unit-scale
# model applies with variances rescaled by sigma_t^2.
model = gain_model_analytic(quantizer, 1.0)
alpha = model.alpha
eps_full = epsilon_rule(m, sigma_t * np.sqrt(model.sigma_q_sq))
eps_residual = epsilon_rule(m, sigma_t * np.sqrt(model.sigma_r_sq))
print(f"alpha = {alpha:.6f}, eps_full = {eps_full:.4f}, eps_residual = {eps_residual:.4f}")

# Ordinary BPDN: treat y as alpha-free measurements with the full error budget.
plain = solve_bpdn(BpdnProblem(a, y, eps_full))

# Correlation-corrected: solve against the attenuated matrix alpha*A with
# only the residual budget...
pre = solve_scaled_matrix(BpdnProblem(a, y, eps_residual), alpha)

# ...or solve against A and divide the solution by alpha. The two routes
# solve the same convex program up to reparameterization.
post = solve_post_scaled(BpdnProblem(a, y, eps_residual), alpha)

p_plain, p_pre, p_post = (nmse(r.solution, x) for r in (plain, pre, post))
print(f"\nordinary BPDN        NMSE {p_plain:.5f}")
print(f"scaled matrix route  NMSE {p_pre:.5f}")
print(f"post-scaling route   NMSE {p_post:.5f}")
print(f"route agreement      {abs(improvement_db(p_pre, p_post)):.5f} dB")
print(f"correction gain      {improvement_db(p_plain, p_pre):.2f} dB")
