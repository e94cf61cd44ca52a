"""
Quantization as correlated noise: the gain-plus-additive-noise model
====================================================================

A scalar quantizer applied to Gaussian measurements behaves like a linear
attenuation plus uncorrelated noise: Q(ybar) = alpha * ybar + r with
alpha = 1 - sigma_q^2 / sigma_ybar^2. This demo designs quantizers at
several bit depths, fits the model by Monte Carlo, and verifies the
variance identities that the reconstruction methods rely on.
"""

import numpy as np

from corrcs.quantizers import (
    design_lloyd_max,
    design_uniform_mmse,
    fit_gain_model,
    gain_model_analytic,
    quantize,
)

rng = np.random.default_rng(0)

# The correlation gain alpha per design and bit depth: closed-form Gaussian
# cell integrals against a million-sample Monte-Carlo fit.
print("design      bits  alpha (analytic)  alpha (sampled)")
for design, build in (("lloyd-max", design_lloyd_max), ("uniform", design_uniform_mmse)):
    for bits in (1, 3, 5):
        q = build(bits, 1.0)
        exact = gain_model_analytic(q, 1.0)
        fit = fit_gain_model(q, 1.0, 1_000_000, rng)
        print(f"{design:<11} {bits:>4}  {exact.alpha:.10f}    {fit.alpha:.6f}")

# The 1-bit case is fully closed-form: both designs reduce to levels at
# +-sqrt(2/pi) and alpha = 2/pi.
one_bit = design_lloyd_max(1, 1.0)
print(f"\n1-bit levels {one_bit.levels} vs +-sqrt(2/pi) = {np.sqrt(2 / np.pi):.10f}")
print(f"1-bit alpha {gain_model_analytic(one_bit, 1.0).alpha:.10f} vs 2/pi = {2 / np.pi:.10f}")

# Variance bookkeeping: the total noise n = Q(ybar) - ybar has power
# sigma_n^2 = (alpha - 1)^2 sigma_ybar^2 + sigma_r^2, and the residual
# power is sigma_r^2 = alpha (1 - alpha) sigma_ybar^2. Together these give
# sigma_n^2 = (1 - alpha) sigma_ybar^2 = sigma_q^2: the distortion splits
# into a deterministic attenuation part plus white residual.
sigma_ybar_sq = 2.5
q3 = design_lloyd_max(3, np.sqrt(sigma_ybar_sq))
model = gain_model_analytic(q3, sigma_ybar_sq)
total = (model.alpha - 1.0) ** 2 * sigma_ybar_sq + model.sigma_r_sq
print(f"\n3-bit at sigma_ybar^2 = {sigma_ybar_sq}:")
print(f"  sigma_q^2 = {model.sigma_q_sq:.6f}")
print(f"  (alpha-1)^2 sigma_ybar^2 + sigma_r^2 = {total:.6f}")

# The same identities hold empirically: quantize a large Gaussian sample and
# regress the output on the input.
ybar = rng.normal(0.0, np.sqrt(sigma_ybar_sq), 1_000_000)
out = quantize(q3, ybar)
alpha_hat = float(ybar @ out / (ybar @ ybar))
residual = out - alpha_hat * ybar
print(f"  regression slope  {alpha_hat:.6f} (model {model.alpha:.6f})")
print(f"  residual power    {residual.var():.6f} (model {model.sigma_r_sq:.6f})")
print(f"  cross-correlation {float(residual @ ybar) / ybar.size:+.2e} (model 0)")
