"""Sparse recovery from measurements whose noise is correlated with the signal.

Coarse quantization (and any other distortion whose error tracks the
measurement amplitude) produces noise of the form y = alpha*ybar + w, with
ybar the noiseless measurements, 0 < alpha <= 1, and w uncorrelated with
ybar. Standard l1 recovery treats y - ybar as the noise and pays for the
full quantization error; dividing a recovery of alpha*x by alpha - with the
fidelity radius sized to the uncorrelated part only - removes the correlated
component and measurably lowers the reconstruction error. This package
provides the noise model, minimum-distortion scalar quantizers and their
gain models, the l1 solver with its scaled variants, a 1-bit baseline, a
derivative-free (beta, epsilon) tuner, and a Monte-Carlo harness that
reproduces the published benchmark numbers. Callers import from the
submodules (corrcs.experiments, corrcs.quantizers, ...); the package itself
defines only __version__.
"""

__version__ = "0.1.0"
