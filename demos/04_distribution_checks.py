"""Distributional fidelity: covariance, marginals, Brownian limit.

The wavelet ensemble must match the fractional Brownian covariance
(1/2)(s^2H + t^2H - |s-t|^2H); the exact Cholesky sampler provides the
reference scale for how close a finite ensemble can get.  At H = 1/2 the
recent- and far-past components vanish and pure Brownian motion remains.

Run:  python demos/04_distribution_checks.py   (about 5 s on 2 CPUs)
"""

import numpy as np

from fbmhaar import (
    GeneratorConfig,
    HurstParams,
    cholesky_sample,
    generate_ensemble,
    run_brownian_campaign,
)
from fbmhaar.oracle import covariance_matrix

grid = np.array([0.25, 0.5, 0.75, 1.0])
n_paths = 4000

for h in (0.3, 0.7):
    config = GeneratorConfig(params=HurstParams(h),
                             n_terms=1023, seed=1, workers=0)
    values = generate_ensemble(grid, config, n_paths).values
    emp = values.T @ values / n_paths
    exact = covariance_matrix(grid, h)
    print(f"H={h}: max |empirical - exact| covariance entry "
          f"({n_paths} paths): {np.abs(emp - exact).max():.4f}")
    ovals = cholesky_sample(grid, h, 1, n_paths).values
    oemp = ovals.T @ ovals / n_paths
    print(f"        exact-sampler reference at the same size:     "
          f"{np.abs(oemp - exact).max():.4f}")

print("\nempirical vs analytic variance at each grid point (H=0.7):")
config = GeneratorConfig(params=HurstParams(0.7), n_terms=1023,
                         seed=1, workers=0)
values = generate_ensemble(grid, config, n_paths).values
for i, t in enumerate(grid):
    print(f"  t={t}: {values[:, i].var():.4f} vs {t ** 1.4:.4f}")

print("\nBrownian degeneration campaign (H = 1/2):")
report = run_brownian_campaign(n_paths=4000, n_terms=511, seed=3)
print(report.to_text())
