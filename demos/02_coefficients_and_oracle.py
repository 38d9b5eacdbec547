"""The three coefficient families and their quadrature cross-check.

Every path value is a dot product of closed-form coefficients with the
noise bundle.  The closed forms come from power antiderivatives; an
independent adaptive-quadrature oracle integrates the defining inner
products directly.  This script prints both routes side by side and then
shows the Parseval identity emerging from the partial sums.

Run:  python demos/02_coefficients_and_oracle.py
"""

import numpy as np

from fbmhaar import (
    CoefficientKind,
    HurstParams,
    coeff_matrix,
    quad_coefficient,
)

p = HurstParams(0.3)
t = 0.7

print(f"closed form vs quadrature at H={p.h}, t={t}")
print(f"{'kind':>5} {'n':>4} {'closed form':>22} {'quadrature':>22} {'diff':>9}")
for kind in CoefficientKind:
    for n in (0, 1, 5, 64, 255):
        closed = coeff_matrix(kind, np.array([t]), p, n, n)[0, 0]
        quad = quad_coefficient(kind, t, p, n)
        print(f"{kind.value:>5} {n:>4} {closed:>22.15f} {quad:>22.15f} "
              f"{abs(closed - quad):>9.1e}")

# Parseval: the squared coefficients of the near-past kernel sum to
# the exact squared norm t^{2H} / (2H).
print("\npartial Parseval sums against the exact norm")
limit = t ** (2 * p.h) / (2 * p.h)
sq = coeff_matrix(CoefficientKind.F1, np.array([t]), p, 0, 2**14)[0] ** 2
partial = np.cumsum(sq)
print(f"exact norm t^2H/(2H) = {limit:.10f}")
for n in (2**4, 2**6, 2**8, 2**10, 2**12, 2**14):
    print(f"  N={n:>6}: partial sum {partial[n]:.10f}  "
          f"(deficit {limit - partial[n]:.3e})")

# The deficit shrinks like N^(-2H).  At a generic t the per-level mass
# oscillates with the dyadic position of t, so the cleanest place to see
# the exponent is t = 1 (every level looks the same there); campaign-grade
# measurements average over many times instead.
sq1 = coeff_matrix(CoefficientKind.F1, np.array([1.0]), p, 0, 2**14)[0] ** 2
tail = 1.0 / (2 * p.h) - np.cumsum(sq1)
print(f"\nlog2 tail ratios at t=1 (should approach 2H = {2 * p.h}):")
for n in (2**6, 2**8, 2**10):
    print(f"  N={n:>5}: {np.log2(tail[n] / tail[2 * n]):.3f}")
