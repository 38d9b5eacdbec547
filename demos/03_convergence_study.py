"""How fast the truncated expansion closes in on its limit.

Nested noise bundles let the truncation error be measured on a single
realization: growing N only appends series terms, never redraws noise.
This script runs the convergence-rate campaign at its defaults, which
is acceptance criterion 6's campaign: rungs N = 32 ... 8192, 32 seeds.
It prints the fitted sup-error slopes, which should track -min(H, 1-H).
A ladder topped at 2048 runs about four times faster but reads H = 0.7
at -0.55, outside the band: its reference rung sits too close to the
fitted ones.

Run:  python demos/03_convergence_study.py   (about 5 s on 2 CPUs)
"""

from fbmhaar import (
    HurstParams,
    draw_bundle,
    eval_w,
    run_rate_campaign,
)

# One realization, increasingly fine truncations of the same noise.
p = HurstParams(0.35)
print("value at t = 0.62 under nested truncations (one realization):")
previous = None
for n in (64, 256, 1024, 4096):
    # a larger N draws a bundle that begins with the smaller one
    bundle = draw_bundle(11, n)
    value = eval_w(0.62, p, n, bundle)
    step = "" if previous is None else f"  (moved {abs(value - previous):.2e})"
    print(f"  N={n:>5}: {value:.8f}{step}")
    previous = value

# Median sup-error slopes over 32 seeds.  Two details matter, both
# handled by the campaign defaults: the sup grid must resolve scales
# finer than the largest fitted truncation, and the reference rung must
# sit well above the fitted rungs (it absorbs part of the measured error
# otherwise, most visibly for H > 1/2 whose series converges slowest).
# The H = 0.7 slope genuinely sits near the steep edge of the band at
# desk scale: the fast-decaying near-past error is still mixed into the
# sup on these ladders.
report = run_rate_campaign(h_set=(0.3, 0.5, 0.7), n_seeds=32)
print("\nfitted sup-error slopes (target -min(H, 1-H), band +/-0.2):")
for record in report.records:
    print(f"  {record.name}: slope {record.observed:+.3f} "
          f"(target {record.target:+.2f}) "
          f"{'ok' if record.passed else 'outside band'}")
fits = report.parameters["fits"]
for h, fit in fits.items():
    errs = "  ".join(f"{e:.4f}" for e in fit["errors"])
    print(f"  H={h}: median sup-errors along the ladder: {errs}")
