"""Closed-form Haar coefficients of the three kernel families.

The three families expand the pieces of the Mandelbrot-van Ness integral
over [0, t], [-1, 0] and (-inf, -1] respectively:

* F1: ``<f_t, H_n>`` with ``f_t(s) = (t - s)**(H - 1/2)`` on [0, t),
  zero elsewhere on [0, 1].
* F2: coefficients of ``(t - s)**(H - 1/2) - (-s)**(H - 1/2)`` on [-1, 0)
  against the translated basis, reduced by a change of variables to
  ``<(t + s)**(H - 1/2), H_n> - <s**(H - 1/2), H_n>`` on [0, 1].
* G: the inverse-time series ``g_n(t, H)`` obtained by folding the
  integral over (-inf, -1] into [0, 1]; see :func:`big_g` for the
  integrand whose tent-weighted integrals these are.

Everything is evaluated from the power antiderivatives in closed form;
quadrature lives in :mod:`fbmhaar.oracle` and is used only to verify.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .haar import dyadic_arrays

# |H - 1/2| at or below this is treated as exactly Brownian.
HALF_TOL = 1e-14
# Region where F2/G closed forms are still used but carry elevated
# cancellation error ~1e-16/|H - 1/2|; flagged in validation reports.
NEAR_HALF = 1e-6


@dataclass(frozen=True)
class HurstParams:
    """Hurst index with the derived constants used by every closed form.

    ``c_h`` is the Mandelbrot-van Ness normalization, chosen so that the
    expansion reproduces the fractional Brownian covariance
    (1/2)(s**2H + t**2H - |s-t|**2H); it equals 1 at H = 1/2.
    """

    h: float
    c_h: float = field(init=False)
    h_plus_half: float = field(init=False)
    h_minus_half: float = field(init=False)
    is_half: bool = field(init=False)

    def __post_init__(self):
        h = float(self.h)
        if not 0.0 < h < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
        is_half = abs(h - 0.5) <= HALF_TOL
        if is_half:
            c_h = 1.0
        else:
            c_h = math.sqrt(
                2.0 * h * math.gamma(1.5 - h)
                / (math.gamma(h + 0.5) * math.gamma(2.0 - 2.0 * h))
            )
        for name, value in (("h", h), ("c_h", c_h), ("h_plus_half", h + 0.5),
                            ("h_minus_half", h - 0.5), ("is_half", is_half)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_hurst(cls, h: float) -> "HurstParams":
        """Same as ``HurstParams(h)``."""
        return cls(h)

    @property
    def near_half(self) -> bool:
        """True when the F2/G closed forms are ill-conditioned (H close to
        but not at 1/2)."""
        return HALF_TOL < abs(self.h - 0.5) < NEAR_HALF


class CoefficientKind(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    G = "g"


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients 0..n_max of one family at fixed (t, H); immutable."""

    kind: CoefficientKind
    t: float
    params: HurstParams
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def _check_t(t: float) -> float:
    """``t`` as a float, or a ValueError naming what is wrong with it."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("times must be finite")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"times must lie in [0, 1], got {t}")
    return t


def _check_ts(ts) -> np.ndarray:
    """:func:`_check_t` for an array of times, as float64."""
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
        bad = ts[(ts < 0.0) | (ts > 1.0)][0]
        raise ValueError(f"times must lie in [0, 1], got {bad}")
    return ts


def _pos_pow(base: np.ndarray, c: float) -> np.ndarray:
    """base**c with negative bases clamped to zero (masked-out branches)."""
    return np.where(base > 0.0, base, 0.0) ** c


def f1_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """F1 coefficients, shape (len(ts), n_hi - n_lo + 1).

    Three regimes per index: support beyond t gives 0; support straddling
    t integrates only up to t (one or both half-intervals); support inside
    [0, t) uses the full four-power bracket, grouped as differences of
    adjacent powers to limit cancellation.
    """
    c = p.h_plus_half
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    out = np.empty((ts.shape[0], n_hi - n_lo + 1))
    col = 0
    if n_lo == 0:
        out[:, 0:1] = ts**c / c
        col = 1
        n_lo = 1
    if n_hi >= n_lo:
        _, _, amp, a, m, b = dyadic_arrays(n_lo, n_hi)
        pa = _pos_pow(ts - a, c)
        pm = _pos_pow(ts - m, c)
        pb = _pos_pow(ts - b, c)
        full = amp * ((pa - pm) - (pm - pb)) / c
        out[:, col:] = np.where(
            ts <= a,
            0.0,
            np.where(ts <= m, amp * pa / c,
                     np.where(ts <= b, amp * (pa - 2.0 * pm) / c, full)),
        )
    return out


def f2_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """F2 coefficients, shape (len(ts), n_hi - n_lo + 1); exactly zero at
    H = 1/2 where the kernel vanishes identically."""
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    if p.is_half:
        return np.zeros((ts.shape[0], n_hi - n_lo + 1))
    c = p.h_plus_half
    out = np.empty((ts.shape[0], n_hi - n_lo + 1))
    col = 0
    if n_lo == 0:
        out[:, 0:1] = ((ts + 1.0) ** c - ts**c - 1.0) / c
        col = 1
        n_lo = 1
    if n_hi >= n_lo:
        _, _, amp, a, m, b = dyadic_arrays(n_lo, n_hi)
        shifted = amp * (((ts + m) ** c - (ts + a) ** c)
                         - ((ts + b) ** c - (ts + m) ** c)) / c
        plain = amp * ((m**c - a**c) - (b**c - m**c)) / c
        out[:, col:] = shifted - plain
    return out


def g_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """Inverse-time series coefficients g_n, shape (len(ts), width).

    Each g_n combines two antiderivative identities on the half-intervals
    of the tent: in y = 1/x the x-weighted integral telescopes through
    ``(y**(H-1/2) - (t+y)**(H-1/2))/(H-1/2)`` (zero limit at y = inf), and
    the plain integral evaluates through :func:`_plain_antideriv`.
    Zero rows at t = 0; all-zero at H = 1/2 (callers drop the series).
    """
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    width = n_hi - n_lo + 1
    if p.is_half:
        return np.zeros((ts.shape[0], width))
    hm = p.h_minus_half
    out = np.empty((ts.shape[0], width))

    def phi(y):
        # (y**hm - (t+y)**hm)/hm, stable for large y
        return -(y**hm) * np.expm1(hm * np.log1p(ts / y)) / hm

    col = 0
    if n_lo == 0:
        out[:, 0:1] = phi(1.0)
        col = 1
        n_lo = 1
    if n_hi >= n_lo:
        _, k, amp, a, m, b = dyadic_arrays(n_lo, n_hi)
        interior = k > 0  # k == 0 touches x = 0 where 1/a and the a-term drop out
        a_safe = np.where(interior, a, 1.0)
        phi_a = np.where(interior, phi(1.0 / a_safe), 0.0)
        ix_left = phi(1.0 / m) - phi_a            # integral of G*x over [a, m]
        ix_right = phi(1.0 / b) - phi(1.0 / m)    # integral of G*x over [m, b]
        pa = _plain_antideriv(a_safe, ts, p)
        pm = _plain_antideriv(m, ts, p)
        pb = _plain_antideriv(b, ts, p)
        val = amp * (ix_left - ix_right) + amp * b * (pm - pb)
        val = val - np.where(interior, amp * a * (pa - pm), 0.0)
        out[:, col:] = val
    return np.where(ts == 0.0, 0.0, out)


def _plain_antideriv(x, ts, p: HurstParams):
    """Antiderivative F with integral of G over [a, b] equal to F(a) - F(b).

    Grouped so the z-independent constant cancels algebraically; the
    expm1/log1p form avoids amplifying rounding by x**-(H+1/2) at deep
    levels.
    """
    hm, c = p.h_minus_half, p.h_plus_half
    log_z = np.log1p(x * ts)
    bracket = (np.expm1(hm * log_z) - np.expm1(c * log_z) / c) / hm
    return x**-c * bracket


def big_g(t: float, p: HurstParams, x: float) -> float:
    """Folded far-past integrand ((t + 1/x)**(H-3/2) - (1/x)**(H-3/2)) / x**3.

    Defined for x > 0; identically zero when t = 0.
    """
    t = _check_t(t)
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if t == 0.0:
        return 0.0
    e = p.h - 1.5
    xi = 1.0 / x
    return ((t + xi) ** e - xi**e) * x**-3


_BLOCKS = {
    CoefficientKind.F1: f1_block,
    CoefficientKind.F2: f2_block,
    CoefficientKind.G: g_block,
}


def coeff_vector(kind: CoefficientKind, t: float, p: HurstParams,
                 n_max: int) -> CoefficientVector:
    """Coefficients 0..n_max of one family at one time."""
    t = _check_t(t)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return CoefficientVector(kind=kind, t=t, params=p,
                             values=_BLOCKS[kind](np.array([t]), p, 0, n_max)[0])


def coeff_matrix(kind: CoefficientKind, ts: np.ndarray, p: HurstParams,
                 n_lo: int, n_hi: int) -> np.ndarray:
    """Block over a time grid, shape (len(ts), n_hi - n_lo + 1); every
    path evaluation and campaign builds its coefficient rows here."""
    return _BLOCKS[kind](_check_ts(ts), p, n_lo, n_hi)
