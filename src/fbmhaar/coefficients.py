"""Closed-form Haar coefficients of the three kernel families.

The three families expand the pieces of the Mandelbrot-van Ness integral
over [0, t], [-1, 0] and (-inf, -1] respectively:

* F1: ``<f_t, H_n>`` with ``f_t(s) = (t - s)**(H - 1/2)`` on [0, t),
  zero elsewhere on [0, 1].
* F2: coefficients of ``(t - s)**(H - 1/2) - (-s)**(H - 1/2)`` on [-1, 0)
  against the translated basis, reduced by a change of variables to
  ``<(t + s)**(H - 1/2), H_n> - <s**(H - 1/2), H_n>`` on [0, 1].
* G: the inverse-time series ``g_n(t, H)`` obtained by folding the
  integral over (-inf, -1] into [0, 1]: tent-weighted integrals of
  ``((t + 1/x)**(H - 3/2) - (1/x)**(H - 3/2)) / x**3``.

Everything is evaluated from the power antiderivatives in closed form;
quadrature lives in :mod:`fbmhaar.oracle` and is used only to verify.
A coefficient is a difference of antiderivatives at its wavelet's dyadic
points a, m and b, which neighbouring wavelets share, so the blocks
evaluate each antiderivative once per dyadic node and level (a coarser
level reads the nodes of a finer one that covers it) and form every
coefficient from slices of those node values.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .haar import _check_int, check_index, dyadic_arrays

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
        h = _check_real(self.h, "h")
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


def _check_kind(kind) -> CoefficientKind:
    """``kind`` itself, or a ValueError if it is not a CoefficientKind."""
    if not isinstance(kind, CoefficientKind):
        raise ValueError(f"kind must be a CoefficientKind, got {kind!r}")
    return kind


def _check_params(p, name: str = "p") -> HurstParams:
    """``p`` itself, or a ValueError naming ``name`` if it is not a
    HurstParams (a bare Hurst float would fail later, on an attribute)."""
    if not isinstance(p, HurstParams):
        raise ValueError(f"{name} must be a HurstParams, got {p!r}")
    return p


def _check_real(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is a
    real scalar: a ``numbers.Real`` other than a bool, or a 0-d array of
    one (``float()`` would also take strings and 1-element arrays)."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_t(t: float) -> float:
    """``t`` as a float, or the ValueError :func:`_check_real` or
    :func:`_check_ts` gives for it; one comparison when it is a valid
    float (NaN fails it too)."""
    t = float(t) if isinstance(t, float) else _check_real(t, "t")
    if not 0.0 <= t <= 1.0:
        _check_ts([t])
    return t


def _check_ts(ts) -> np.ndarray:
    """``ts`` as a float64 array, or a ValueError naming its shape unless
    it is 1-D, or if a time is not finite or, naming the first such time,
    lies outside [0, 1]."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {ts.shape}")
    # NaN fails both comparisons, so valid times take this one test
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
        if not np.all(np.isfinite(ts)):
            raise ValueError("times must be finite")
        bad = ts[(ts < 0.0) | (ts > 1.0)][0]
        raise ValueError(f"times must lie in [0, 1], got {bad}")
    return ts


def _levels(n_lo: int, n_hi: int, nodes):
    """Walk the wavelet levels of indices ``n_lo..n_hi``, finest first; the
    scaling index n = 0 belongs to no level and is left to the caller.

    ``nodes(x)`` evaluates a family's antiderivatives at the dyadic nodes
    ``x = i 2**-(j+1)`` that a level's shifts span and returns a tuple of
    arrays with the nodes on the last axis.  A level whose nodes lie on
    the grid last evaluated for a finer level reads the nodes and their
    values from it by striding, since those nodes are the same floats;
    only a level off that grid builds a grid of its own.  Yields the
    level's columns (relative to ``n_lo``), ``amp``, ``a`` and ``b``, and
    for each node array its (a, m, b) views.
    """
    grid = None  # (level, first node index, nodes, node arrays)
    for j in range(n_hi.bit_length() - 1, max(n_lo, 1).bit_length() - 2, -1):
        lo, hi = max(n_lo, 1 << j), min(n_hi, (2 << j) - 1)
        first, last = 2 * (lo - (1 << j)), 2 * (hi - (1 << j)) + 2
        view = None
        if grid is not None:
            level, start, x, _ = grid
            s = 1 << (level - j)
            i0, i1 = first * s - start, last * s - start
            if i0 >= 0 and i1 < x.size:
                view = slice(i0, i1 + 1, s)
        if view is None:
            _, _, _, a, m, b = dyadic_arrays(lo, hi)
            x = np.empty(last - first + 1)
            x[:-1:2] = a
            x[1::2] = m
            x[-1] = b[-1]
            grid = (j, first, x, nodes(x))
            view = slice(None)
        _, _, x, arrays = grid
        x, vals = x[view], [v[..., view] for v in arrays]
        yield (slice(lo - n_lo, hi - n_lo + 1), 2.0 ** (j / 2),
               x[:-1:2], x[2::2],
               [(v[..., :-1:2], v[..., 1::2], v[..., 2::2]) for v in vals])


def f1_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """F1 coefficients, shape (len(ts), n_hi - n_lo + 1).

    The node values are the clamped powers ``(t - x)_+**c``; a wavelet's
    coefficient is the four-power bracket over its a, m and b, grouped as
    differences of adjacent powers to limit cancellation.  Support beyond
    t clamps all three powers to zero and support straddling t clamps the
    ones past it, so one bracket serves every index.  The power is taken
    only on the nodes up to the latest t: past it every clamped value is
    already the power's exact 0.0, and ``np.power`` costs several times
    more on zeros than on positive arguments.
    """
    c = p.h_plus_half
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    t_max = ts.max(initial=0.0)
    out = np.empty((ts.shape[0], n_hi - n_lo + 1))
    if n_lo == 0:
        out[:, 0:1] = ts**c / c

    def nodes(x):
        d = ts - x
        np.maximum(d, 0.0, out=d)
        # x ascends; the nodes past t_max give t - x < 0 in every row
        live = d[:, :np.searchsorted(x, t_max, side="right")]
        np.power(live, c, out=live)
        return (d,)

    for cols, amp, _, _, ((pa, pm, pb),) in _levels(n_lo, n_hi, nodes):
        dst = np.subtract(pa, pm, out=out[:, cols])
        dst -= pm - pb
        dst *= amp
        dst /= c
    return out


def f2_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """F2 coefficients, shape (len(ts), n_hi - n_lo + 1); exactly zero at
    H = 1/2 where the kernel vanishes identically.  The node values are
    ``(t + x)**c`` and ``x**c``."""
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    if p.is_half:
        return np.zeros((ts.shape[0], n_hi - n_lo + 1))
    c = p.h_plus_half
    out = np.empty((ts.shape[0], n_hi - n_lo + 1))
    if n_lo == 0:
        out[:, 0:1] = ((ts + 1.0) ** c - ts**c - 1.0) / c

    def nodes(x):
        shifted = ts + x
        return np.power(shifted, c, out=shifted), x**c

    for cols, amp, _, _, ((sa, sm, sb), (xa, xm, xb)) in _levels(
            n_lo, n_hi, nodes):
        plain = amp * ((xm - xa) - (xb - xm)) / c
        dst = np.subtract(sm, sa, out=out[:, cols])
        dst -= sb - sm
        dst *= amp
        dst /= c
        dst -= plain
    return out


def _g_nodes(ts: np.ndarray, p: HurstParams, x: np.ndarray):
    """The two antiderivatives of G at nodes ``x`` > 0, shape (len(ts),
    len(x)) each, from one ``log1p(t x)`` per node.

    ``phi`` is ``(y**(H-1/2) - (t+y)**(H-1/2))/(H-1/2)`` at y = 1/x, whose
    differences are the x-weighted integrals of G (in y = 1/x they
    telescope, with zero limit at y = inf).  ``plain`` is F with the
    integral of G over [a, b] equal to F(a) - F(b), grouped so the
    z-independent constant cancels algebraically; the expm1/log1p form
    avoids amplifying rounding by x**-(H+1/2) at deep levels.  Both are
    computed in place and in a fixed order of operations: G's
    combination cancels heavily, and a reordered product moves it
    visibly.
    """
    hm, c = p.h_minus_half, p.h_plus_half
    log_z = np.multiply(ts, x)
    np.log1p(log_z, out=log_z)
    phi = np.multiply(log_z, hm)
    np.expm1(phi, out=phi)
    plain = np.multiply(log_z, c, out=log_z)
    np.expm1(plain, out=plain)
    plain /= c
    np.subtract(phi, plain, out=plain)
    plain /= hm
    plain *= x**-c
    phi *= -(x**-hm)
    phi /= hm
    return phi, plain


def g_block(ts: np.ndarray, p: HurstParams, n_lo: int, n_hi: int) -> np.ndarray:
    """Inverse-time series coefficients g_n, shape (len(ts), width).

    Each g_n combines the two antiderivatives of :func:`_g_nodes` on the
    half-intervals of the tent.  The node x = 0, where 1/a and the
    a-term drop out, carries zeros.  Zero rows at t = 0; all-zero at
    H = 1/2 (callers drop the series).
    """
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    width = n_hi - n_lo + 1
    if p.is_half:
        return np.zeros((ts.shape[0], width))
    out = np.empty((ts.shape[0], width))
    if n_lo == 0:
        out[:, 0:1] = _g_nodes(ts, p, np.ones(1))[0]

    def nodes(x):
        phi, plain = _g_nodes(ts, p, np.where(x > 0.0, x, 1.0))
        if x[0] == 0.0:
            phi[:, 0] = plain[:, 0] = 0.0
        return phi, plain

    for cols, amp, a, b, ((fa, fm, fb), (pa, pm, pb)) in _levels(
            n_lo, n_hi, nodes):
        dst = np.subtract(fm, fa, out=out[:, cols])  # G*x over [a, m]
        dst -= fb - fm                                # G*x over [m, b]
        dst *= amp
        tmp = np.subtract(pm, pb)
        tmp *= amp * b
        dst += tmp
        np.subtract(pa, pm, out=tmp)
        tmp *= amp * a
        dst -= tmp
    out[ts[:, 0] == 0.0] = 0.0
    return out


_BLOCKS = {
    CoefficientKind.F1: f1_block,
    CoefficientKind.F2: f2_block,
    CoefficientKind.G: g_block,
}


def coeff_vector(kind: CoefficientKind, t: float, p: HurstParams,
                 n_max: int) -> np.ndarray:
    """Coefficients 0..n_max of one family at one time, read-only."""
    row = coeff_matrix(kind, [_check_t(t)], p, 0, n_max)[0]
    row.setflags(write=False)
    return row


def coeff_matrix(kind: CoefficientKind, ts: np.ndarray, p: HurstParams,
                 n_lo: int, n_hi: int) -> np.ndarray:
    """Block over a time grid, shape (len(ts), n_hi - n_lo + 1); every
    path evaluation and campaign builds its coefficient rows here, so the
    kind and index range are checked here, before any node is evaluated."""
    block = _BLOCKS[_check_kind(kind)]
    message = f"need 0 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]"
    n_lo = _check_int(n_lo, "n_lo", message=message)
    n_hi = check_index(_check_int(n_hi, "n_hi", n_lo, message=message))
    return block(_check_ts(ts), _check_params(p), n_lo, n_hi)
