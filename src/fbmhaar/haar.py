"""Haar wavelet system on [0, 1].

Flat indexing: index 0 is the constant scaling function; index n >= 1
decomposes as n = 2**j + k with level j >= 0 and shift 0 <= k < 2**j.
The wavelet at (j, k) lives on [k/2**j, (k+1)/2**j), closed on the right
when the right endpoint is 1, and takes the values +2**(j/2) on the left
half and -2**(j/2) on the right half of its support.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Levels above this lose exact dyadic endpoints in float64.
MAX_LEVEL = 40
# The last flat index of level MAX_LEVEL.
MAX_INDEX = 2 ** (MAX_LEVEL + 1) - 1
# The largest seed: seeds are unsigned 64-bit integers.
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class DyadicInterval:
    """Support [a, b] of the level-j, shift-k wavelet with midpoint m.

    Endpoints are exact dyadic rationals for j <= MAX_LEVEL.
    """

    j: int
    k: int
    a: float
    m: float
    b: float


def _check_int(value, name: str, lo: int = 0, hi: int | None = None,
               message: str | None = None) -> int:
    """``value`` as an int, or a ValueError naming ``name`` unless it is an
    integer (``bool`` is not one) with ``lo <= value`` and, given ``hi``,
    ``value <= hi``; ``message``, if given, replaces the error's text.
    The one rule for counts, indices and seeds, in pure Python: the
    quadrature oracle passes through it once per coefficient."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(
            message or f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo <= value and (hi is None or value <= hi):
        return value
    rule = (f"at most {hi}" if value >= lo else
            "nonnegative" if lo == 0 else f"at least {lo}")
    raise ValueError(message or f"{name} must be {rule}, got {value}")


def check_index(n: int) -> int:
    """``n`` as a nonnegative int (:func:`_check_int`), or a ValueError
    naming its level if that level exceeds ``MAX_LEVEL``; callers check a
    requested truncation here before they allocate for it, passing an
    argument's own name and bounds through :func:`_check_int` first."""
    n = _check_int(n, "index")
    if n > MAX_INDEX:
        raise ValueError(f"level {n.bit_length() - 1} exceeds supported "
                         f"maximum {MAX_LEVEL}")
    return n


def _check_seed(seed) -> int:
    """``seed`` as an int, or a ValueError unless it is an unsigned
    64-bit integer."""
    return _check_int(seed, "seed", 0, _U64_MAX, message=(
        f"seed must be an unsigned 64-bit integer, got {seed}"))


def support_interval(n: int) -> DyadicInterval:
    """Dyadic support of wavelet index n = 2**j + k >= 1; the scalar
    reference for :func:`dyadic_arrays`."""
    n = check_index(_check_int(n, "flat index"))
    if n == 0:
        raise ValueError("index 0 is the scaling function; its support is [0, 1]")
    j = n.bit_length() - 1
    k = n - (1 << j)
    scale = 2.0 ** -j
    return DyadicInterval(
        j=j,
        k=k,
        a=k * scale,
        m=(2 * k + 1) * 2.0 ** -(j + 1),
        b=(k + 1) * scale,
    )


def haar_eval(n: int, s: float) -> float:
    """Value of the n-th Haar function at s in [0, 1].

    The support is half-open except at the right edge of [0, 1]:
    the last wavelet of every level takes its negative value at s = 1.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {s}")
    if _check_int(n, "flat index") == 0:
        return 1.0
    sup = support_interval(n)
    amp = 2.0 ** (sup.j / 2)
    if sup.a <= s < sup.m:
        return amp
    if sup.m <= s < sup.b:
        return -amp
    if s == sup.b == 1.0:
        return -amp
    return 0.0


def haar_antiderivative(n: int, x: float) -> float:
    """Integral of the n-th Haar function over [0, x].

    For n >= 1 this is the tent supported on [a, b]: rising with slope
    2**(j/2) up to the midpoint, falling back to zero at b.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    if _check_int(n, "flat index") == 0:
        return x
    sup = support_interval(n)
    amp = 2.0 ** (sup.j / 2)
    if x <= sup.a or x >= sup.b:
        return 0.0
    if x <= sup.m:
        return amp * (x - sup.a)
    return amp * (sup.b - x)


def dyadic_arrays(n_lo: int, n_hi: int) -> tuple[np.ndarray, ...]:
    """Vectorized (j, k, amp, a, m, b) for flat indices n_lo..n_hi (both >= 1).

    Used by the coefficient closed forms; endpoints are exact dyadics.
    """
    n_lo = _check_int(n_lo, "n_lo", 1)
    n_hi = check_index(_check_int(n_hi, "n_hi", n_lo))
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    # frexp gives n = mant * 2**e with mant in [0.5, 1), so the level is e - 1
    _, e = np.frexp(n.astype(np.float64))
    j = (e - 1).astype(np.int64)
    k = (n - (np.int64(1) << j)).astype(np.float64)
    jf = j.astype(np.float64)
    scale = 2.0 ** -jf  # exact, so every endpoint below is too
    amp = 2.0 ** (jf / 2)
    a = k * scale
    m = (2 * k + 1) * (0.5 * scale)
    b = (k + 1) * scale
    return jf, k, amp, a, m, b

