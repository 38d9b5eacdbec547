"""Independent ground truth: adaptive quadrature for every coefficient
family and an exact covariance-based sampler for distributional checks.

Nothing here reuses the closed-form antiderivatives; the quadrature
integrates the defining inner products directly (QUADPACK, with algebraic
endpoint weights where the kernel is singular and a 1/x substitution for
the folded far-past integrand near zero), so agreement with
:mod:`fbmhaar.coefficients` is a genuine two-route check.
``scipy.integrate`` is imported inside :func:`quad_coefficient`, once
per call: QUADPACK pulls in scipy's optimize, sparse and linalg layers,
and only the coefficient-oracle campaign integrates.
"""

from __future__ import annotations

import numpy as np

from .coefficients import (CoefficientKind, HurstParams, _check_kind,
                           _check_params, _check_t, _check_ts)
from .expansion import Ensemble, GeneratorConfig, _check_times
from .haar import _check_int, check_index, haar_eval, support_interval
from .noise import ORACLE_FAMILY, stream_normals

# Desk-scale cap: factorization is O(m**3) and this is a reference
# sampler, not a production generator.
MAX_CHOLESKY_GRID = 2048

_JITTER = 1e-12


class OracleConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance; never silently
    returns a value."""


# Quadrature tolerances.  Endpoint singularities are located per family
# from (kind, t, H): the near-past kernel degrades at s = t with exponent
# H - 1/2, the recent-past kernel at s = 0 with the same exponent, and the
# folded far-past integrand at x = 0 inside an x**(1/2 - H) envelope.
# Both are read when a quadrature runs.
QUAD_ABS_TOL = 1e-10
QUAD_MAX_SUBDIVISIONS = 200


def _haar_breakpoints(n: int) -> list[float]:
    if n == 0:
        return [0.0, 1.0]
    sup = support_interval(n)
    return [sup.a, sup.m, sup.b]


def _pieces(points: list[float], lo: float, hi: float) -> list[tuple[float, float]]:
    cut = sorted({lo, hi, *(x for x in points if lo < x < hi)})
    return list(zip(cut[:-1], cut[1:]))


class _Accumulator:
    def __init__(self, label: str):
        self.label = label
        self.value = 0.0
        self.err = 0.0

    def add(self, result: tuple) -> None:
        # quad with full_output returns (y, abserr, infodict[, message, ...])
        self.value += result[0]
        self.err += result[1]

    def finish(self) -> float:
        if self.err > QUAD_ABS_TOL:
            raise OracleConvergenceError(
                f"{self.label}: estimated error {self.err:.3e} exceeds "
                f"QUAD_ABS_TOL {QUAD_ABS_TOL:.3e}")
        return self.value


def _quad_opts() -> dict:
    return {"epsabs": QUAD_ABS_TOL * 0.1, "epsrel": 1e-11,
            "limit": QUAD_MAX_SUBDIVISIONS, "full_output": 1}


def _quad_f1(quad, t: float, p: HurstParams, n: int) -> float:
    if t == 0.0:
        return 0.0
    hm = p.h_minus_half
    acc = _Accumulator(f"quad f1(t={t}, H={p.h}, n={n})")
    pieces = _pieces(_haar_breakpoints(n), 0.0, t)
    opts = _quad_opts()
    for lo, hi in pieces:
        hvalue = haar_eval(n, 0.5 * (lo + hi))
        if hvalue == 0.0:
            continue
        if hi == t:
            # algebraic weight (t - s)**hm on the singular right endpoint
            acc.add(quad(lambda s: hvalue, lo, hi,
                         weight="alg", wvar=(0.0, hm), **opts))
        else:
            acc.add(quad(lambda s: (t - s) ** hm * hvalue, lo, hi, **opts))
    return acc.finish()


def _quad_f2(quad, t: float, p: HurstParams, n: int) -> float:
    if p.is_half or t == 0.0:
        # kernel identically zero: (t+s)**0 - s**0 or both terms coincide
        return 0.0
    hm = p.h_minus_half
    acc = _Accumulator(f"quad f2(t={t}, H={p.h}, n={n})")
    pieces = _pieces(_haar_breakpoints(n), 0.0, 1.0)
    opts = _quad_opts()
    for lo, hi in pieces:
        hvalue = haar_eval(n, 0.5 * (lo + hi))
        if hvalue == 0.0:
            continue
        if lo == 0.0:
            # split the difference: the s**hm term is weight-singular at 0
            acc.add(quad(lambda s: (t + s) ** hm * hvalue, lo, hi, **opts))
            acc.add(quad(lambda s: -hvalue, lo, hi,
                         weight="alg", wvar=(hm, 0.0), **opts))
        else:
            acc.add(quad(
                lambda s: ((t + s) ** hm - s**hm) * hvalue, lo, hi, **opts))
    return acc.finish()


def _quad_g(quad, t: float, p: HurstParams, n: int) -> float:
    if t == 0.0:
        return 0.0
    e = p.h - 1.5
    acc = _Accumulator(f"quad g(t={t}, H={p.h}, n={n})")
    opts = _quad_opts()

    def far(y):
        # the folded far-past integrand at x = 1/y is far(y) / x**3
        return (t + y) ** e - y**e

    if n == 0:
        acc.add(quad(far, 1.0, np.inf, **opts))
        return acc.finish()

    sup = support_interval(n)
    amp = 2.0 ** (sup.j / 2)

    def g_times_tent(x, tent):
        return far(1.0 / x) * x**-3 * tent(x)

    if sup.k == 0:
        # rising half touches x = 0: substitute y = 1/x, tent amp*x
        acc.add(quad(lambda y: amp * far(y), 1.0 / sup.m, np.inf, **opts))
    else:
        acc.add(quad(
            lambda x: g_times_tent(x, lambda u: amp * (u - sup.a)),
            sup.a, sup.m, **opts))
    acc.add(quad(
        lambda x: g_times_tent(x, lambda u: amp * (sup.b - u)),
        sup.m, sup.b, **opts))
    return acc.finish()


_QUADRATURES = {
    CoefficientKind.F1: _quad_f1,
    CoefficientKind.F2: _quad_f2,
    CoefficientKind.G: _quad_g,
}


def quad_coefficient(kind: CoefficientKind, t: float, p: HurstParams,
                     n: int) -> float:
    """Numerically integrate the defining inner product of one coefficient
    to within ``QUAD_ABS_TOL``."""
    integrate = _QUADRATURES[_check_kind(kind)]
    t = _check_t(t)
    _check_params(p)
    n = check_index(n)
    from scipy.integrate import quad
    return integrate(quad, t, p, n)


def covariance_matrix(times: np.ndarray, h: float) -> np.ndarray:
    """Covariance matrix of the process on ``times``, a 1-D sequence in
    [0, 1]; the exact sampler factors it on a strictly positive grid."""
    tt = _check_ts(times)[:, None]
    e = 2.0 * HurstParams(h).h
    return 0.5 * (tt**e + tt.T**e - np.abs(tt - tt.T) ** e)


def cholesky_factor(times: np.ndarray, h: float) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of the covariance; one jitter retry.

    Returns (L, jitter_used).  On failure reports the offending smallest
    eigenvalue rather than guessing further.
    """
    cov = covariance_matrix(times, h)
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    try:
        bumped = cov + _JITTER * np.eye(len(cov))
        return np.linalg.cholesky(bumped), True
    except np.linalg.LinAlgError:
        raise OracleConvergenceError(
            f"covariance numerically non-PSD (min eigenvalue {min_eig:.3e}); "
            f"jitter {_JITTER} did not repair it") from None


def cholesky_sample(times: np.ndarray, h: float, seed: int,
                    n_paths: int) -> Ensemble:
    """Exact-in-distribution sample paths on a fixed grid.

    A leading t = 0 is allowed and handled deterministically (the process
    is pinned to zero there); the factorization acts on the positive
    times.  The returned config records the grid size in ``n_terms``,
    since no series truncation is involved, and every row carries
    ``seed``.
    """
    p = HurstParams(h)
    times = _check_times(np.array(times, dtype=np.float64))
    n_paths = _check_int(n_paths, "n_paths", 1)
    config = GeneratorConfig(params=p, n_terms=len(times), seed=seed)
    first = int(times[0] == 0.0)
    pos = times[first:]
    values = np.zeros((n_paths, len(times)))
    if pos.size:
        if pos.size > MAX_CHOLESKY_GRID:
            raise ValueError(
                f"grid of {pos.size} exceeds the {MAX_CHOLESKY_GRID}-point "
                f"cap of the exact sampler")
        factor, _ = cholesky_factor(pos, h)
        z = stream_normals(config.seed, ORACLE_FAMILY,
                           n_paths * pos.size).reshape(n_paths, pos.size)
        values[:, first:] = z @ factor.T
    return Ensemble(times=times, values=values, config=config,
                    seeds=(config.seed,) * n_paths)
