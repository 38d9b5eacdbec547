"""Truncated wavelet expansion of fractional Brownian motion on [0, 1].

The path value at time t is a fixed linear functional of the noise bundle:

    W(t) = c_H * ( sum_{n=0}^{N} <f1_t, H_n> l1[n]
                 + sum_{n=0}^{N} <f2_t, H_n> l2[n]
                 - (H - 1/2) * sum_{n=1}^{N} g_n(t) l3[n] )

The far-past component carries no separate load on the terminal variate:
in the underlying construction the terminal variate and the level-zero
variate of the inverse-time series are the same Gaussian up to sign, and
the drift factor ((t+1)**(H-1/2) - 1) cancels identically against the
n = 0 series term, leaving the series over n >= 1.  (Equivalently: the
squared drift factor equals (H-1/2)**2 g_0**2, and the variance of the
far-past integral equals (H-1/2)**2 sum_{n>=1} g_n**2 exactly.)  The
bundle still carries the terminal variate as part of its 3N + 4 layout.
At H = 1/2 the F2 and g kernels vanish and only the F1 series remains;
:func:`expansion_terms` states the series once.

Every evaluation goes through one kernel, :func:`_contract`.  It walks
the indices in fixed chunks of ``INDEX_CHUNK`` from n = 0, builds each
chunk's coefficient rows and sums their products with the loads pairwise
along n; chunk sums are added in ascending order.  Only the chunk width
affects rounding, so a value depends on nothing but its instant and its
bundle: not on the other instants or paths requested, their order, or
the worker count.  Blocks of instants, evaluated on ``workers`` threads,
keep the product temporary at ``_BLOCK`` elements whatever T x N is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientKind, HurstParams, coeff_matrix
from .noise import NoiseBundle, draw_bundle

_U64_MAX = 2**64 - 1

# Width of the index chunks summed pairwise; the only size that affects
# rounding.
INDEX_CHUNK = 256
# Elements of the product temporary of one block (paths x instants x
# indices of a chunk): 256 KiB.
_BLOCK = 2**15


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a path: parameters, truncation, seed,
    and the parallelism degree (0 = one worker per CPU)."""

    params: HurstParams
    n_terms: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be at least 1, got {self.n_terms}")
        if self.workers < 0:
            raise ValueError(f"workers must be nonnegative, got {self.workers}")
        if not 0 <= self.seed <= _U64_MAX:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class PathSample:
    """One realization evaluated on a time grid, with its provenance."""

    times: np.ndarray
    values: np.ndarray
    config: GeneratorConfig

    def __post_init__(self):
        self.times.setflags(write=False)
        self.values.setflags(write=False)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must be finite")
        _check_times(self.times)
        if self.times.size and self.times[0] == 0.0 and self.values[0] != 0.0:
            raise ValueError("a path must start at zero when t = 0 is present")


def _check_times(times: np.ndarray) -> np.ndarray:
    if times.size == 0:
        raise ValueError("need at least one time instant")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.min() < 0.0 or times.max() > 1.0:
        raise ValueError("times must lie in [0, 1]")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


@dataclass(frozen=True)
class Term:
    """One series of the expansion: coefficients of ``kind`` from index
    ``n_first`` on, against the bundle array named ``load``, scaled by
    ``factor``.  ``c_H`` multiplies the sum of all terms."""

    kind: CoefficientKind
    load: str
    factor: float
    n_first: int = 0

    def rows(self, ts: np.ndarray, p: HurstParams, n_lo: int,
             n_hi: int) -> np.ndarray:
        """Coefficient rows over ``n_lo..n_hi``, zero below ``n_first``."""
        rows = coeff_matrix(self.kind, ts, p, n_lo, n_hi)
        rows[:, : max(0, self.n_first - n_lo)] = 0.0
        return rows


def expansion_terms(p: HurstParams) -> tuple[Term, ...]:
    """The series of the truncated expansion at ``p`` (module docstring):
    F1 against l1 and F2 against l2 from n = 0, g against l3 from n = 1
    with factor -(H - 1/2); F1 alone at H = 1/2."""
    near = Term(CoefficientKind.F1, "l1", 1.0)
    if p.is_half:
        return (near,)
    return (near, Term(CoefficientKind.F2, "l2", 1.0),
            Term(CoefficientKind.G, "l3", -p.h_minus_half, n_first=1))


def stack_loads(bundles, terms, n_terms: int) -> np.ndarray:
    """Loads 0..n_terms of each term, shape (paths, terms, n_terms + 1)."""
    return np.array([[getattr(b, term.load)[: n_terms + 1] for term in terms]
                     for b in bundles])


def _effective_workers(workers: int) -> int:
    return workers if workers > 0 else (os.cpu_count() or 1)


def _contract(terms, loads: np.ndarray, times: np.ndarray, p: HurstParams,
              n_terms: int, workers: int = 1) -> np.ndarray:
    """Path values, shape (paths, instants), of the given terms against
    ``loads`` from :func:`stack_loads`; blocks of instants go to
    ``workers`` threads."""
    n_paths = loads.shape[0]
    out = np.zeros((n_paths, len(times)))
    if not terms:
        return out
    per_block = max(1, _BLOCK // (n_paths * INDEX_CHUNK))
    blocks = [slice(i, i + per_block) for i in range(0, len(times), per_block)]

    def fill(block: slice) -> None:
        ts = times[block]
        acc = np.zeros((len(terms), n_paths, len(ts)))
        for lo in range(0, n_terms + 1, INDEX_CHUNK):
            hi = min(n_terms, lo + INDEX_CHUNK - 1)
            for k, term in enumerate(terms):
                rows = term.rows(ts, p, lo, hi)
                acc[k] += (loads[:, None, k, lo:hi + 1] * rows[None]).sum(-1)
        out[:, block] = p.c_h * sum(term.factor * a
                                    for term, a in zip(terms, acc))

    workers = min(_effective_workers(workers), len(blocks))
    if workers == 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    return out


def _require_capacity(bundle: NoiseBundle, n_terms: int) -> None:
    if bundle.n_terms < n_terms:
        raise ValueError(
            f"bundle holds {bundle.n_terms + 1} loads per series, "
            f"need {n_terms + 1}")


def _eval(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle,
          kinds=tuple(CoefficientKind)) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t}")
    _require_capacity(bundle, n_terms)
    terms = tuple(term for term in expansion_terms(p) if term.kind in kinds)
    loads = stack_loads([bundle], terms, n_terms)
    return float(_contract(terms, loads, np.array([float(t)]), p,
                           n_terms)[0, 0])


def eval_w1(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle) -> float:
    """Near-past component: series of F1 coefficients against l1."""
    return _eval(t, p, n_terms, bundle, (CoefficientKind.F1,))


def eval_w2(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle) -> float:
    """Recent-past component: series of F2 coefficients against l2;
    identically zero at H = 1/2."""
    return _eval(t, p, n_terms, bundle, (CoefficientKind.F2,))


def eval_w3(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle) -> float:
    """Far-past component: g-series over n >= 1 against l3; identically
    zero at H = 1/2 and at t = 0 (see module docstring for why no
    terminal-variate term appears)."""
    return _eval(t, p, n_terms, bundle, (CoefficientKind.G,))


def eval_w(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle) -> float:
    """Full truncated expansion value at one time instant; equal bit for
    bit to what :func:`generate_path` returns at ``t`` for this bundle."""
    return _eval(t, p, n_terms, bundle)


def generate_path(times: np.ndarray, config: GeneratorConfig) -> PathSample:
    """Evaluate one realization at the requested time instants.

    Draws the bundle for ``config.seed`` once, then evaluates blocks of
    instants on ``config.workers`` threads; the values are identical for
    every worker count and every set of requested instants.
    """
    times = np.array(times, dtype=np.float64)
    _check_times(times)
    terms = expansion_terms(config.params)
    loads = stack_loads([draw_bundle(config.seed, config.n_terms)], terms,
                        config.n_terms)
    values = _contract(terms, loads, times, config.params, config.n_terms,
                       config.workers)[0]
    return PathSample(times=times, values=values, config=config)


def generate_ensemble(times: np.ndarray, config: GeneratorConfig,
                      n_paths: int, seed_stride: int = 1) -> list[PathSample]:
    """Independent realizations with seeds ``seed, seed + stride, ...``.

    Noise is drawn and evaluated a block of paths at a time, so memory
    stays bounded; each path equals what :func:`generate_path` returns
    for its seed, bit for bit.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    times = np.array(times, dtype=np.float64)
    _check_times(times)
    p, n_terms = config.params, config.n_terms
    terms = expansion_terms(p)
    configs = [GeneratorConfig(params=p, n_terms=n_terms,
                               seed=(config.seed + i * seed_stride) & _U64_MAX,
                               workers=config.workers)
               for i in range(n_paths)]
    per_block = max(1, _BLOCK // (INDEX_CHUNK * len(times)))
    out = []
    for i in range(0, n_paths, per_block):
        block = configs[i:i + per_block]
        loads = stack_loads([draw_bundle(c.seed, n_terms) for c in block],
                            terms, n_terms)
        values = _contract(terms, loads, times, p, n_terms, config.workers)
        out += [PathSample(times=times, values=v, config=c)
                for v, c in zip(values, block)]
    return out
