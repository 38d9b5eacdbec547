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
At H = 1/2 the F2 and g kernels vanish and only the F1 series remains.
Series k is a position: ``SERIES[k]`` is its coefficient kind,
``l{k+1}`` its bundle array and k its noise family, and
:func:`_series_factors` gives the factor of each series kept at H.

Every evaluation goes through one kernel, :func:`_contract`.  It builds
the coefficient rows of a block of instants one index window at a time,
walks each window in fixed chunks of ``INDEX_CHUNK`` from n = 0 and sums
their products with the loads pairwise along n; chunk sums are added in
ascending order.  A coefficient depends only on its index and instant,
and only the chunk width affects rounding, so a value depends on nothing
but its instant and its bundle: not on the other instants or paths
requested, their order, or the worker count.  Blocks of instants,
evaluated on ``workers`` threads, keep the rows and the product
temporary within a multiple of ``_BLOCK`` elements whatever T x N is.

A path draws its bundle with :func:`noise.draw_bundle`.  An ensemble
draws the same loads a block of paths at a time with
:func:`noise._load_blocks`, which draws only the series kept at H.  A
block holds at most ``_DRAW`` loads.  When every series' rows at every
instant fit ``_TABLE`` elements, the ensemble builds them once and each
block of paths slices them; the contraction is the same either way, so
every row equals :func:`generate_path` bit for bit.  Each path has its
own seed, so paths are independent work: an ensemble's blocks of paths
are split into at most ``workers`` contiguous seed ranges, whole blocks
each and balanced to within one block, and each range draws and
contracts its blocks on its own thread.  Workers beyond the number of
blocks go to the ranges' blocks of instants.  One block per range is
live at a time, so an ensemble holds at most ``workers x _DRAW`` loads,
bounded by N as well as by T.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (CoefficientKind, HurstParams, _check_params,
                           _check_t, _check_ts, coeff_matrix)
from .haar import _U64_MAX, _check_int, _check_seed, check_index
from .noise import NoiseBundle, _bundle_loads, _load_blocks, draw_bundle

# The coefficient kind of each series, in bundle-array order (l1, l2, l3).
SERIES = (CoefficientKind.F1, CoefficientKind.F2, CoefficientKind.G)
# Width of the index chunks summed pairwise; the only size that affects
# rounding.
INDEX_CHUNK = 256
# Elements of the product temporary of one block (paths x instants x
# indices of a chunk): 256 KiB.  A block's coefficient rows hold at most
# twice as many.
_BLOCK = 2**15
# Width of the index windows whose rows are built in one call; a power of
# two, so every window past the first lies inside one level.
_WINDOW = 2**12
# Loads of one block of an ensemble's paths (paths x series x indices),
# which share their array with the block's raw draws: 8 MiB.
_DRAW = 2**20
# Coefficient rows an ensemble builds once for all its blocks of paths
# (series x instants x indices): 8 MiB.  Larger tables are rebuilt per
# block.
_TABLE = 2**20


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a path: parameters, truncation, seed,
    and the parallelism degree (0 = one worker per CPU)."""

    params: HurstParams
    n_terms: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        _check_params(self.params, "params")
        n_terms = check_index(_check_int(self.n_terms, "n_terms", 1))
        for name, value in (("n_terms", n_terms),
                            ("workers", _check_int(self.workers, "workers")),
                            ("seed", _check_seed(self.seed))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PathSample:
    """One realization evaluated on a time grid, with its provenance."""

    times: np.ndarray
    values: np.ndarray
    config: GeneratorConfig

    def __post_init__(self):
        _check_values(self.times, self.values, ndim=1)


@dataclass(frozen=True)
class Ensemble:
    """Realizations on one time grid: ``values[i]`` is the path drawn
    from ``seeds[i]``, shape (paths, instants).  ``ens[i]`` is that row
    as a :class:`PathSample` whose config carries ``seeds[i]``."""

    times: np.ndarray
    values: np.ndarray
    config: GeneratorConfig
    seeds: tuple[int, ...]

    def __post_init__(self):
        _check_values(self.times, self.values, ndim=2)
        if len(self.seeds) != len(self.values):
            raise ValueError(f"need one seed per path, got {len(self.seeds)} "
                             f"for {len(self.values)} paths")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> PathSample:
        return PathSample(times=self.times, values=self.values[i],
                          config=replace(self.config, seed=self.seeds[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _check_values(times: np.ndarray, values: np.ndarray, ndim: int) -> None:
    """Freeze and validate path values on ``times``: one path (ndim 1) or
    paths x instants (ndim 2)."""
    times.setflags(write=False)
    values.setflags(write=False)
    if (times.ndim != 1 or values.ndim != ndim
            or values.shape[-1] != times.size):
        raise ValueError("times and values must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("path values must be finite")
    _check_times(times)
    if times[0] == 0.0 and np.any(values[..., 0] != 0.0):
        raise ValueError("a path must start at zero when t = 0 is present")


def _check_times(times: np.ndarray) -> np.ndarray:
    _check_ts(times)
    if times.size == 0:
        raise ValueError("need at least one time instant")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


def _series_factors(p: HurstParams) -> tuple[float, ...]:
    """The factor of each series kept at ``p``, in ``SERIES`` order
    (module docstring): F1 alone at H = 1/2, else F1 and F2 with 1 and
    the far past with -(H - 1/2).  ``c_H`` multiplies their sum."""
    if p.is_half:
        return (1.0,)
    return (1.0, 1.0, -p.h_minus_half)


def _cpus(workers: int) -> int:
    """The worker count ``workers`` stands for: itself, or one per CPU
    for 0."""
    return workers or os.cpu_count() or 1


def _fan_out(fn, items, workers: int, pool=ThreadPoolExecutor) -> list:
    """``[fn(x) for x in items]`` on up to ``workers`` workers of ``pool``
    (0 = one per CPU), never more than there are items, since a pool may
    start them all up front; in the calling thread when one is enough."""
    workers = min(_cpus(workers), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with pool(max_workers=workers) as executor:
        return list(executor.map(fn, items))


def _row_table(times: np.ndarray, p: HurstParams, n_terms: int):
    """``table[k]``: series k's coefficient rows over indices 0..n_terms
    at every instant, one block per series kept at ``p`` for
    :func:`_contract` to slice; None when they would exceed ``_TABLE``
    elements."""
    kinds = SERIES[:len(_series_factors(p))]
    if len(kinds) * len(times) * (n_terms + 1) > _TABLE:
        return None
    return [coeff_matrix(kind, times, p, 0, n_terms) for kind in kinds]


def _contract(loads: np.ndarray, times: np.ndarray, p: HurstParams,
              n_terms: int, workers: int = 1, table=None) -> np.ndarray:
    """Path values, shape (paths, instants), of the series kept at ``p``
    against ``loads`` (paths, series, n_terms + 1) as :mod:`noise` gives
    them, far-past n = 0 zeroed; blocks of instants go to ``workers``
    threads.  Rows come from ``table``
    (:func:`_row_table`) if given, and are built per block of instants
    otherwise."""
    factors = _series_factors(p)
    n_paths = loads.shape[0]
    out = np.zeros((n_paths, len(times)))
    width = min(n_terms + 1, _WINDOW)
    per_block = max(1, min(_BLOCK // (n_paths * INDEX_CHUNK),
                           2 * _BLOCK // width))
    blocks = [slice(i, i + per_block) for i in range(0, len(times), per_block)]

    def fill(block: slice) -> None:
        ts = times[block]
        acc = np.zeros((len(factors), n_paths, len(ts)))
        for start in range(0, n_terms + 1, width):
            stop = min(n_terms, start + width - 1)
            for k, kind in enumerate(SERIES[:len(factors)]):
                rows = (table[k][block, start:stop + 1] if table is not None
                        else coeff_matrix(kind, ts, p, start, stop))
                for lo in range(start, stop + 1, INDEX_CHUNK):
                    hi = min(stop, lo + INDEX_CHUNK - 1)
                    acc[k] += (loads[:, None, k, lo:hi + 1]
                               * rows[None, :, lo - start:hi - start + 1]
                               ).sum(-1)
        out[:, block] = p.c_h * sum(f * a for f, a in zip(factors, acc))

    _fan_out(fill, blocks, workers)
    return out


def eval_w(t: float, p: HurstParams, n_terms: int, bundle: NoiseBundle) -> float:
    """Full truncated expansion value at one time instant; equal bit for
    bit to what :func:`generate_path` returns at ``t`` for this bundle."""
    t = _check_t(t)
    p = _check_params(p)
    if not isinstance(bundle, NoiseBundle):
        raise ValueError(f"bundle must be a NoiseBundle, got {bundle!r}")
    # the bundle must hold loads 0..n_terms
    n_terms = _check_int(n_terms, "n_terms", 0, bundle.n_terms)
    loads = _bundle_loads(bundle, len(_series_factors(p)), n_terms)
    return float(_contract(loads, np.array([t]), p, n_terms)[0, 0])


def _seeds(seed: int, count: int) -> tuple[int, ...]:
    """Seeds ``seed, seed + 1, ...`` of ``count`` paths (modulo 2**64), or
    a ValueError if ``seed`` is not an unsigned 64-bit integer."""
    seed = _check_seed(seed)
    return tuple((seed + i) & _U64_MAX for i in range(count))


def generate_path(times: np.ndarray, config: GeneratorConfig) -> PathSample:
    """Evaluate one realization at the requested time instants.

    Draws the bundle for ``config.seed`` once, then evaluates blocks of
    instants on ``config.workers`` threads; the values are identical for
    every worker count and every set of requested instants.
    """
    times = _check_times(np.array(times, dtype=np.float64))
    p, n_terms = config.params, config.n_terms
    loads = _bundle_loads(draw_bundle(config.seed, n_terms),
                          len(_series_factors(p)), n_terms)
    values = _contract(loads, times, p, n_terms, config.workers)
    return PathSample(times=times, values=values[0], config=config)


def generate_ensemble(times: np.ndarray, config: GeneratorConfig,
                      n_paths: int) -> Ensemble:
    """Independent realizations with seeds ``seed, seed + 1, ...``
    (modulo 2**64), validated once as one :class:`Ensemble`.

    Each row equals what :func:`generate_path` returns for its seed, bit
    for bit, for every worker count.  Loads are drawn
    (:func:`noise._load_blocks`) and contracted a block of paths at a
    time, each block within ``_BLOCK`` product elements and ``_DRAW``
    loads, and the coefficient rows are built once for all blocks when
    they fit ``_TABLE``.  The blocks are split into contiguous seed ranges,
    one per ``config.workers`` thread (0 = one per CPU) and never more
    than there are blocks, balanced to within one block; each range
    writes its own rows.  Workers left over when there are fewer blocks
    than workers split the ranges' blocks of instants.  At most one block
    per range is live, so at most ``workers x _DRAW`` loads.
    """
    n_paths = _check_int(n_paths, "n_paths", 1)
    seeds = _seeds(config.seed, n_paths)
    times = _check_times(np.array(times, dtype=np.float64))
    p, n_terms = config.params, config.n_terms
    n_series = len(_series_factors(p))
    per_block = max(1, min(_BLOCK // (INDEX_CHUNK * len(times)),
                           _DRAW // (n_series * (n_terms + 1))))
    table = _row_table(times, p, n_terms)
    values = np.empty((n_paths, len(times)))
    n_blocks = -(-n_paths // per_block)
    workers = _cpus(config.workers)
    n_ranges = min(workers, n_blocks)

    def fill(r: int) -> None:
        first = r * n_blocks // n_ranges * per_block
        stop = min((r + 1) * n_blocks // n_ranges * per_block, n_paths)
        instant_workers = workers // n_ranges + (r < workers % n_ranges)
        # a block's loads die with its _contract call, before the next is
        # drawn
        blocks = _load_blocks(seeds[first:stop], n_series, n_terms, per_block)
        for i in range(first, stop, per_block):
            values[i:i + per_block] = _contract(next(blocks), times, p,
                                                n_terms, instant_workers,
                                                table)

    _fan_out(fill, range(n_ranges), n_ranges)
    return Ensemble(times=times, values=values, config=config, seeds=seeds)
