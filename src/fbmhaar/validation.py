"""Statistical and numerical validation campaigns with structured reports.

Each campaign is a pure function of its explicit parameters (seeds
included): rerunning one yields an identical report.  Records always
carry the observed number next to its target and tolerance; a bare
pass/fail never appears without its evidence.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    CoefficientKind,
    HurstParams,
    _check_real,
    _check_ts,
    coeff_matrix,
)
from .expansion import (SERIES, GeneratorConfig, _check_times, _fan_out,
                        _seeds, _series_factors, generate_ensemble,
                        generate_path)
from .haar import _check_int, check_index, haar_antiderivative
from .noise import _load_blocks, draw_bundle
from .oracle import (
    QUAD_ABS_TOL,
    OracleConvergenceError,
    cholesky_sample,
    covariance_matrix,
    quad_coefficient,
)

# Observed MC covariance bands become uninformative below this many paths.
MIN_INFORMATIVE_PATHS = 1000
# Parseval campaign: relative bound on the truncation deficit at n_max,
# band on the measured tail-decay exponents, the number of times the
# exponents are averaged over, and the rungs N whose exponents are
# measured (each against the tail at 2N, so n_max >= 2 * 256).
LIMIT_REL_TOL = 1e-3
EXPONENT_TOL = 0.3
DECAY_GRID_SIZE = 16
PARSEVAL_LADDER = (64, 128, 256)
# Rate campaign: band on the fitted slopes, and instants per block, whose
# rows span every index: 1 MiB per series at the default reference rung
# 8192.
RATE_SLOPE_TOL = 0.2
RATE_BLOCK = 16
# Brownian campaign: bound on the distance from the Levy-Ciesielski sum,
# relative band on the increment variances and band on their correlation.
LEVY_CIESIELSKI_TOL = 1e-12
BROWNIAN_VAR_REL_TOL = 0.05
BROWNIAN_CORR_TOL = 0.05


@dataclass(frozen=True)
class CheckRecord:
    """One verified quantity: what was measured, what it must satisfy."""

    name: str
    claim: str
    observed: float
    target: float
    tolerance: float
    passed: bool
    kind: str = "band"  # band: |observed-target| <= tolerance; upper: observed <= tolerance
    note: str = ""

    @classmethod
    def band(cls, name, claim, observed, target, tolerance, note=""):
        ok = bool(math.isfinite(observed)
                  and abs(observed - target) <= tolerance)
        return cls(name, claim, float(observed), float(target),
                   float(tolerance), ok, "band", note)

    @classmethod
    def upper(cls, name, claim, observed, bound, note=""):
        ok = bool(math.isfinite(observed) and observed <= bound)
        return cls(name, claim, float(observed), 0.0, float(bound), ok,
                   "upper", note)

    @classmethod
    def failure(cls, name, claim, note):
        return cls(name, claim, math.nan, 0.0, 0.0, False, "error", note)

    @classmethod
    def info(cls, name, claim, observed, note=""):
        return cls(name, claim, float(observed), 0.0, math.inf, True,
                   "info", note)


@dataclass
class ValidationReport:
    campaign: str
    parameters: dict
    records: list[CheckRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "parameters": self.parameters,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "records": [vars(r) for r in self.records],
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as JSON, with ``null`` for a non-finite float
        (a failure's ``nan`` observation, an info record's ``inf``
        tolerance), which JSON cannot represent."""
        return json.dumps(_finite_or_null(self.to_dict()), indent=2,
                          sort_keys=True, default=repr, allow_nan=False) + "\n"

    def to_text(self) -> str:
        lines = [f"campaign: {self.campaign}"]
        for key, value in sorted(self.parameters.items()):
            lines.append(f"  {key}: {value}")
        for r in self.records:
            flag = "PASS" if r.passed else "FAIL"
            if r.kind == "band":
                detail = (f"observed={r.observed:.6g} target={r.target:.6g} "
                          f"band=±{r.tolerance:.3g}")
            elif r.kind == "upper":
                detail = f"observed={r.observed:.6g} bound<={r.tolerance:.3g}"
            elif r.kind == "info":
                detail = f"observed={r.observed:.6g}"
            else:
                detail = "no value"
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"[{flag}] {r.name}: {detail}  [{r.claim}]{note}")
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {status} ({len(self.records)} checks, "
                     f"{self.elapsed_seconds:.1f}s)")
        return "\n".join(lines) + "\n"


def _finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _check_tolerance(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is a
    real number (:func:`coefficients._check_real`) that is positive and
    finite: a NaN or infinite bound decides every record whatever it
    observes, and a zero or negative one leaves no room for any error."""
    value = _check_real(value, name)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def fit_loglog_slope(n_values, errors) -> tuple[float, float]:
    """OLS slope of log2(error) vs log2(N) and a 2-sigma half-width."""
    x = np.log2(np.asarray(n_values, dtype=np.float64))
    y = np.log2(np.asarray(errors, dtype=np.float64))
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(2.0 * np.sqrt(cov[0, 0]))


def default_sup_grid() -> np.ndarray:
    """Grid approximating the sup over [0, 1]: a 1024-point equispaced
    grid united with the dyadic points k/2**10."""
    return np.union1d(np.linspace(0.0, 1.0, 1024), np.arange(1025) / 1024.0)


def decay_measurement_grid() -> np.ndarray:
    """Low-discrepancy times for measuring tail-decay exponents.

    Tail mass at a single time oscillates with the dyadic position of
    that time across levels (and vanishes identically at dyadic times for
    H = 1/2), so the decay exponent is measured on a golden-ratio grid
    and averaged, which is a well-posed estimator of the level scaling.
    """
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    return np.sort((np.arange(1, DECAY_GRID_SIZE + 1) * ratio) % 1.0)


# ---------------------------------------------------------------------------
# coefficient campaign


def _coeff_claim(args) -> CheckRecord:
    """The one record of the (family, H) claim in ``args``: the worst
    deviation from the quadrature oracle over every instant and index, at
    the first (t, n) that reaches it, or a failure at the first quadrature
    that does not converge."""
    kind, h, p, t_set, n_max, tol = args
    name = f"coeff/{kind.value}/H={h}"
    block = coeff_matrix(kind, t_set, p, 0, n_max)
    worst, where = 0.0, (t_set[0], 0)
    try:
        for t, row in zip(t_set, block):
            for n in range(n_max + 1):
                dev = abs(row[n] - quad_coefficient(kind, t, p, n))
                if dev > worst:
                    worst, where = dev, (t, n)
    except OracleConvergenceError as exc:
        return CheckRecord.failure(name, "oracle quadrature must converge",
                                   str(exc))
    return CheckRecord.upper(name, "closed form matches the defining integral",
                             worst, tol, "worst at t={}, n={}".format(*where))


def run_coefficient_campaign(h_set, t_set, n_max: int = 255,
                             tol: float = 1e-8,
                             workers: int = 1) -> ValidationReport:
    """Compare every closed-form coefficient against the quadrature oracle.

    Each (family, H) claim is one task on a pool of ``workers`` processes
    and gives one record: the maximum absolute deviation over ``t_set``
    and indices 0..n_max, or a failure if quadrature does not converge.
    Claims are reported by family, then by distinct H ascending; F2/G at
    H = 1/2 are verified to be exactly zero rather than integrated.
    """
    _check_ts(t_set)
    h_set, t_set = list(h_set), list(t_set)
    if not h_set or not t_set:
        raise ValueError("h_set and t_set must be nonempty")
    n_max = check_index(_check_int(n_max, "n_max"))
    workers = _check_int(workers, "workers")
    tol = _check_tolerance(tol, "tol")
    params = [HurstParams(h) for h in h_set]
    start = time.perf_counter()
    report = ValidationReport(
        campaign="coefficient-oracle",
        parameters={"h_set": h_set, "t_set": t_set, "n_max": n_max,
                    "tol": tol, "quad_abs_tol": QUAD_ABS_TOL},
    )
    # by H alone: HurstParams do not order, so a repeated H cannot tie-break
    distinct = dict(sorted(zip(h_set, params), key=lambda hp: hp[0]))
    claims = [(kind, h, p, t_set, n_max, tol)
              for kind in CoefficientKind for h, p in distinct.items()
              if kind is CoefficientKind.F1 or not p.is_half]
    report.records += _fan_out(_coeff_claim, claims, workers,
                               ProcessPoolExecutor)
    for h, p in zip(h_set, params):
        if p.is_half:
            zero_dev = max(
                float(np.abs(coeff_matrix(kind, t_set, p, 0, n_max)).max())
                for kind in (CoefficientKind.F2, CoefficientKind.G))
            report.records.append(CheckRecord.upper(
                f"coeff/f2+g/H={h}",
                "recent- and far-past kernels vanish identically at H=1/2",
                zero_dev, 0.0, "exact-zero, oracle skipped"))
        if p.near_half:
            report.records.append(CheckRecord.info(
                f"coeff/conditioning/H={h}",
                "H within 1e-6 of 1/2: closed forms carry elevated "
                "cancellation error", abs(h - 0.5)))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Parseval / tail-decay campaign


def _decay_record(name, claim, tails, rung, target, n_max, note=""):
    """Band record on the decay exponent ``log2(tails[rung] / tails[2 rung])``,
    or a failure when either tail is not positive and has no logarithm (a
    reference sum at ``n_max = 2 rung`` leaves the far-past tail zero)."""
    lo, hi = tails[rung], tails[2 * rung]
    if not (lo > 0.0 and hi > 0.0):
        return CheckRecord.failure(
            name, claim,
            f"tails at N={rung} and N={2 * rung} are {lo:.3g} and {hi:.3g}: "
            f"a decay exponent needs both positive (n_max={n_max})")
    return CheckRecord.band(name, claim, math.log2(lo / hi), target,
                            EXPONENT_TOL, note)


def run_parseval_campaign(h_set, t_set,
                          n_max: int = 2**14) -> ValidationReport:
    """Partial sums of squared near-past coefficients against the exact
    norm, plus tail-decay exponents for the near-past and far-past series.

    The limit check runs at the caller's (H, t) grid; decay exponents are
    measured on the low-discrepancy grid of
    :func:`decay_measurement_grid` (see its docstring for why).

    A ``parseval-limit`` record observes the relative truncation deficit
    ``(t**2H/(2H) - sum_{n <= n_max} f1_n**2) / (t**2H/(2H))`` at
    ``n_max``. That deficit decays like ``n_max**(-2H)``, so the strict
    ``LIMIT_REL_TOL`` FAILs at small H by design: at the default
    ``n_max = 2**14`` the deficit is 6-13 % at H = 0.1, and at t = 0.137
    it is 0.76 %, 0.31 % and 0.13 % at H = 0.25, 0.3 and 0.35; H = 0.1
    would need ``n_max`` near 2**50.
    """
    _check_ts(t_set)
    h_set, t_set = list(h_set), list(t_set)
    if not h_set or not t_set:
        raise ValueError("h_set and t_set must be nonempty")
    params = [HurstParams(h) for h in h_set]
    # every rung needs its doubled rung's tail
    n_max = check_index(_check_int(n_max, "n_max", 2 * PARSEVAL_LADDER[-1]))
    start = time.perf_counter()
    report = ValidationReport(
        campaign="parseval-tail",
        parameters={"h_set": h_set, "t_set": t_set, "n_max": n_max,
                    "ladder": list(PARSEVAL_LADDER),
                    "limit_rel_tol": LIMIT_REL_TOL,
                    "exponent_tol": EXPONENT_TOL},
    )
    decay_grid = decay_measurement_grid()
    limit_ts = [t for t in t_set if t > 0.0]
    for h, p in zip(h_set, params):
        # one F1 block: the limit instants, then the decay grid
        f1 = coeff_matrix(CoefficientKind.F1,
                          np.concatenate((limit_ts, decay_grid)), p, 0, n_max)
        for t, row in zip(limit_ts, f1):
            limit = t ** (2 * h) / (2 * h)
            rel = abs((row ** 2).sum() - limit) / limit
            report.records.append(CheckRecord.upper(
                f"parseval-limit/H={h}/t={t}",
                "sum of squared near-past coefficients reaches t^2H/(2H)",
                rel, LIMIT_REL_TOL,
                f"partial sum at N={n_max}"))

        # decay of the mean tail over the measurement grid: the near-past
        # tail against the exact norm, the far-past one against the sum at
        # n_max (that series is dropped entirely at H = 1/2)
        families = [("f1", f1[len(limit_ts):], decay_grid ** (2 * h) / (2 * h),
                     "squared near-past coefficient tail decays like N^(-2H)",
                     2 * h, "")]
        if not p.is_half:
            families.append((
                "g", coeff_matrix(CoefficientKind.G, decay_grid, p, 0, n_max),
                None, "squared far-past series tail decays like N^(-2(1-H))",
                2 * (1 - h), f"reference sum at N={n_max}"))
        for family, coeffs, totals, claim, target, note in families:
            partial = np.cumsum(coeffs ** 2, axis=1)
            if totals is None:
                totals = partial[:, -1]
            tails = (totals[:, None] - partial).mean(axis=0)
            for rung in PARSEVAL_LADDER:
                report.records.append(_decay_record(
                    f"tail-decay-{family}/H={h}/N={rung}", claim, tails, rung,
                    target, n_max, note))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# covariance campaign


def _raw_covariance(values: np.ndarray) -> np.ndarray:
    # the process is centered by construction; raw second moments are the
    # unbiased covariance estimate with variance (sii*sjj + sij^2)/n
    return values.T @ values / values.shape[0]


def run_covariance_campaign(h_set, time_grid, n_paths: int, n_terms: int,
                            seed: int, band: float = 0.02) -> ValidationReport:
    """Empirical ensemble covariance against the analytic form, with the
    exact Cholesky sampler run under the same band as a baseline.  Each
    ensemble runs on one thread per CPU; the report does not depend on
    the thread count."""
    h_set = list(h_set)
    time_grid = np.asarray(time_grid, dtype=np.float64)
    if not h_set or time_grid.size == 0:
        raise ValueError("h_set and time_grid must be nonempty")
    # built before any work, so a bad level or seed fails even where the
    # band guard below leaves the generator unused
    configs = [GeneratorConfig(params=HurstParams(h), n_terms=n_terms,
                               seed=seed, workers=0) for h in h_set]
    _check_times(time_grid)
    n_paths = _check_int(n_paths, "n_paths", 1)
    band = _check_tolerance(band, "band")
    start = time.perf_counter()
    report = ValidationReport(
        campaign="covariance-fidelity",
        parameters={"h_set": h_set, "time_grid": time_grid.tolist(),
                    "n_paths": n_paths, "n_terms": configs[0].n_terms,
                    "seed": configs[0].seed, "band": band},
    )
    for h, config in zip(h_set, configs):
        exact = covariance_matrix(time_grid, h)
        # 4 standard errors of the worst entry under the analytic law
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2)
                     / n_paths)
        four_se = float(4.0 * se.max())
        if n_paths < MIN_INFORMATIVE_PATHS:
            report.records.append(CheckRecord.failure(
                f"cov-band-guard/H={h}",
                "Monte Carlo band must be informative",
                f"band too wide to be informative: {n_paths} paths give a "
                f"4-SE band of {four_se:.3f}"))
            continue
        emp = _raw_covariance(
            generate_ensemble(time_grid, config, n_paths).values)
        report.records.append(CheckRecord.upper(
            f"cov-expansion/H={h}",
            "ensemble covariance matches the fractional Brownian law",
            float(np.abs(emp - exact).max()), band,
            f"4-SE reference band {four_se:.4f}"))
        # exact-sampler baseline: the band must be attainable at all
        emp = _raw_covariance(
            cholesky_sample(time_grid, h, seed, n_paths).values)
        report.records.append(CheckRecord.upper(
            f"cov-exact-sampler/H={h}",
            "exact sampler attains the same Monte Carlo band",
            float(np.abs(emp - exact).max()), band))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# convergence-rate campaign

DEFAULT_RATE_LADDER = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _check_ladder(ladder) -> tuple[int, ...]:
    """``ladder`` as a tuple of ints, or a ValueError naming it unless it
    is nonempty and every rung is an index >= 1 (:func:`check_index`)."""
    ladder = tuple(ladder)
    message = f"ladder rungs must be integers >= 1, got {ladder}"
    if not ladder:
        raise ValueError(message)
    return tuple(check_index(_check_int(n, "rung", 1, message=message))
                 for n in ladder)


def _rate_for_h(p: HurstParams, ladder, grid, loads) -> list[float]:
    """Median over seeds of the sup-error of each rung below the top one,
    measured against the top rung on the same noise.  ``loads`` holds each
    seed's loads 0..ladder[-1] of at least the series kept at ``p``
    (:func:`expansion._series_factors`).

    Each block of ``RATE_BLOCK`` instants returns, per rung and seed, only
    the maximum of |W_n - W_ref| over its instants.  A series' rows are
    contracted once per ladder segment (n_{r-1}, n_r] by GEMM, over 25
    times faster here than the path kernel's row-wise sums; the running
    sum after a segment is that rung's value.  Blocks run on one thread
    per CPU (at most one per block), independently of the thread count,
    and hold one series' rows at a time: at most min(CPUs, blocks) x
    RATE_BLOCK x (ladder[-1] + 1) coefficients, plus node values, are live.
    """
    def block_errors(ts: np.ndarray) -> np.ndarray:
        values = np.zeros((len(ladder), len(loads), ts.size))
        for k, (kind, factor) in enumerate(zip(SERIES, _series_factors(p))):
            # one call spans every index: each level strides the finest nodes
            rows = coeff_matrix(kind, ts, p, 0, ladder[-1])
            acc = np.zeros((len(loads), ts.size))
            for value, lo, hi in zip(values, (-1,) + ladder, ladder):
                acc += loads[:, k, lo + 1:hi + 1] @ rows[:, lo + 1:hi + 1].T
                value += factor * acc
        values *= p.c_h
        return np.abs(values[:-1] - values[-1]).max(axis=2)

    errors = np.max(_fan_out(block_errors, [
        grid[i:i + RATE_BLOCK] for i in range(0, grid.size, RATE_BLOCK)], 0),
        axis=0)
    return [float(e) for e in np.median(errors, axis=1)]


def run_rate_campaign(h_set, n_ladder=DEFAULT_RATE_LADDER, time_grid=None,
                      n_seeds: int = 32, seed0: int = 0) -> ValidationReport:
    """Sup-error contraction rates on a doubling ladder of truncations.

    The ladder's top rung serves as the reference value on the same noise
    (bundles are nested, so differences measure series truncation only)
    and is excluded from the regression.  Per Hurst index, the median
    sup-error over seeds is fitted log-log against N and the slope is
    compared to -min(H, 1-H) within ``RATE_SLOPE_TOL``; the sqrt(log N)
    factor of the theoretical rate is absorbed by that band, as annotated
    on each record.
    """
    h_set = list(h_set)
    if not h_set:
        raise ValueError("h_set must be nonempty")
    params = [HurstParams(h) for h in h_set]
    n_ladder = _check_ladder(n_ladder)
    if len(n_ladder) < 5:
        raise ValueError("ladder needs at least 5 rungs")
    if any(b != 2 * a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError("ladder must double at every rung")
    n_seeds = _check_int(n_seeds, "n_seeds", 1)
    seeds = _seeds(seed0, n_seeds)
    if time_grid is None:
        time_grid = default_sup_grid()
    time_grid = _check_times(np.asarray(time_grid, dtype=np.float64))
    start = time.perf_counter()
    report = ValidationReport(
        campaign="convergence-rate",
        parameters={"h_set": h_set, "ladder": list(n_ladder),
                    "n_seeds": n_seeds, "seed0": seeds[0],
                    "slope_tol": RATE_SLOPE_TOL,
                    "grid_size": int(time_grid.size)},
    )
    # each seed is drawn once, for the most series kept; H = 1/2 reads the
    # first (l1) alone
    n_series = max(len(_series_factors(p)) for p in params)
    (loads,) = _load_blocks(seeds, n_series, n_ladder[-1], n_seeds)
    fit_rungs = n_ladder[:-1]
    fits = {}
    for h, p in zip(h_set, params):
        med = _rate_for_h(p, n_ladder, time_grid, loads)
        # a zero error (the series exact on the grid) has no logarithm
        slope = halfwidth = math.nan
        if min(med) > 0.0:
            slope, halfwidth = fit_loglog_slope(fit_rungs, med)
        fits[str(h)] = {"n": list(fit_rungs), "errors": med, "slope": slope,
                        "halfwidth": halfwidth}
        if not slope < 0.0 or med[-1] >= med[0]:
            report.records.append(CheckRecord.failure(
                f"rate-slope/H={h}",
                "sup-error must contract along the ladder",
                f"degenerate fit: errors {med}"))
            continue
        report.records.append(CheckRecord.band(
            f"rate-slope/H={h}",
            "sup-error contracts like N^(-min(H, 1-H)) "
            "(sqrt(log N) absorbed by the band)",
            slope, -min(p.h, 1.0 - p.h), RATE_SLOPE_TOL,
            f"fit 2-sigma half-width {halfwidth:.3f}, "
            f"median sup-errors {['%.4g' % e for e in med]}"))
    report.parameters["fits"] = fits
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Brownian degeneration campaign


def run_brownian_campaign(n_paths: int = 10000, n_terms: int = 1023,
                          seed: int = 0) -> ValidationReport:
    """At H = 1/2 the expansion must degenerate to Brownian motion: to the
    Levy-Ciesielski sum of Schauder tents against l1 (c_H = 1, the F1
    coefficients are the tents at t, F2 and g drop out), with Brownian
    increments.  The ensemble runs on one thread per CPU; the report does
    not depend on the thread count."""
    n_paths = _check_int(n_paths, "n_paths", MIN_INFORMATIVE_PATHS)
    config = GeneratorConfig(params=HurstParams(0.5),
                             n_terms=n_terms, seed=seed, workers=0)
    n_terms, seed = config.n_terms, config.seed
    start = time.perf_counter()
    report = ValidationReport(
        campaign="brownian-degeneration",
        parameters={"n_paths": n_paths, "n_terms": n_terms, "seed": seed},
    )
    grid = np.linspace(0.0, 1.0, 17)[1:]
    path = generate_path(grid, config).values
    l1 = draw_bundle(seed, n_terms).l1
    worst = max(abs(w - math.fsum(l1[n] * haar_antiderivative(n, float(t))
                                  for n in range(n_terms + 1)))
                for t, w in zip(grid, path))
    report.records.append(CheckRecord.upper(
        "brownian/levy-ciesielski",
        "at H = 1/2 the path is the Levy-Ciesielski sum of Schauder tents",
        worst, LEVY_CIESIELSKI_TOL))

    values = generate_ensemble(np.array([0.5, 1.0]), config, n_paths).values
    inc1 = values[:, 0]
    inc2 = values[:, 1] - values[:, 0]
    for label, inc in (("0.0-0.5", inc1), ("0.5-1.0", inc2)):
        report.records.append(CheckRecord.band(
            f"brownian/increment-var/{label}",
            "Brownian increment variance equals the interval length",
            float(np.var(inc, ddof=1)), 0.5, BROWNIAN_VAR_REL_TOL * 0.5))
    corr = float(np.corrcoef(inc1, inc2)[0, 1])
    report.records.append(CheckRecord.band(
        "brownian/increment-corr",
        "disjoint Brownian increments are uncorrelated",
        corr, 0.0, BROWNIAN_CORR_TOL))
    report.elapsed_seconds = time.perf_counter() - start
    return report
