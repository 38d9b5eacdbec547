import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmhaar import coefficients
from fbmhaar.coefficients import (
    CoefficientKind,
    HurstParams,
    coeff_matrix,
    coeff_vector,
)
from fbmhaar.expansion import eval_w
from fbmhaar.haar import dyadic_arrays
from fbmhaar.noise import draw_bundle
from fbmhaar.oracle import exact_covariance, quad_coefficient

P01 = HurstParams.from_hurst(0.1)
P025 = HurstParams.from_hurst(0.25)
P03 = HurstParams.from_hurst(0.3)
P05 = HurstParams.from_hurst(0.5)
P075 = HurstParams.from_hurst(0.75)
P09 = HurstParams.from_hurst(0.9)
F1, F2, G = CoefficientKind


def coeff(kind, t, p, n):
    """One coefficient, as a 1 x 1 block."""
    return coeff_matrix(kind, np.array([t]), p, n, n)[0, 0]


# every entry point that takes one time instant, called at time t
SCALAR_TIME_ENTRY_POINTS = {
    "coeff_vector": lambda t: coeff_vector(F1, t, P03, 3),
    "eval_w": lambda t: eval_w(t, P03, 3, draw_bundle(0, 3)),
    "quad_coefficient": lambda t: quad_coefficient(F1, t, P03, 3),
    "exact_covariance": lambda t: exact_covariance(0.5, t, 0.3),
}


@pytest.mark.parametrize("entry", SCALAR_TIME_ENTRY_POINTS)
@pytest.mark.parametrize("t, message", [
    (math.nan, "times must be finite"),
    (math.inf, "times must be finite"),
    (1.5, r"times must lie in \[0, 1\], got 1.5"),
], ids=["nan", "inf", "1.5"])
def test_scalar_time_check(entry, t, message):
    with pytest.raises(ValueError, match=message):
        SCALAR_TIME_ENTRY_POINTS[entry](t)


class TestHurstParams:
    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(ValueError):
                HurstParams.from_hurst(bad)
            with pytest.raises(ValueError):
                HurstParams(bad)

    def test_half_flags(self):
        assert P05.is_half and P05.c_h == 1.0
        assert not P03.is_half
        assert HurstParams.from_hurst(0.5 + 5e-15).is_half
        near = HurstParams.from_hurst(0.5 + 1e-9)
        assert not near.is_half and near.near_half

    def test_normalization_two_routes(self):
        # same constant through an independent Gamma-function identity
        for p in (P01, P03, P075, P09):
            h = p.h
            alt = math.sqrt(math.gamma(2 * h + 1) * math.sin(math.pi * h)) \
                / math.gamma(h + 0.5)
            assert p.c_h == pytest.approx(alt, rel=1e-13)

    def test_derived_fields(self):
        assert P03.h_plus_half == 0.8
        assert P03.h_minus_half == pytest.approx(-0.2)
        assert HurstParams(0.3) == P03
        with pytest.raises(TypeError):
            HurstParams(0.3, c_h=1.0)  # derived, never set by callers


class TestF1:
    def test_constant_kernel(self):
        assert coeff(F1, 1.0, P05, 0) == 1.0
        assert coeff(F1, 1.0, P05, 3) == 0.0  # vanishing moment

    def test_derived_against_oracle(self):
        v = coeff(F1, 0.7, P03, 5)
        q = quad_coefficient(F1, 0.7, P03, 5)
        assert v == pytest.approx(q, abs=1e-8)
        assert v == pytest.approx(-0.024918412930042128, abs=1e-12)

    def test_zero_time(self):
        vec = coeff_vector(CoefficientKind.F1, 0.0, P03, 7)
        assert np.all(vec == 0.0)

    def test_domain_error(self):
        for t, message in ((1.2, "must lie in"),
                           (math.nan, "times must be finite"),
                           (math.inf, "times must be finite")):
            with pytest.raises(ValueError, match=message):
                coeff(F1, t, P03, 1)

    def test_support_beyond_t_is_exact_zero(self):
        # wavelets living entirely to the right of t integrate to zero
        assert coeff(F1, 0.4, P03, 3) == 0.0


class TestF2:
    def test_zero_at_t0(self):
        for p in (P01, P075):
            assert coeff(F2, 0.0, p, 0) == 0.0
            assert coeff(F2, 0.0, p, 11) == 0.0

    def test_exact_zero_at_half(self):
        for n in (0, 1, 17):
            assert coeff(F2, 0.7, P05, n) == 0.0

    def test_closed_form_value(self):
        expected = (2.0**0.75 - 2.0) / 0.75
        assert coeff(F2, 1.0, P025, 0) == pytest.approx(expected, abs=1e-14)
        q = quad_coefficient(F2, 1.0, P025, 0)
        assert coeff(F2, 1.0, P025, 0) == pytest.approx(q, abs=1e-8)


class TestGSeries:
    def test_zero_time(self):
        for n in (0, 1, 9):
            assert coeff(G, 0.0, P03, n) == 0.0

    def test_closed_form_value(self):
        expected = (1.0 - 2.0**0.25) / 0.25
        assert coeff(G, 1.0, P075, 0) == pytest.approx(expected, abs=1e-14)

    def test_derived_against_oracle(self):
        v = coeff(G, 0.5, P03, 6)
        q = quad_coefficient(G, 0.5, P03, 6)
        assert v == pytest.approx(q, abs=1e-8)


class TestVectors:
    def test_zero_time_all_kinds(self):
        for kind in CoefficientKind:
            vec = coeff_vector(kind, 0.0, P075, 7)
            assert np.all(vec == 0.0)

    def test_constant_kernel_vector(self):
        vec = coeff_vector(CoefficientKind.F1, 1.0, P05, 7)
        assert vec[0] == 1.0
        assert np.all(vec[1:] == 0.0)

    def test_half_short_circuit(self):
        for kind in (CoefficientKind.F2, CoefficientKind.G):
            assert np.all(coeff_vector(kind, 0.5, P05, 63) == 0.0)

    def test_immutable(self):
        vec = coeff_vector(CoefficientKind.F1, 0.5, P03, 31)
        with pytest.raises(ValueError):
            vec[0] = 7.0

    def test_matrix_matches_scalars(self):
        ts = np.array([0.0, 0.137, 0.5, 1.0])
        for kind in (F1, F2):
            mat = coeff_matrix(kind, ts, P09, 0, 40)
            for i, t in enumerate(ts):
                for n in (0, 1, 2, 17, 40):
                    assert mat[i, n] == coeff(kind, float(t), P09, n)

    def test_matrix_block_consistency(self):
        ts = np.array([0.3, 0.9])
        full = coeff_matrix(CoefficientKind.G, ts, P075, 0, 63)
        part = coeff_matrix(CoefficientKind.G, ts, P075, 17, 40)
        assert np.array_equal(full[:, 17:41], part)


@pytest.mark.parametrize("h,t,kind,n", [
    (0.1, 0.137, CoefficientKind.F1, 200),
    (0.25, 1.0, CoefficientKind.F1, 37),
    (0.9, 0.5, CoefficientKind.F1, 64),
    (0.1, 1.0, CoefficientKind.F2, 129),
    (0.75, 0.137, CoefficientKind.F2, 255),
    (0.3, 0.5, CoefficientKind.G, 6),
    (0.9, 0.137, CoefficientKind.G, 128),
    (0.75, 1.0, CoefficientKind.G, 255),
])
def test_oracle_equivalence_sample(h, t, kind, n):
    p = HurstParams.from_hurst(h)
    closed = coeff_matrix(kind, np.array([t]), p, n, n)[0, 0]
    assert closed == pytest.approx(quad_coefficient(kind, t, p, n), abs=1e-8)


@given(st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.9]),
       st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_parseval_partial_sums_monotone(h, t):
    p = HurstParams.from_hurst(h)
    sq = coeff_matrix(CoefficientKind.F1, np.array([t]), p, 0, 512)[0] ** 2
    partial = np.cumsum(sq)
    assert np.all(np.diff(partial) >= 0.0)
    assert partial[-1] <= t ** (2 * h) / (2 * h) + 1e-12


def test_parseval_limit_convergence():
    # partial sums approach t**2H/(2H); the deficit scales like N**(-2H)
    for h, rel in ((0.5, 1e-4), (0.75, 1e-6), (0.9, 1e-7)):
        p = HurstParams.from_hurst(h)
        t = 0.73
        sq = coeff_matrix(CoefficientKind.F1, np.array([t]), p, 0, 2**13)[0] ** 2
        limit = t ** (2 * h) / (2 * h)
        assert sq.sum() == pytest.approx(limit, rel=rel)


def test_level_sum_shape():
    # level sums of squared F1 coefficients scale like 2**(-2jH):
    # the normalized ratios stay within a stable band across levels
    for h, t in ((0.3, 0.7), (0.75, 0.41)):
        p = HurstParams.from_hurst(h)
        sq = coeff_matrix(CoefficientKind.F1, np.array([t]), p, 0, 2**12 - 1)[0] ** 2
        ratios = []
        for j in range(2, 12):
            level = sq[2**j: 2**(j + 1)].sum()
            ratios.append(level * 2.0 ** (2 * j * h))
        fitted = max(ratios[:5])
        assert max(ratios) <= 1.5 * fitted


def test_near_half_continuity():
    # W-level continuity across the H = 1/2 boundary is checked in the
    # expansion tests; here the raw series terms stay bounded
    for h in (0.5 - 1e-7, 0.5 + 1e-7):
        p = HurstParams.from_hurst(h)
        vec = coeff_vector(CoefficientKind.G, 0.7, p, 63)
        contrib = p.h_minus_half * vec
        assert np.all(np.isfinite(vec))
        assert np.abs(contrib).max() < 1e-5


# -- per-index closed forms: the reference for the node-value blocks ---------
#
# Every coefficient evaluated for its own index from its own a, m and b,
# with a regime chosen per index; the blocks in fbmhaar.coefficients share
# node values between neighbouring wavelets and levels instead.

def _pos_pow(base, c):
    return np.where(base > 0.0, base, 0.0) ** c


def _reference_f1(ts, p, n_lo, n_hi):
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


def _reference_f2(ts, p, n_lo, n_hi):
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


def _reference_g(ts, p, n_lo, n_hi):
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    width = n_hi - n_lo + 1
    if p.is_half:
        return np.zeros((ts.shape[0], width))
    hm = p.h_minus_half
    out = np.empty((ts.shape[0], width))

    def phi(y):
        return -(y**hm) * np.expm1(hm * np.log1p(ts / y)) / hm

    col = 0
    if n_lo == 0:
        out[:, 0:1] = phi(1.0)
        col = 1
        n_lo = 1
    if n_hi >= n_lo:
        _, k, amp, a, m, b = dyadic_arrays(n_lo, n_hi)
        interior = k > 0
        a_safe = np.where(interior, a, 1.0)
        phi_a = np.where(interior, phi(1.0 / a_safe), 0.0)
        ix_left = phi(1.0 / m) - phi_a
        ix_right = phi(1.0 / b) - phi(1.0 / m)
        pa = _plain_antideriv(a_safe, ts, p)
        pm = _plain_antideriv(m, ts, p)
        pb = _plain_antideriv(b, ts, p)
        val = amp * (ix_left - ix_right) + amp * b * (pm - pb)
        val = val - np.where(interior, amp * a * (pa - pm), 0.0)
        out[:, col:] = val
    return np.where(ts == 0.0, 0.0, out)


def _plain_antideriv(x, ts, p):
    hm, c = p.h_minus_half, p.h_plus_half
    log_z = np.log1p(x * ts)
    bracket = (np.expm1(hm * log_z) - np.expm1(c * log_z) / c) / hm
    return x**-c * bracket


REFERENCE = {F1: (_reference_f1, 1e-15), F2: (_reference_f2, 1e-15),
             G: (_reference_g, 1e-12)}
REFERENCE_TIMES = np.concatenate([[0.0, 1e-9, 1e-3, 0.137, 0.5, 0.73, 1.0],
                                  np.linspace(0.0, 1.0, 41)])


@pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.25, 0.4, 0.5 + 2e-6, 0.6,
                               0.75, 0.9, 0.99])
@pytest.mark.parametrize("n_lo, n_hi", [(0, 2**14), (5000, 7000),
                                        (2**14 - 3, 2**14 + 300)])
def test_node_blocks_match_per_index_closed_forms(h, n_lo, n_hi):
    p = HurstParams(h)
    for kind, (reference, tol) in REFERENCE.items():
        block = coeff_matrix(kind, REFERENCE_TIMES, p, n_lo, n_hi)
        expected = reference(REFERENCE_TIMES, p, n_lo, n_hi)
        assert np.abs(block - expected).max() <= tol, kind


@given(kind=st.sampled_from(list(CoefficientKind)),
       h=st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.9]),
       window=st.tuples(st.integers(0, 2**12), st.integers(0, 600),
                        st.integers(0, 600)),
       ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                   max_size=5),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_coefficient_depends_only_on_its_index_and_instant(kind, h, window,
                                                           ts, data):
    # node values are shared across indices and levels; a shared value must
    # be the same float the index would compute alone
    n, below, above = window
    lo, hi = max(0, n - below), n + above
    p = HurstParams(h)
    ts = np.array(ts)
    block = coeff_matrix(kind, ts, p, lo, hi)
    for m in {n, data.draw(st.integers(lo, hi))}:
        for i in range(len(ts)):
            alone = coeff_matrix(kind, ts[i:i + 1], p, m, m)[0, 0]
            assert block[i, m - lo] == alone


@pytest.mark.parametrize("kind", list(CoefficientKind))
def test_dyadic_endpoints_built_once_per_node_grid(kind, monkeypatch):
    # indices 0..1023 span levels 0..9; every coarser level's nodes and
    # endpoints are strided from the finest level's grid, so the dyadic
    # endpoints are built once, for that level alone
    calls = []

    def counted(n_lo, n_hi):
        calls.append((n_lo, n_hi))
        return dyadic_arrays(n_lo, n_hi)

    monkeypatch.setattr(coefficients, "dyadic_arrays", counted)
    coeff_matrix(kind, np.array([0.3, 0.7]), P03, 0, 1023)
    assert calls == [(512, 1023)]
