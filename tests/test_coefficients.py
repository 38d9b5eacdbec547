import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmhaar.coefficients import (
    CoefficientKind,
    HurstParams,
    big_g,
    coeff_f1,
    coeff_f2,
    coeff_g,
    coeff_matrix,
    coeff_vector,
)
from fbmhaar.oracle import quad_coefficient

P01 = HurstParams.from_hurst(0.1)
P025 = HurstParams.from_hurst(0.25)
P03 = HurstParams.from_hurst(0.3)
P05 = HurstParams.from_hurst(0.5)
P075 = HurstParams.from_hurst(0.75)
P09 = HurstParams.from_hurst(0.9)


class TestHurstParams:
    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                HurstParams.from_hurst(bad)

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


class TestF1:
    def test_constant_kernel(self):
        assert coeff_f1(1.0, P05, 0) == 1.0
        assert coeff_f1(1.0, P05, 3) == 0.0  # vanishing moment

    def test_derived_against_oracle(self):
        v = coeff_f1(0.7, P03, 5)
        q = quad_coefficient(CoefficientKind.F1, 0.7, P03, 5)
        assert v == pytest.approx(q, abs=1e-8)
        assert v == pytest.approx(-0.024918412930042128, abs=1e-12)

    def test_zero_time(self):
        vec = coeff_vector(CoefficientKind.F1, 0.0, P03, 7)
        assert np.all(vec.values == 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coeff_f1(1.2, P03, 1)

    def test_support_beyond_t_is_exact_zero(self):
        # wavelets living entirely to the right of t integrate to zero
        assert coeff_f1(0.4, P03, 3) == 0.0


class TestF2:
    def test_zero_at_t0(self):
        for p in (P01, P075):
            assert coeff_f2(0.0, p, 0) == 0.0
            assert coeff_f2(0.0, p, 11) == 0.0

    def test_exact_zero_at_half(self):
        for n in (0, 1, 17):
            assert coeff_f2(0.7, P05, n) == 0.0

    def test_closed_form_value(self):
        expected = (2.0**0.75 - 2.0) / 0.75
        assert coeff_f2(1.0, P025, 0) == pytest.approx(expected, abs=1e-14)
        q = quad_coefficient(CoefficientKind.F2, 1.0, P025, 0)
        assert coeff_f2(1.0, P025, 0) == pytest.approx(q, abs=1e-8)


class TestBigG:
    def test_zero_at_t0(self):
        assert big_g(0.0, P03, 0.5) == 0.0

    def test_direct_substitution(self):
        assert big_g(1.0, P075, 1.0) == pytest.approx(2.0**-0.75 - 1.0,
                                                      abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            big_g(0.5, P03, 0.0)
        with pytest.raises(ValueError):
            big_g(0.5, P03, -1.0)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.75, 0.9])
    def test_small_x_envelope(self, h):
        # |G| stays inside the (3/2) x**(-H-1/2) magnitude envelope
        # multiplied by t (mean-value bound on the bracket)
        p = HurstParams.from_hurst(h)
        for x in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            bound = 1.5 * x ** (-h - 0.5)
            assert abs(big_g(1.0, p, x)) <= bound * (1 + 1e-12)


class TestGSeries:
    def test_zero_time(self):
        for n in (0, 1, 9):
            assert coeff_g(0.0, P03, n) == 0.0

    def test_half_precondition(self):
        with pytest.raises(ValueError):
            coeff_g(0.5, P05, 1)

    def test_closed_form_value(self):
        expected = (1.0 - 2.0**0.25) / 0.25
        assert coeff_g(1.0, P075, 0) == pytest.approx(expected, abs=1e-14)

    def test_derived_against_oracle(self):
        v = coeff_g(0.5, P03, 6)
        q = quad_coefficient(CoefficientKind.G, 0.5, P03, 6)
        assert v == pytest.approx(q, abs=1e-8)


class TestVectors:
    def test_zero_time_all_kinds(self):
        for kind in CoefficientKind:
            vec = coeff_vector(kind, 0.0, P075, 7)
            assert np.all(vec.values == 0.0)

    def test_constant_kernel_vector(self):
        vec = coeff_vector(CoefficientKind.F1, 1.0, P05, 7)
        assert vec.values[0] == 1.0
        assert np.all(vec.values[1:] == 0.0)

    def test_half_short_circuit(self):
        for kind in (CoefficientKind.F2, CoefficientKind.G):
            assert np.all(coeff_vector(kind, 0.5, P05, 63).values == 0.0)

    def test_immutable(self):
        vec = coeff_vector(CoefficientKind.F1, 0.5, P03, 31)
        with pytest.raises(ValueError):
            vec.values[0] = 7.0

    def test_matrix_matches_scalars(self):
        ts = np.array([0.0, 0.137, 0.5, 1.0])
        for kind, fn in ((CoefficientKind.F1, coeff_f1),
                         (CoefficientKind.F2, coeff_f2)):
            mat = coeff_matrix(kind, ts, P09, 0, 40)
            for i, t in enumerate(ts):
                for n in (0, 1, 2, 17, 40):
                    assert mat[i, n] == fn(float(t), P09, n)

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
        vec = coeff_vector(CoefficientKind.G, 0.7, p, 63).values
        contrib = p.h_minus_half * vec
        assert np.all(np.isfinite(vec))
        assert np.abs(contrib).max() < 1e-5
