import math

import numpy as np
import pytest

from fbmhaar.coefficients import CoefficientKind, HurstParams, coeff_matrix
from fbmhaar.oracle import (
    MAX_CHOLESKY_GRID,
    QuadratureSpec,
    cholesky_factor,
    cholesky_sample,
    covariance_matrix,
    exact_covariance,
    quad_coefficient,
)

P025 = HurstParams.from_hurst(0.25)
P03 = HurstParams.from_hurst(0.3)
P05 = HurstParams.from_hurst(0.5)


class TestQuadrature:
    def test_trivial_constant(self):
        v = quad_coefficient(CoefficientKind.F1, 1.0, P05, 0)
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_f2_matches_closed_example(self):
        v = quad_coefficient(CoefficientKind.F2, 1.0, P025, 0)
        assert v == pytest.approx((2.0**0.75 - 2.0) / 0.75, abs=1e-8)

    def test_zero_integrand(self):
        assert quad_coefficient(CoefficientKind.G, 0.0, P03, 3) == 0.0
        assert quad_coefficient(CoefficientKind.F1, 0.0, P03, 3) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=2)
        with pytest.raises(ValueError):
            quad_coefficient(CoefficientKind.F1, 1.5, P03, 0)

    @pytest.mark.parametrize("kind,t,h,n", [
        (CoefficientKind.F1, 0.7, 0.1, 37),
        (CoefficientKind.F2, 0.137, 0.9, 100),
        (CoefficientKind.G, 0.5, 0.3, 6),
    ])
    def test_self_consistency_under_tightening(self, kind, t, h, n):
        # halving the tolerance moves the result by less than the looser one
        p = HurstParams.from_hurst(h)
        loose = quad_coefficient(kind, t, p, n, QuadratureSpec(abs_tol=1e-8))
        tight = quad_coefficient(kind, t, p, n, QuadratureSpec(abs_tol=5e-9))
        assert abs(loose - tight) < 1e-8


class TestExactCovariance:
    def test_fixed_values(self):
        assert exact_covariance(1.0, 1.0, 0.33) == 1.0
        assert exact_covariance(0.5, 1.0, 0.5) == 0.5

    def test_two_route_power(self):
        # same number through exp/log instead of the ** operator
        direct = exact_covariance(0.25, 0.75, 0.7)
        via_exp = 0.5 * (math.exp(1.4 * math.log(0.25))
                         + math.exp(1.4 * math.log(0.75))
                         - math.exp(1.4 * math.log(0.5)))
        assert direct == pytest.approx(via_exp, rel=1e-14)

    def test_symmetry_and_diagonal(self):
        for h in (0.1, 0.5, 0.9):
            assert exact_covariance(0.3, 0.9, h) == exact_covariance(0.9, 0.3, h)
            assert exact_covariance(0.6, 0.6, h) == pytest.approx(0.6 ** (2 * h))

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_covariance(-0.1, 0.5, 0.5)

    def test_matrix_psd(self):
        times = np.linspace(1.0 / 64, 1.0, 64)
        for h in (0.2, 0.5, 0.8):
            cov = covariance_matrix(times, h)
            assert np.array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov)[0] > -1e-10


class TestCholeskySampler:
    def test_determinism(self):
        a = cholesky_sample(np.array([0.25, 1.0]), 0.3, seed=5, n_paths=3)
        b = cholesky_sample(np.array([0.25, 1.0]), 0.3, seed=5, n_paths=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)

    def test_no_jitter_on_moderate_grids(self):
        _, jitter = cholesky_factor(np.linspace(0.05, 1.0, 32), 0.7)
        assert not jitter

    def test_marginal_variance(self):
        paths = cholesky_sample(np.array([1.0]), 0.42, seed=11, n_paths=10000)
        values = np.array([p.values[0] for p in paths])
        assert 0.94 < values.var() < 1.06

    def test_brownian_cross_covariance(self):
        paths = cholesky_sample(np.array([0.5, 1.0]), 0.5, seed=2,
                                n_paths=20000)
        vals = np.stack([p.values for p in paths])
        est = float((vals[:, 0] * vals[:, 1]).mean())
        assert est == pytest.approx(0.5, abs=0.02)

    def test_zero_time_prepended_deterministically(self):
        paths = cholesky_sample(np.array([0.0, 0.5, 1.0]), 0.3, seed=1,
                                n_paths=2)
        for p in paths:
            assert p.values[0] == 0.0
            assert p.times[0] == 0.0

    def test_grid_cap(self):
        big = np.linspace(1e-4, 1.0, MAX_CHOLESKY_GRID + 1)
        with pytest.raises(ValueError):
            cholesky_sample(big, 0.5, seed=0, n_paths=1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cholesky_sample(np.array([0.5, 0.25]), 0.5, seed=0, n_paths=1)
        with pytest.raises(ValueError):
            cholesky_sample(np.array([0.5]), 0.5, seed=0, n_paths=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected_up_front(self, bad):
        with pytest.raises(ValueError, match="times must be finite"):
            cholesky_sample(np.array([0.5, bad]), 0.5, seed=0, n_paths=1)


def test_quad_agrees_with_closed_forms_on_random_cells():
    rng = np.random.default_rng(7)
    for _ in range(12):
        h = float(rng.uniform(0.05, 0.95))
        if abs(h - 0.5) < 1e-3:
            continue
        p = HurstParams.from_hurst(h)
        t = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(0, 512))
        kind = rng.choice(list(CoefficientKind))
        closed = coeff_matrix(kind, np.array([t]), p, n, n)[0, 0]
        assert closed == pytest.approx(quad_coefficient(kind, t, p, n),
                                       abs=1e-8)
