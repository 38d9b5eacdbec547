import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmhaar.coefficients import (
    CoefficientKind,
    HurstParams,
    coeff_matrix,
    coeff_vector,
)
from fbmhaar.oracle import exact_covariance
from fbmhaar import expansion
from fbmhaar.expansion import (
    Ensemble,
    GeneratorConfig,
    PathSample,
    _contract,
    eval_w,
    expansion_terms,
    generate_ensemble,
    generate_path,
    stack_loads,
)
from fbmhaar.noise import NoiseBundle, draw_bundle

P025 = HurstParams.from_hurst(0.25)
P03 = HurstParams.from_hurst(0.3)
P05 = HurstParams.from_hurst(0.5)
P07 = HurstParams.from_hurst(0.7)
P075 = HurstParams.from_hurst(0.75)


def plain_dot(coeffs, loads):
    # independent of the compensated path: naive left-to-right accumulation
    total = 0.0
    for c, l in zip(coeffs, loads):
        total += float(c) * float(l)
    return total


def synthetic_bundle(n_terms, fill):
    arr = np.full(n_terms + 1, fill, dtype=np.float64)
    return NoiseBundle(seed=0, n_terms=n_terms, l1=arr.copy(),
                       l2=arr.copy(), l3=arr.copy(), lstar=fill)


def component(load, t, p, n, b):
    """:func:`eval_w` on ``b`` with every load array but ``load`` zeroed:
    the one component of the expansion that ``load`` carries."""
    zero = np.zeros(b.n_terms + 1)
    arrays = {name: getattr(b, name) if name == load else zero
              for name in ("l1", "l2", "l3")}
    return eval_w(t, p, n, NoiseBundle(seed=b.seed, n_terms=b.n_terms,
                                       lstar=b.lstar, **arrays))


class TestComponents:
    def test_w1_zero_time(self):
        b = draw_bundle(3, 15)
        assert component("l1", 0.0, P03, 15, b) == 0.0

    def test_w1_terminal_brownian(self):
        # at H = 1/2 and t = 1 only the scaling coefficient survives
        b = draw_bundle(11, 31)
        assert component("l1", 1.0, P05, 31, b) == pytest.approx(b.l1[0],
                                                                  abs=1e-15)

    def test_w1_against_plain_dot(self):
        b = draw_bundle(7, 255)
        coeffs = coeff_vector(CoefficientKind.F1, 0.5, P03, 255)
        expected = P03.c_h * plain_dot(coeffs, b.l1)
        assert component("l1", 0.5, P03, 255, b) == pytest.approx(
            expected, abs=1e-12)

    def test_w2_zero_cases(self):
        b = draw_bundle(5, 15)
        assert component("l2", 0.0, P025, 15, b) == 0.0
        assert component("l2", 0.7, P05, 15, b) == 0.0

    def test_w2_single_term(self):
        b = draw_bundle(5, 15)
        f2_0 = coeff_vector(CoefficientKind.F2, 1.0, P025, 0)[0]
        expected = P025.c_h * f2_0 * b.l2[0]
        assert component("l2", 1.0, P025, 0, b) == pytest.approx(
            expected, abs=1e-15)

    def test_w3_zero_cases(self):
        b = draw_bundle(5, 15)
        assert component("l3", 0.7, P05, 15, b) == 0.0
        assert component("l3", 0.0, P075, 15, b) == 0.0
        # the series starts at n = 1, so truncation at 0 leaves nothing
        assert component("l3", 1.0, P075, 0, b) == 0.0

    def test_w3_single_term(self):
        b = draw_bundle(5, 15)
        g1 = coeff_vector(CoefficientKind.G, 1.0, P075, 1)[1]
        expected = -P075.c_h * P075.h_minus_half * g1 * b.l3[1]
        assert component("l3", 1.0, P075, 1, b) == pytest.approx(
            expected, abs=1e-15)

    def test_w3_ignores_terminal_variate(self):
        # same arrays, different terminal variate: identical far-past value
        b = draw_bundle(5, 15)
        tweaked = NoiseBundle(seed=b.seed, n_terms=b.n_terms, l1=b.l1.copy(),
                              l2=b.l2.copy(), l3=b.l3.copy(),
                              lstar=b.lstar + 10.0)
        assert (component("l3", 0.9, P07, 15, b)
                == component("l3", 0.9, P07, 15, tweaked))

    def test_capacity_check(self):
        b = draw_bundle(1, 7)
        with pytest.raises(ValueError):
            eval_w(0.5, P03, 8, b)

    @pytest.mark.parametrize("n_terms", [-1, -5])
    def test_negative_truncation_rejected(self, n_terms):
        with pytest.raises(ValueError,
                           match=f"n_terms must be nonnegative, got {n_terms}"):
            eval_w(0.5, P03, n_terms, draw_bundle(1, 7))


class TestFullExpansion:
    def test_zero_time(self):
        b = draw_bundle(9, 63)
        assert eval_w(0.0, P07, 63, b) == 0.0

    def test_brownian_reduces_to_w1(self):
        b = draw_bundle(9, 63)
        for t in (0.2, 0.5, 1.0):
            assert eval_w(t, P05, 63, b) == component("l1", t, P05, 63, b)

    def test_sum_of_parts(self):
        b = draw_bundle(17, 511)
        t = 0.5
        parts = sum(component(load, t, P07, 511, b)
                    for load in ("l1", "l2", "l3"))
        assert eval_w(t, P07, 511, b) == pytest.approx(parts, abs=1e-12)

    def test_linearity_in_noise(self):
        n = 63
        b1 = draw_bundle(100, n)
        b2 = draw_bundle(200, n)
        alpha, beta = 0.6, -1.7
        combo = NoiseBundle(
            seed=0, n_terms=n,
            l1=alpha * b1.l1 + beta * b2.l1,
            l2=alpha * b1.l2 + beta * b2.l2,
            l3=alpha * b1.l3 + beta * b2.l3,
            lstar=alpha * b1.lstar + beta * b2.lstar)
        for t in (0.25, 0.8):
            direct = eval_w(t, P03, n, combo)
            split = (alpha * eval_w(t, P03, n, b1)
                     + beta * eval_w(t, P03, n, b2))
            assert direct == pytest.approx(split, abs=1e-12)

    def test_truncation_nesting_tail_identity(self):
        base = draw_bundle(55, 31)
        ext = draw_bundle(55, 255)
        t = 0.62
        diff = eval_w(t, P07, 255, ext) - eval_w(t, P07, 31, ext)
        f1 = coeff_vector(CoefficientKind.F1, t, P07, 255)
        f2 = coeff_vector(CoefficientKind.F2, t, P07, 255)
        g = coeff_vector(CoefficientKind.G, t, P07, 255)
        tail = sum(
            float(f1[n] * ext.l1[n] + f2[n] * ext.l2[n]
                  - P07.h_minus_half * g[n] * ext.l3[n])
            for n in range(32, 256))
        assert diff == pytest.approx(P07.c_h * tail, abs=1e-12)

    def test_continuity_across_half(self):
        b = draw_bundle(7, 255)
        ref = [eval_w(t, P05, 255, b) for t in (0.3, 0.7, 1.0)]
        for h in (0.5 - 1e-7, 0.5 + 1e-7):
            p = HurstParams.from_hurst(h)
            vals = [eval_w(t, p, 255, b) for t in (0.3, 0.7, 1.0)]
            assert np.abs(np.array(vals) - np.array(ref)).max() < 1e-4


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(params=P05, n_terms=0, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(params=P05, n_terms=4, seed=0, workers=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(params=P05, n_terms=4, seed=-5)


class TestGeneratePath:
    def test_single_zero_instant(self):
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=0)
        sample = generate_path(np.array([0.0]), cfg)
        assert sample.values.tolist() == [0.0]

    def test_zero_pinning_on_grids(self):
        cfg = GeneratorConfig(params=P07, n_terms=63, seed=4)
        sample = generate_path(np.linspace(0.0, 1.0, 9), cfg)
        assert sample.values[0] == 0.0

    def test_workers_bit_identical(self):
        times = np.linspace(0.0, 1.0, 65)
        base = None
        for workers in (1, 4, 8):
            cfg = GeneratorConfig(params=P03, n_terms=127, seed=99,
                                  workers=workers)
            values = generate_path(times, cfg).values
            if base is None:
                base = values
            else:
                assert np.array_equal(base, values)

    def test_values_match_scalar_eval(self):
        times = np.array([0.25, 0.5, 0.75])
        cfg = GeneratorConfig(params=P07, n_terms=63, seed=11)
        sample = generate_path(times, cfg)
        b = draw_bundle(11, 63)
        for t, v in zip(times, sample.values):
            assert v == eval_w(float(t), P07, 63, b)

    def test_instant_values_independent_of_request_set(self):
        # a time instant's value depends only on (t, bundle), never on
        # which other instants were requested alongside it
        cfg = GeneratorConfig(params=P03, n_terms=63, seed=21)
        a = generate_path(np.array([0.25, 0.5, 0.75]), cfg)
        b = generate_path(np.array([0.1, 0.5, 0.9, 0.99]), cfg)
        i = list(a.times).index(0.5)
        j = list(b.times).index(0.5)
        assert a.values[i] == b.values[j]

    def test_times_validation(self):
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=0)
        with pytest.raises(ValueError):
            generate_path(np.array([]), cfg)
        with pytest.raises(ValueError):
            generate_path(np.array([0.5, 0.5]), cfg)
        with pytest.raises(ValueError):
            generate_path(np.array([0.1, 1.2]), cfg)

    @pytest.mark.parametrize("times", [[0.5, math.nan], [math.nan, 0.5],
                                       [0.5, math.inf]])
    def test_non_finite_times_rejected_up_front(self, times):
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=0)
        with pytest.raises(ValueError, match="times must be finite"):
            generate_path(np.array(times), cfg)
        with pytest.raises(ValueError, match="times must be finite"):
            generate_ensemble(np.array(times), cfg, 2)

    def test_memory_is_bounded(self):
        # one T x (N + 1) coefficient matrix alone would take 16 MB in the
        # first case; in the second, rows over all N + 1 indices for every
        # instant of a block would take over 200 MB
        for n_terms, n_times in ((4095, 513), (2**16 - 1, 65)):
            cfg = GeneratorConfig(params=P03, n_terms=n_terms, seed=1)
            tracemalloc.start()
            try:
                generate_path(np.linspace(0.0, 1.0, n_times), cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, (n_terms, n_times)


class TestEnsemble:
    def test_singleton_equals_generate_path(self):
        times = np.linspace(0.0, 1.0, 9)
        cfg = GeneratorConfig(params=P03, n_terms=31, seed=7)
        single = generate_ensemble(times, cfg, 1)[0]
        direct = generate_path(times, cfg)
        assert np.array_equal(single.values, direct.values)

    def test_stride_changes_paths(self):
        times = np.array([0.5, 1.0])
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=3)
        paths = generate_ensemble(times, cfg, 2)
        assert not np.array_equal(paths[0].values, paths[1].values)
        assert paths[1].config.seed == 4

    def test_validated_once(self, monkeypatch):
        check = expansion._check_times
        calls = []

        def counting(times):
            calls.append(1)
            return check(times)

        monkeypatch.setattr(expansion, "_check_times", counting)
        cfg = GeneratorConfig(params=P03, n_terms=7, seed=3)
        generate_ensemble(np.array([0.5, 1.0]), cfg, 100)
        assert len(calls) <= 2

    def test_values_read_only_paths_by_instants(self):
        times = np.array([0.0, 0.25, 1.0])
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=3)
        ens = generate_ensemble(times, cfg, 5)
        assert isinstance(ens, Ensemble)
        assert ens.values.shape == (5, 3) and len(ens) == 5
        assert not ens.values.flags.writeable
        assert np.array_equal(ens.times, times)
        assert np.all(ens.values[:, 0] == 0.0)

    def test_rows_are_path_samples_with_their_seeds(self):
        times = np.array([0.5, 1.0])
        cfg = GeneratorConfig(params=P03, n_terms=15, seed=2**64 - 3)
        ens = generate_ensemble(times, cfg, 4)
        for i, row in enumerate(ens):
            assert isinstance(row, PathSample)
            assert row.config.seed == (2**64 - 3 + i) % 2**64
            assert row.config.seed == ens.seeds[i] == ens[i].config.seed
            assert row.config.params == cfg.params
            assert np.array_equal(row.values, ens.values[i])

    def test_invariants_enforced(self):
        cfg = GeneratorConfig(params=P05, n_terms=4, seed=0)
        times = np.array([0.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            Ensemble(times=times, values=np.array([[0.0, np.nan]]),
                     config=cfg, seeds=(0,))
        with pytest.raises(ValueError, match="one seed per path"):
            Ensemble(times=times, values=np.zeros((2, 2)), config=cfg,
                     seeds=(0,))
        with pytest.raises(ValueError, match="start at zero"):
            Ensemble(times=times, values=np.array([[0.0, 1.0], [0.5, 1.0]]),
                     config=cfg, seeds=(0, 1))
        with pytest.raises(ValueError, match="equal length"):
            Ensemble(times=times, values=np.zeros(2), config=cfg, seeds=(0,))


@pytest.mark.parametrize("h", [0.3, 0.5, 0.75])
def test_series_covariance_matches_exact_law(h):
    # deterministic distributional check, no Monte Carlo: the covariance
    # of W is the coefficient cross-sum, which must reproduce the exact
    # law up to the truncation tail
    p = HurstParams.from_hurst(h)
    ts = np.array([0.25, 0.5, 0.75, 1.0])
    n = 2**14
    f1 = coeff_matrix(CoefficientKind.F1, ts, p, 0, n)
    f2 = coeff_matrix(CoefficientKind.F2, ts, p, 0, n)
    g = coeff_matrix(CoefficientKind.G, ts, p, 0, n)
    cov = p.c_h**2 * (f1 @ f1.T + f2 @ f2.T
                      + p.h_minus_half**2 * (g[:, 1:] @ g[:, 1:].T))
    exact = np.array([[exact_covariance(float(s), float(t), h) for t in ts]
                      for s in ts])
    assert np.abs(cov - exact).max() < 2e-3


class TestPathSample:
    def test_invariants_enforced(self):
        cfg = GeneratorConfig(params=P05, n_terms=4, seed=0)
        with pytest.raises(ValueError):
            PathSample(times=np.array([0.0, 0.5]),
                       values=np.array([1.0, 2.0]), config=cfg)
        with pytest.raises(ValueError):
            PathSample(times=np.array([0.5, 0.25]),
                       values=np.array([0.0, 0.0]), config=cfg)
        with pytest.raises(ValueError):
            PathSample(times=np.array([0.5]), values=np.array([np.inf]),
                       config=cfg)


def fsum_values(times, p, n, bundle):
    """Path values by the module docstring's formula, each summed exactly
    by one math.fsum over every term."""
    f1 = coeff_matrix(CoefficientKind.F1, times, p, 0, n)
    f2 = coeff_matrix(CoefficientKind.F2, times, p, 0, n)
    g = coeff_matrix(CoefficientKind.G, times, p, 0, n)
    out = []
    for i in range(len(times)):
        terms = [c * x for c, x in zip(f1[i], bundle.l1)]
        terms += [c * x for c, x in zip(f2[i], bundle.l2)]
        terms += [-p.h_minus_half * c * x
                  for c, x in zip(g[i, 1:], bundle.l3[1:])]
        out.append(p.c_h * math.fsum(terms))
    return np.array(out)


@settings(max_examples=20, deadline=None)
@given(h=st.floats(0.05, 0.95), n=st.integers(1, 600),
       seed=st.integers(0, 2**64 - 1), size=st.integers(1, 300),
       grid_seed=st.integers(0, 2**32 - 1), ends=st.booleans(),
       n_paths=st.integers(1, 40))
def test_determinism_contracts(h, n, seed, size, grid_seed, ends, n_paths):
    # n crosses the index chunk width; grids over 128 instants split into
    # several blocks, so the workers run concurrently; ensembles of more
    # paths than one block holds cross path blocks
    p = HurstParams.from_hurst(h)
    rng = np.random.default_rng(grid_seed)
    times = np.unique(np.concatenate(
        [rng.random(size), [0.0, 1.0] if ends else []]))
    base = generate_path(times, GeneratorConfig(params=p, n_terms=n,
                                                seed=seed)).values
    both = generate_path(times, GeneratorConfig(params=p, n_terms=n,
                                                seed=seed, workers=2)).values
    assert np.array_equal(base, both)

    subset = np.sort(rng.choice(len(times), rng.integers(1, len(times) + 1),
                                replace=False))
    cfg = GeneratorConfig(params=p, n_terms=n, seed=seed)
    assert np.array_equal(generate_path(times[subset], cfg).values,
                          base[subset])
    perm = rng.permutation(len(times))
    terms = expansion_terms(p)
    bundle = draw_bundle(seed, n)
    loads = stack_loads([bundle], terms, n)
    assert np.array_equal(_contract(terms, loads, times[perm], p, n)[0],
                          base[perm])

    probe = np.sort(rng.choice(len(times), min(len(times), 6), replace=False))
    for i in probe:
        assert eval_w(float(times[i]), p, n, bundle) == base[i]
    ref = fsum_values(times[probe], p, n, bundle)
    assert np.abs(base[probe] - ref).max() <= 1e-12

    paths = generate_ensemble(times[probe], cfg, n_paths)
    for i in sorted({0, n_paths // 2, n_paths - 1}):
        single = generate_path(times[probe], GeneratorConfig(
            params=p, n_terms=n, seed=(seed + i) & (2**64 - 1)))
        assert np.array_equal(paths[i].values, single.values)


@pytest.mark.parametrize("h", [0.3, 0.7])
@pytest.mark.parametrize("n", [expansion._WINDOW, 2 * expansion._WINDOW - 1])
def test_index_windows(h, n):
    # truncations past the first index window: the rows of an instant are
    # built over two windows, the second a partial one at N = _WINDOW
    p = HurstParams(h)
    probe = np.array([0.0, 0.137, 0.25, 0.3, 0.5, 0.61, 0.75, 0.9, 1.0])
    times = np.union1d(probe, np.linspace(0.0, 1.0, 33))
    base = generate_path(times, GeneratorConfig(params=p, n_terms=n,
                                                seed=5)).values
    both = generate_path(times, GeneratorConfig(params=p, n_terms=n,
                                                seed=5, workers=2)).values
    assert np.array_equal(base, both)
    at_probe = base[np.searchsorted(times, probe)]
    cfg = GeneratorConfig(params=p, n_terms=n, seed=5)
    assert np.array_equal(generate_path(probe, cfg).values, at_probe)
    bundle = draw_bundle(5, n)
    for t, v in zip(probe, at_probe):
        assert eval_w(float(t), p, n, bundle) == v
    assert np.abs(at_probe - fsum_values(probe, p, n, bundle)).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(h=st.floats(0.05, 0.95), n=st.integers(1, 300),
       seed=st.integers(0, 2**64 - 1), t=st.floats(0.0, 1.0))
def test_nesting_identity(h, n, seed, t):
    # W(t, 2N) - W(t, N) on nested bundles is exactly the appended terms
    p = HurstParams.from_hurst(h)
    big = draw_bundle(seed, 2 * n)
    ts = np.array([t])
    f1, f2, g = (coeff_matrix(kind, ts, p, n + 1, 2 * n)[0]
                 for kind in (CoefficientKind.F1, CoefficientKind.F2,
                              CoefficientKind.G))
    appended = slice(n + 1, 2 * n + 1)
    tail = math.fsum([*(f1 * big.l1[appended]), *(f2 * big.l2[appended]),
                      *(-p.h_minus_half * g * big.l3[appended])])
    diff = eval_w(t, p, 2 * n, big) - eval_w(t, p, n, draw_bundle(seed, n))
    assert abs(diff - p.c_h * tail) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(h=st.floats(0.05, 0.95), n=st.integers(1, 600),
       rng_seed=st.integers(0, 2**32 - 1), size=st.integers(1, 20),
       n_paths=st.integers(1, 3), a=st.floats(-10.0, 10.0))
def test_contract_is_linear_in_loads(h, n, rng_seed, size, n_paths, a):
    p = HurstParams.from_hurst(h)
    terms = expansion_terms(p)
    rng = np.random.default_rng(rng_seed)
    times = np.unique(rng.random(size))
    l1, l2 = rng.standard_normal((2, n_paths, len(terms), n + 1))
    w1, w2 = (_contract(terms, loads, times, p, n) for loads in (l1, l2))
    combined = _contract(terms, a * l1 + l2, times, p, n)
    scale = max(np.abs(a * w1).max(), np.abs(w2).max())
    assert np.abs(combined - (a * w1 + w2)).max() <= 1e-12 * scale
