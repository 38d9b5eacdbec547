import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmhaar import validation
from fbmhaar.coefficients import CoefficientKind, HurstParams, coeff_matrix
from fbmhaar.expansion import (GeneratorConfig, eval_w, generate_ensemble,
                               generate_path)
from fbmhaar.haar import (
    MAX_INDEX,
    MAX_LEVEL,
    check_index,
    dyadic_arrays,
    haar_antiderivative,
    haar_eval,
    support_interval,
)
from fbmhaar.noise import draw_bundle, load_bundle, stream_normals
from fbmhaar.oracle import cholesky_sample, quad_coefficient

SQRT2 = np.sqrt(2.0)


def test_split_index_scaling_marker():
    # n = 0 is the scaling function: it carries no (j, k), so no wavelet support
    with pytest.raises(ValueError, match="index 0 is the scaling function"):
        support_interval(0)


@pytest.mark.parametrize("n,j,k", [(1, 0, 0), (5, 2, 1), (2, 1, 0),
                                   (255, 7, 127), (256, 8, 0)])
def test_split_index_levels(n, j, k):
    # support_interval splits the flat index as n = 2**j + k
    sup = support_interval(n)
    assert (sup.j, sup.k) == (j, k)
    assert n == 2**j + k
    assert 0 <= k < 2**j


def test_split_index_rejects_negative():
    with pytest.raises(ValueError, match="flat index must be nonnegative"):
        support_interval(-1)


def test_haar_eval_examples():
    assert haar_eval(0, 0.3) == 1.0
    assert haar_eval(1, 0.25) == 1.0
    assert haar_eval(1, 0.75) == -1.0
    assert haar_eval(2, 0.2) == pytest.approx(SQRT2, abs=1e-15)


def test_haar_eval_right_endpoint_convention():
    # the last wavelet of each level takes its negative value at s = 1
    assert haar_eval(1, 1.0) == -1.0
    assert haar_eval(3, 1.0) == -SQRT2
    # interior right endpoints belong to the next wavelet
    assert haar_eval(2, 0.5) == 0.0
    assert haar_eval(3, 0.5) == SQRT2


def test_haar_eval_domain_error():
    with pytest.raises(ValueError):
        haar_eval(1, 1.5)
    with pytest.raises(ValueError):
        haar_eval(1, -0.1)


def test_antiderivative_examples():
    assert haar_antiderivative(0, 0.4) == pytest.approx(0.4)
    assert haar_antiderivative(1, 0.5) == pytest.approx(0.5)
    assert haar_antiderivative(1, 1.0) == 0.0  # vanishing moment
    with pytest.raises(ValueError):
        haar_antiderivative(1, -0.2)


@given(st.integers(min_value=1, max_value=2047),
       st.floats(min_value=0.0, max_value=1.0))
def test_support_property(n, s):
    sup = support_interval(n)
    inside = sup.a <= s <= sup.b
    if not inside:
        assert haar_eval(n, s) == 0.0
    else:
        assert abs(haar_eval(n, s)) in (0.0, 2.0 ** (sup.j / 2))


@given(st.integers(min_value=1, max_value=511),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200)
def test_tent_slope_matches_eval(n, x):
    # one-sided difference quotient off the breakpoints equals the wavelet
    sup = support_interval(n)
    h = 2.0 ** -(sup.j + 8)
    if x + h > 1.0 or any(abs(x - edge) < 2 * h
                          for edge in (sup.a, sup.m, sup.b)):
        return
    slope = (haar_antiderivative(n, x + h) - haar_antiderivative(n, x)) / h
    assert slope == pytest.approx(haar_eval(n, x), abs=1e-6)


def test_tent_continuity_and_boundaries():
    for n in (1, 2, 5, 100, 255):
        assert haar_antiderivative(n, 0.0) == 0.0
        assert haar_antiderivative(n, 1.0) == 0.0
        xs = np.linspace(0.0, 1.0, 4097)
        vals = np.array([haar_antiderivative(n, float(x)) for x in xs])
        sup = support_interval(n)
        # max step bounded by amplitude * grid spacing (continuity)
        assert np.abs(np.diff(vals)).max() <= 2.0 ** (sup.j / 2) / 4096 + 1e-15


def test_orthonormality_sample():
    # exact integral via the finest-cell midpoint rule (piecewise constant)
    n_max = 63
    cells = 256
    mid = (np.arange(cells) + 0.5) / cells
    mat = np.array([[haar_eval(n, float(s)) for s in mid]
                    for n in range(n_max + 1)])
    gram = mat @ mat.T / cells
    assert np.abs(gram - np.eye(n_max + 1)).max() < 1e-12


@pytest.mark.parametrize("call", [
    lambda: haar_eval(False, 0.3),
    lambda: haar_eval(0.0, 0.3),
    lambda: haar_antiderivative(False, 0.4),
], ids=["haar_eval-False", "haar_eval-0.0", "haar_antiderivative-False"])
def test_scalar_references_check_index_zero(call):
    # the scaling function's shortcut applies the integer rule first
    with pytest.raises(ValueError, match="flat index must be an integer"):
        call()


def test_dyadic_arrays_match_split_index():
    j, k, amp, a, m, b = dyadic_arrays(1, 300)
    for i, n in enumerate(range(1, 301)):
        sup = support_interval(n)
        assert j[i] == sup.j and k[i] == sup.k
        assert (a[i], m[i], b[i]) == (sup.a, sup.m, sup.b)
        assert amp[i] == 2.0 ** (sup.j / 2)


def test_dyadic_arrays_level_cap():
    with pytest.raises(ValueError):
        dyadic_arrays(2 ** (MAX_LEVEL + 1), 2 ** (MAX_LEVEL + 1))


def test_check_index():
    assert check_index(0) == 0
    assert check_index(MAX_INDEX) == MAX_INDEX
    assert MAX_INDEX.bit_length() - 1 == MAX_LEVEL
    with pytest.raises(ValueError, match=f"level {MAX_LEVEL + 1} exceeds"):
        check_index(MAX_INDEX + 1)


def _no_pool(max_workers):
    raise AssertionError("a process pool started")


def _bundle_header(n_terms):
    return io.BytesIO(struct.pack("<4sIQQ", b"FBHB", 1, 0, n_terms))


@pytest.mark.parametrize("n", [MAX_INDEX + 1, 2**64 - 1])
@pytest.mark.parametrize("entry", [
    lambda n: coeff_matrix(CoefficientKind.F1, np.array([0.5]),
                           HurstParams(0.3), 0, n),
    lambda n: draw_bundle(0, n),
    lambda n: load_bundle(_bundle_header(n)),
    lambda n: GeneratorConfig(HurstParams(0.3), n, 0),
    lambda n: validation.run_coefficient_campaign([0.3], [0.5], n_max=n,
                                                  workers=4096),
    # at t = 0 every family returns 0.0 before it would look at n
    lambda n: quad_coefficient(CoefficientKind.F1, 0.0, HurstParams(0.3), n),
])
def test_index_cap_checked_before_allocation(entry, n, monkeypatch):
    # past level 41 a coefficient block or bundle would need terabytes
    monkeypatch.setattr(validation, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match=f"level {n.bit_length() - 1} "
                                         "exceeds supported maximum"):
        entry(n)



P03 = HurstParams(0.3)
F1 = CoefficientKind.F1
HALF = np.array([0.5])
RATE = {"n_ladder": (32, 64, 128, 256, 512), "time_grid": HALF, "n_seeds": 2}

# (id, the name its errors carry, an entry taking the integer under test,
# a value the entry accepts)
INTEGER_ENTRIES = [
    ("GeneratorConfig.n_terms", "n_terms",
     lambda n: GeneratorConfig(P03, n, 0), 15),
    ("GeneratorConfig.workers", "workers",
     lambda n: GeneratorConfig(P03, 15, 0, n), 2),
    ("eval_w", "n_terms", lambda n: eval_w(0.5, P03, n, draw_bundle(1, 7)), 7),
    ("draw_bundle", "n_terms", lambda n: draw_bundle(0, n), 7),
    ("stream_normals.count", "count", lambda n: stream_normals(0, 0, n), 3),
    ("stream_normals.family", "family", lambda n: stream_normals(0, n, 3), 1),
    ("generate_ensemble", "n_paths",
     lambda n: generate_ensemble(HALF, GeneratorConfig(P03, 7, 0), n), 3),
    ("cholesky_sample", "n_paths",
     lambda n: cholesky_sample(HALF, 0.3, 0, n), 3),
    ("quad_coefficient", "index",
     lambda n: quad_coefficient(F1, 0.5, P03, n), 5),
    ("coeff_matrix.n_lo", "n_lo",
     lambda n: coeff_matrix(F1, HALF, P03, n, 7), 2),
    ("coeff_matrix.n_hi", "n_hi",
     lambda n: coeff_matrix(F1, HALF, P03, 0, n), 7),
    ("support_interval", "flat index", support_interval, 5),
    ("dyadic_arrays.n_lo", "n_lo", lambda n: dyadic_arrays(n, 7), 2),
    ("dyadic_arrays.n_hi", "n_hi", lambda n: dyadic_arrays(1, n), 7),
    ("coefficient.n_max", "n_max",
     lambda n: validation.run_coefficient_campaign([0.3], [0.5], n_max=n), 3),
    ("coefficient.workers", "workers",
     lambda n: validation.run_coefficient_campaign([0.3], [0.5], n_max=3,
                                                   workers=n), 1),
    ("parseval.n_max", "n_max",
     lambda n: validation.run_parseval_campaign([0.3], [0.5], n_max=n), 512),
    ("covariance.n_paths", "n_paths",
     lambda n: validation.run_covariance_campaign([0.3], HALF, n_paths=n,
                                                  n_terms=15, seed=0), 20),
    ("covariance.n_terms", "n_terms",
     lambda n: validation.run_covariance_campaign([0.3], HALF, n_paths=20,
                                                  n_terms=n, seed=0), 15),
    ("rate.n_seeds", "n_seeds",
     lambda n: validation.run_rate_campaign([0.3], **{**RATE, "n_seeds": n}),
     2),
    ("rate.ladder", "ladder",
     lambda n: validation.run_rate_campaign(
         [0.3], **{**RATE, "n_ladder": (32, 64, 128, 256, n)}), 512),
    ("brownian.n_paths", "n_paths",
     lambda n: validation.run_brownian_campaign(n_paths=n, n_terms=3), 1000),
    ("brownian.n_terms", "n_terms",
     lambda n: validation.run_brownian_campaign(n_paths=1000, n_terms=n), 3),
]


@pytest.mark.parametrize("name, entry, good", [e[1:] for e in INTEGER_ENTRIES],
                         ids=[e[0] for e in INTEGER_ENTRIES])
def test_one_integer_rule(name, entry, good):
    # a float, a bool and a negative count each fail up front with an
    # error naming the argument, not inside numpy; a numpy integer is an
    # integer, and reports record it as a plain int
    for bad in (2.5, True, -1):
        with pytest.raises(ValueError, match=name):
            entry(bad)
    result = entry(np.int64(good))
    if isinstance(result, validation.ValidationReport):
        assert "int64" not in result.to_json()


def test_numpy_truncation_generates_the_same_path():
    times = np.linspace(0.0, 1.0, 9)
    want = generate_path(times, GeneratorConfig(P03, 63, 4)).values
    got = generate_path(times, GeneratorConfig(P03, np.int64(63), 4)).values
    assert got.tobytes() == want.tobytes()
