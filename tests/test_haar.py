import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmhaar import validation
from fbmhaar.coefficients import CoefficientKind, HurstParams, coeff_matrix
from fbmhaar.expansion import GeneratorConfig
from fbmhaar.haar import (
    MAX_INDEX,
    MAX_LEVEL,
    check_index,
    dyadic_arrays,
    haar_antiderivative,
    haar_eval,
    split_index,
    support_interval,
)
from fbmhaar.noise import draw_bundle, load_bundle

SQRT2 = np.sqrt(2.0)


def test_split_index_scaling_marker():
    idx = split_index(0)
    assert idx.is_scaling
    assert idx.j is None and idx.k is None


@pytest.mark.parametrize("n,j,k", [(1, 0, 0), (5, 2, 1), (2, 1, 0),
                                   (255, 7, 127), (256, 8, 0)])
def test_split_index_levels(n, j, k):
    idx = split_index(n)
    assert (idx.j, idx.k) == (j, k)
    assert n == 2**j + k
    assert 0 <= k < 2**j


def test_split_index_rejects_negative():
    with pytest.raises(ValueError):
        split_index(-1)


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


def test_dyadic_arrays_match_split_index():
    j, k, amp, a, m, b = dyadic_arrays(1, 300)
    for i, n in enumerate(range(1, 301)):
        idx = split_index(n)
        assert j[i] == idx.j and k[i] == idx.k
        sup = support_interval(n)
        assert (a[i], m[i], b[i]) == (sup.a, sup.m, sup.b)
        assert amp[i] == 2.0 ** (idx.j / 2)


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
])
def test_index_cap_checked_before_allocation(entry, n, monkeypatch):
    # past level 41 a coefficient block or bundle would need terabytes
    monkeypatch.setattr(validation, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match=f"level {n.bit_length() - 1} "
                                         "exceeds supported maximum"):
        entry(n)

