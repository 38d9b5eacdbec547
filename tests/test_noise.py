import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmhaar import noise
from fbmhaar.coefficients import HurstParams
from fbmhaar.expansion import GeneratorConfig, _series_factors
from fbmhaar.noise import (
    NoiseBundle,
    draw_bundle,
    dump_bundle,
    load_bundle,
    stream_normals,
)
from fbmhaar.validation import run_rate_campaign

U64 = 2**64 - 1


def test_determinism():
    a = draw_bundle(42, 7)
    b = draw_bundle(42, 7)
    assert np.array_equal(a.l1, b.l1)
    assert np.array_equal(a.l2, b.l2)
    assert np.array_equal(a.l3, b.l3)
    assert a.lstar == b.lstar


def test_frozen_stream_anchor():
    # pins the documented generation scheme (per-family PCG64 substream,
    # one raw draw per variate through the inverse normal CDF); a change
    # in numpy/scipy behavior or in the layout shows up here first
    b = draw_bundle(42, 3)
    assert b.l1.tolist() == [1.3834997468615664, 1.3468558450575734,
                             1.158120192438674, -0.49778325554856656]
    assert b.l2.tolist() == [-0.0815789261743165, -1.6803060071111533,
                             0.24174213221237295, -1.241149564952109]
    assert b.l3.tolist() == [-1.4666238594239625, 0.5538513909813514,
                             -1.4625121069886196, -0.46957989971149455]
    assert b.lstar == 0.7190108010336649


def test_top_raw_values_give_finite_normals():
    # k = raw >> 11 = 2**53 - 1 makes k + 0.5 round to 2**53 (u = 1.0):
    # u is clamped to 1 - 2**-53, and the raw values below keep their u
    from scipy.special import ndtri
    raw = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1, 0],
                   dtype=np.uint64)
    normals = noise._raw_to_normals(raw)
    assert normals.tolist() == [ndtri(1.0 - 2.0**-53)] * 2 + [
        ndtri(1.0 - 2.0**-52), ndtri(2.0**-54)]
    assert -8.2925 < normals.min() and normals.max() < 8.2096


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_nesting_property(seed, n_small, growth):
    small = draw_bundle(seed, n_small)
    big = draw_bundle(seed, n_small + growth)
    assert np.array_equal(big.l1[: n_small + 1], small.l1)
    assert np.array_equal(big.l2[: n_small + 1], small.l2)
    assert np.array_equal(big.l3[: n_small + 1], small.l3)
    assert big.lstar == small.lstar


def test_seed_sensitivity():
    a = draw_bundle(42, 7)
    b = draw_bundle(43, 7)
    assert not (np.array_equal(a.l1, b.l1) and np.array_equal(a.l2, b.l2)
                and np.array_equal(a.l3, b.l3) and a.lstar == b.lstar)


def test_layout_size():
    b = draw_bundle(0, 5)
    # 3N + 4 variates: three series of N + 1 and one terminal variate
    assert b.l1.shape == b.l2.shape == b.l3.shape == (6,)
    assert isinstance(b.lstar, float)


def test_seed_zero_valid():
    b = draw_bundle(0, 3)
    assert np.all(np.isfinite(b.l1))


def test_families_are_distinct_streams():
    b = draw_bundle(123, 63)
    assert not np.array_equal(b.l1, b.l2)
    assert not np.array_equal(b.l2, b.l3)


def test_extension_preserves_prefix():
    base = draw_bundle(42, 7)
    ext = draw_bundle(42, 1023)
    assert np.array_equal(ext.l1[:8], base.l1)
    assert np.array_equal(ext.l2[:8], base.l2)
    assert np.array_equal(ext.l3[:8], base.l3)
    assert ext.lstar == base.lstar
    assert ext.n_terms == 1023


def test_growing_n_does_not_shift_other_families():
    small = draw_bundle(9, 15)
    big = draw_bundle(9, 4095)
    assert big.l2[0] == small.l2[0]
    assert big.l3[10] == small.l3[10]
    assert big.lstar == small.lstar


def test_sample_statistics():
    b = draw_bundle(2024, 1023)
    pooled = np.concatenate([b.l1, b.l2, b.l3, [b.lstar]])
    assert abs(pooled.mean()) < 0.12
    assert 0.9 < pooled.var() < 1.1


def test_immutability():
    b = draw_bundle(5, 3)
    with pytest.raises(ValueError):
        b.l1[0] = 0.0


def test_invalid_args():
    with pytest.raises(ValueError):
        draw_bundle(-1, 3)
    with pytest.raises(ValueError):
        draw_bundle(2**64, 3)
    with pytest.raises(ValueError):
        draw_bundle(3, -1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
@pytest.mark.parametrize("entry", [
    lambda seed: draw_bundle(seed, 3),
    lambda seed: GeneratorConfig(params=HurstParams(0.3), n_terms=3,
                                 seed=seed),
    lambda seed: run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                                   time_grid=np.array([0.5]), n_seeds=2,
                                   seed0=seed),
], ids=["draw_bundle", "GeneratorConfig", "run_rate_campaign"])
def test_one_seed_rule(entry, seed):
    # every entry point names the seed it rejects; a bool is not a seed
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be an unsigned 64-bit integer, got {seed}")):
        entry(seed)
    entry(np.uint64(7))


def test_seed_words_equal_seed_sequence():
    # with every RuntimeWarning an error, this also checks that no uint32
    # product is taken on numpy scalars, which warn on overflow
    rng = np.random.default_rng(2024)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, U64] + [
        int(s) for s in rng.integers(0, U64, 20, dtype=np.uint64,
                                     endpoint=True)]
    families = [0, 1, 2, 3, 16]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        words = noise._seed_words(seeds, families)
    assert words.shape == (len(seeds), len(families), 4)
    assert words.dtype == np.uint64
    for i, seed in enumerate(seeds):
        for j, family in enumerate(families):
            want = np.random.SeedSequence(
                seed, spawn_key=(family,)).generate_state(4, np.uint64)
            assert np.array_equal(words[i, j], want), (seed, family)


@pytest.mark.parametrize("h", [0.3, 0.5])
def test_block_loads_equal_bundles(h):
    # 1100 seeds wrap from 2**64 - 1 to 0, and their state words come in
    # two chunks: 22 blocks of 48 paths, then 44 paths
    n_series = len(_series_factors(HurstParams(h)))
    seeds = [(U64 - 599 + i) & U64 for i in range(1100)]
    blocks = list(noise._load_blocks(seeds, n_series, 2, 48))
    assert noise._SEED_CHUNK <= 22 * 48 < len(seeds)
    assert [len(b) for b in blocks] == [48] * 22 + [44]
    loads = np.concatenate(blocks)
    want = np.concatenate([noise._bundle_loads(draw_bundle(s, 2), n_series, 2)
                           for s in seeds])
    assert loads.shape == want.shape == (1100, n_series, 3)
    assert np.array_equal(loads, want)


def test_stream_normals_prefix_property():
    a = stream_normals(77, 0, 100)
    b = stream_normals(77, 0, 10)
    assert np.array_equal(a[:10], b)


def test_dump_load_roundtrip():
    b = draw_bundle(31337, 63)
    buf = io.BytesIO()
    dump_bundle(b, buf)
    buf.seek(0)
    loaded = load_bundle(buf)
    assert loaded.seed == b.seed and loaded.n_terms == b.n_terms
    assert np.array_equal(loaded.l1, b.l1)
    assert np.array_equal(loaded.l2, b.l2)
    assert np.array_equal(loaded.l3, b.l3)
    assert loaded.lstar == b.lstar


def test_dump_is_little_endian_layout():
    b = draw_bundle(1, 1)
    buf = io.BytesIO()
    dump_bundle(b, buf)
    raw = buf.getvalue()
    assert raw[:4] == b"FBHB"
    assert int.from_bytes(raw[4:8], "little") == 1          # version
    assert int.from_bytes(raw[8:16], "little") == 1         # seed
    assert int.from_bytes(raw[16:24], "little") == 1        # n_terms
    assert len(raw) == 24 + 8 * (3 * 2 + 1)


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_bundle(io.BytesIO(b"NOPE" + bytes(20)))
    b = draw_bundle(4, 3)
    buf = io.BytesIO()
    dump_bundle(b, buf)
    truncated = io.BytesIO(buf.getvalue()[:-9])
    with pytest.raises(ValueError):
        load_bundle(truncated)
    newer = io.BytesIO(struct.pack("<4sIQQ", b"FBHB", 2, 0, 3))
    with pytest.raises(ValueError, match="unsupported bundle version 2"):
        load_bundle(newer)


def test_load_huge_header_is_truncated(tmp_path):
    # a real file, not BytesIO: a buffered reader asked for 8 * (2**40 + 1)
    # bytes in one read allocates them before it finds the end of the file
    path = tmp_path / "header.bin"
    path.write_bytes(struct.pack("<4sIQQ", b"FBHB", 1, 0, 2**40))
    with open(path, "rb") as fh, pytest.raises(
            ValueError, match="truncated bundle file: short array"):
        load_bundle(fh)


def test_bundle_shape_validation():
    with pytest.raises(ValueError):
        NoiseBundle(seed=0, n_terms=3, l1=np.zeros(3), l2=np.zeros(4),
                    l3=np.zeros(4), lstar=0.0)
