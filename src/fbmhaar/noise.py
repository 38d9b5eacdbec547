"""Deterministic generation of the per-path Gaussian noise bundle.

One sample path consumes 3N + 4 independent standard normals: three
series of N + 1 loads plus one terminal variate. Each of the four groups
is drawn from its own PCG64 substream (SeedSequence spawn keys 0..3 of
the path seed), so enlarging N extends every group in place without
shifting the others. Normals come from the inverse normal CDF applied to
``u = ((raw >> 11) + 0.5) * 2**-53``, one uint64 of stream per variate;
with a fixed numpy/scipy pair this is bit-reproducible across platforms.
The formula is evaluated in float64, where ``k + 0.5`` rounds to even for
``k = raw >> 11 >= 2**52``: the top ``k = 2**53 - 1`` would give u = 1.0
and an infinite normal, so u is clamped to ``1 - 2**-53``.  Only those
raw values change, and every normal is finite, from -8.2924 to 8.2095.

Series k of the expansion reads array ``l{k+1}``, family k.  A single
path takes its loads from its bundle (:func:`_bundle_loads`).  Ensembles
and the rate campaign draw the same loads a block of paths at a time
with :func:`_load_blocks`.  It computes the SeedSequence state words of
many seeds in one vectorised uint32 port of numpy's mixing, seeds one
PCG64 per stream from its words, writes every raw draw of a block into
one uint64 array, and converts that array to normals in place.  It
draws only the families of the series read, and never the terminal
variate.

``scipy.special`` is imported inside :func:`_raw_to_normals`, on the
first draw, so that importing the package and commands that draw no
noise (``dump-coeffs``) do not load it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .haar import _check_int, _check_seed, check_index

_FAMILY_L1, _FAMILY_L2, _FAMILY_L3, _FAMILY_STAR = 0, 1, 2, 3
# spawn keys >= 16 are reserved for other consumers (e.g. the exact sampler)
ORACLE_FAMILY = 16

_MAGIC = b"FBHB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
# Largest single read of a bundle file: a header claiming a huge N must
# fail as truncated, not preallocate its arrays.
_READ_CHUNK = 2**20

# numpy's SeedSequence constants: pool size, hash and mix multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# Seeds whose state words one vectorised call computes at least: a call
# costs about the same for 1 seed as for 1024.
_SEED_CHUNK = 1024
# Elements cast from raw draws to floats in one call: 512 KiB.
_PIECE = 2**16
# Largest k + 0.5 kept, so that u = (k + 0.5) 2**-53 stays below 1.
_K_TOP = 2.0**53 - 1


@dataclass(frozen=True)
class NoiseBundle:
    """The 3N + 4 standard-normal variates of one realization; immutable."""

    seed: int
    n_terms: int
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    lstar: float

    def __post_init__(self):
        for arr in (self.l1, self.l2, self.l3):
            if arr.shape != (self.n_terms + 1,):
                raise ValueError("noise arrays must have length n_terms + 1")
            arr.setflags(write=False)


def stream_normals(seed: int, family: int, count: int) -> np.ndarray:
    """First ``count`` normals of the given substream of ``seed``."""
    seed = _check_seed(seed)
    family = _check_int(family, "family")
    bg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(family,)))
    return _raw_to_normals(bg.random_raw(_check_int(count, "count")))


def _raw_to_normals(raw: np.ndarray) -> np.ndarray:
    """``ndtri(min((raw >> 11) + 0.5, 2**53 - 1) * 2**-53)``, computed in
    the memory of the uint64 array ``raw``, which it consumes."""
    raw >>= np.uint64(11)
    # numpy copies an input that aliases the output of a casting ufunc,
    # so the cast runs in pieces of _PIECE
    normals = raw.view(np.float64)
    flat_raw, flat = raw.reshape(-1), normals.reshape(-1)
    for a in range(0, flat.size, _PIECE):
        piece = np.add(flat_raw[a:a + _PIECE], 0.5, out=flat[a:a + _PIECE])
        # the top raw values round up to 2**53, that is u = 1.0
        np.minimum(piece, _K_TOP, out=piece)
    normals *= 2.0**-53
    from scipy.special import ndtri
    return ndtri(normals, out=normals)


def draw_bundle(seed: int, n_terms: int) -> NoiseBundle:
    """Draw the bundle for (seed, N); bit-identical on repetition."""
    seed = _check_seed(seed)
    n_terms = check_index(_check_int(n_terms, "n_terms"))
    count = n_terms + 1
    return NoiseBundle(
        seed=seed,
        n_terms=n_terms,
        l1=stream_normals(seed, _FAMILY_L1, count),
        l2=stream_normals(seed, _FAMILY_L2, count),
        l3=stream_normals(seed, _FAMILY_L3, count),
        lstar=float(stream_normals(seed, _FAMILY_STAR, 1)[0]),
    )


def _seed_words(seeds, families) -> np.ndarray:
    """``SeedSequence(s, spawn_key=(f,)).generate_state(4, np.uint64)`` for
    every seed s and family f, shape (seeds, families, 4).

    A vectorised port of numpy's mixing.  Given a spawn key, numpy pads the
    run entropy with zeros to the pool size, so every 64-bit seed assembles
    the same five uint32 words ``[lo, hi, 0, 0, f]``.  The hash constants
    evolve independently of the data, so they stay Python ints; every
    product is taken on arrays, whose uint32 arithmetic wraps silently.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        out ^= out >> 16
        return out

    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in ((seeds & _M32).astype(np.uint32),
                                       (seeds >> 32).astype(np.uint32),
                                       zero, zero)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # the fifth word, the family, mixes into every pool word
    family = np.array(families, dtype=np.uint32)
    pool = [mix(word[:, None], hashmix(family)) for word in pool]

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        state.append(value.astype(np.uint64))
    return np.stack([state[i] | state[i + 1] << 32
                     for i in range(0, 2 * _POOL, 2)], axis=-1)


class _StateWords(ISeedSequence):
    """Hands a PCG64 its precomputed ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _normals(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` normals of the stream of each of ``words``
    (shape (..., 4)), shape (..., count): :func:`stream_normals` for many
    streams, with one conversion over all their raw draws."""
    raw = np.empty(words.shape[:-1] + (count,), dtype=np.uint64)
    for w, row in zip(words.reshape(-1, _POOL), raw.reshape(-1, count)):
        row[:] = np.random.PCG64(_StateWords(w)).random_raw(count)
    return _raw_to_normals(raw)


def _bundle_loads(bundle: NoiseBundle, n_series: int,
                  n_terms: int) -> np.ndarray:
    """Loads 0..n_terms of the first ``n_series`` arrays of ``bundle``,
    shape (1, n_series, n_terms + 1), as :func:`_load_blocks` draws them."""
    arrays = (bundle.l1, bundle.l2, bundle.l3)[:n_series]
    return _zero_far_past(np.array([[a[:n_terms + 1] for a in arrays]]))


def _load_blocks(seeds, n_series: int, n_terms: int, per_block: int):
    """Loads 0..n_terms of families ``0..n_series - 1`` for ``per_block``
    seeds at a time, shape (paths, n_series, n_terms + 1): bit for bit
    what :func:`_bundle_loads` makes of the bundles of those seeds.  The
    state words come from :func:`_seed_words` in chunks of at least
    ``_SEED_CHUNK`` seeds.  The generator keeps no reference to a block
    it has yielded."""
    count = n_terms + 1
    step = per_block * -(-_SEED_CHUNK // per_block)
    for i in range(0, len(seeds), step):
        words = _seed_words(seeds[i:i + step], range(n_series))
        for j in range(0, len(words), per_block):
            yield _zero_far_past(_normals(words[j:j + per_block], count))


def _zero_far_past(loads: np.ndarray) -> np.ndarray:
    """``loads`` (paths, series, indices), zeroed in place at n = 0 of the
    far-past series, which starts at n = 1 (``fbmhaar.expansion``)."""
    loads[:, 2:, :1] = 0.0
    return loads


def dump_bundle(bundle: NoiseBundle, fh: BinaryIO) -> None:
    """Write the little-endian binary form: header, l1, l2, l3, lstar."""
    fh.write(_HEADER.pack(_MAGIC, _VERSION, bundle.seed, bundle.n_terms))
    for arr in (bundle.l1, bundle.l2, bundle.l3):
        fh.write(arr.astype("<f8").tobytes())
    fh.write(struct.pack("<d", bundle.lstar))


def _read_exact(fh: BinaryIO, size: int, missing: str) -> bytes:
    """The next ``size`` bytes of ``fh``, read in pieces of at most
    ``_READ_CHUNK``; a ValueError naming what is ``missing`` if the stream
    ends first."""
    pieces = []
    while size > 0:
        piece = fh.read(min(size, _READ_CHUNK))
        if not piece:
            raise ValueError(f"truncated bundle file: {missing}")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def load_bundle(fh: BinaryIO) -> NoiseBundle:
    """Read a bundle written by :func:`dump_bundle`."""
    header = _read_exact(fh, _HEADER.size, "short header")
    magic, version, seed, n_terms = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValueError(f"not a noise bundle file (magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"unsupported bundle version {version}")
    count = check_index(n_terms) + 1
    arrays = [np.frombuffer(_read_exact(fh, 8 * count, "short array"),
                            dtype="<f8").astype(np.float64) for _ in range(3)]
    (lstar,) = struct.unpack(
        "<d", _read_exact(fh, 8, "missing terminal variate"))
    return NoiseBundle(seed=seed, n_terms=n_terms,
                       l1=arrays[0], l2=arrays[1], l3=arrays[2], lstar=lstar)
