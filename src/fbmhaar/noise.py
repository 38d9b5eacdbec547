"""Deterministic generation of the per-path Gaussian noise bundle.

One sample path consumes 3N + 4 independent standard normals: three
series of N + 1 loads plus one terminal variate. Each of the four groups
is drawn from its own PCG64 substream (SeedSequence spawn keys 0..3 of
the path seed), so enlarging N extends every group in place without
shifting the others. Normals come from the inverse normal CDF applied to
``((raw >> 11) + 0.5) * 2**-53``, one uint64 of stream per variate; with
a fixed numpy/scipy pair this is bit-reproducible across platforms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np
from scipy.special import ndtri

from .haar import check_index

_FAMILY_L1, _FAMILY_L2, _FAMILY_L3, _FAMILY_STAR = 0, 1, 2, 3
# spawn keys >= 16 are reserved for other consumers (e.g. the exact sampler)
ORACLE_FAMILY = 16

_MAGIC = b"FBHB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
# Largest single read of a bundle file: a header claiming a huge N must
# fail as truncated, not preallocate its arrays.
_READ_CHUNK = 2**20

_U64_MAX = 2**64 - 1


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
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    bg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(family,)))
    raw = bg.random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def draw_bundle(seed: int, n_terms: int) -> NoiseBundle:
    """Draw the bundle for (seed, N); bit-identical on repetition."""
    if n_terms < 0:
        raise ValueError(f"n_terms must be nonnegative, got {n_terms}")
    count = check_index(n_terms) + 1
    return NoiseBundle(
        seed=int(seed),
        n_terms=int(n_terms),
        l1=stream_normals(seed, _FAMILY_L1, count),
        l2=stream_normals(seed, _FAMILY_L2, count),
        l3=stream_normals(seed, _FAMILY_L3, count),
        lstar=float(stream_normals(seed, _FAMILY_STAR, 1)[0]),
    )


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
