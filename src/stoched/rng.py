"""Counter-based random number streams.

Every variate is a pure function of (stream key, counter). A stream key is
derived by hashing a 64-bit seed with an arbitrary sequence of tokens
(strings or integers), so independent streams can be addressed by intent,
e.g. ``stream_key(seed, "obs", activity)``. Because draws are addressed
rather than sequential, results are bit-identical no matter how work is
chunked or how many threads consume a stream.

The mixer is the splitmix64 finalizer applied twice: once to decorrelate
the raw counter, once after keying. Uniforms are built from the top 53
bits plus a half-ulp offset so they lie strictly inside (0, 1); normals
go through the inverse normal CDF.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays (wraps mod 2^64)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _token64(token) -> np.uint64:
    if isinstance(token, str):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return np.uint64(int.from_bytes(digest, "little"))
    if isinstance(token, (int, np.integer)):
        return np.uint64(int(token) & _MASK64)
    raise TypeError(f"stream token must be str or int, got {type(token).__name__}")


def stream_key(seed: int, *tokens) -> int:
    """Derive the 64-bit key of the stream identified by (seed, *tokens)."""
    k = np.array([int(seed) & _MASK64], dtype=np.uint64)
    k = _finalize(k + _GOLDEN)
    for token in tokens:
        k = _finalize((k ^ _token64(token)) + _GOLDEN)
    return int(k[0])


def uniforms(key: int, counters) -> np.ndarray:
    """Uniform(0,1) variates at the given counters; never exactly 0 or 1."""
    c = np.asarray(counters, dtype=np.uint64)
    bits = _finalize(_finalize(c + _GOLDEN) ^ np.uint64(key))
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


def normals(key: int, counters) -> np.ndarray:
    """Standard normal variates at the given counters."""
    return ndtri(uniforms(key, counters))
