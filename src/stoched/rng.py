"""Counter-based random number streams.

Every variate is a pure function of (stream key, counter). A stream key is
derived by hashing a 64-bit seed with an arbitrary sequence of tokens
(strings or integers), so independent streams can be addressed by intent,
e.g. ``stream_key(seed, "obs", activity)``. Because draws are addressed
rather than sequential, results are bit-identical no matter how work is
chunked or how many threads consume a stream. ``child_keys`` derives the
keys of many integer-indexed streams at once, and one ``normals`` call
with that key array draws from each of them.

The mixer is the splitmix64 finalizer applied twice: once to decorrelate
the raw counter, once after keying. Uniforms are built from the top 53
bits plus a half-ulp offset, with the one value that would round to 1
taken to the largest double below 1, so they lie strictly inside (0, 1)
and normals, which go through the inverse normal CDF, are finite.

Every step runs in place. Given an ``out`` array, uniforms and normals
hash in its bytes with a uint64 scratch that each thread allocates once
and reuses, so a caller drawing block after block into one buffer
allocates nothing per block. Without ``out`` they allocate the result
and one scratch. Either way the bits are the same, and the counters are
only read.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
from scipy.special import ndtri

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


def _finalize(x: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 array (wraps mod 2^64);
    scratch is a uint64 array of x's shape that it overwrites."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mix
    np.right_shift(x, 31, out=scratch)
    x ^= scratch


_local = threading.local()


def _thread_scratch(like: np.ndarray) -> np.ndarray:
    """This thread's uint64 scratch, viewed in like's shape; it grows to
    the largest request and is never shrunk."""
    buf = getattr(_local, "scratch", None)
    if buf is None or buf.size < like.size:
        buf = _local.scratch = np.empty(like.size, dtype=np.uint64)
    return buf[: like.size].reshape(like.shape)


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
    scratch = np.empty_like(k)
    k += _GOLDEN
    _finalize(k, scratch)
    for token in tokens:
        k ^= _token64(token)
        k += _GOLDEN
        _finalize(k, scratch)
    return int(k[0])


def child_keys(key: int, indices) -> np.ndarray:
    """The keys stream_key(seed, *tokens, i) of the integers i in
    0..2^64-1 of indices, as a uint64 array of its shape, where key is
    stream_key(seed, *tokens)."""
    k = np.asarray(indices, dtype=np.uint64) ^ np.uint64(key)
    k += _GOLDEN
    _finalize(k, np.empty_like(k))
    return k


def uniforms(key, counters, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform(0,1) variates at the given counters; never exactly 0 or 1.

    key is one stream key, or a uint64 array of keys of the counters'
    shape, one stream per variate. out, when given, is a float64 array
    of the counters' shape that receives the variates and is returned.
    """
    c = np.asarray(counters, dtype=np.uint64)
    if out is None:
        out, scratch = np.empty(c.shape), np.empty(c.shape, dtype=np.uint64)
    else:
        scratch = _thread_scratch(c)
    x = out.view(np.uint64)
    np.add(c, _GOLDEN, out=x)
    _finalize(x, scratch)
    x ^= np.uint64(key)
    _finalize(x, scratch)
    np.right_shift(x, 11, out=scratch)
    # the top 53 bits convert to float64 exactly
    np.add(scratch, 0.5, out=out)
    out *= _U53
    # All 53 bits set give 1: 2**53 - 0.5 rounds to 2**53 (ties to even).
    # Every other value is below _BELOW_ONE, and a read-only check costs
    # less than the clamp.
    if out.size and out.max() == 1.0:
        np.minimum(out, _BELOW_ONE, out=out)
    return out


def normals(key, counters, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal variates at the given counters, into out if given."""
    out = uniforms(key, counters, out)
    return ndtri(out, out=out)
