"""Counter-based RNG: determinism, stream separation, chunking invariance."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import _splitmix64_finalize, splitmix64_uniform
from stoched.rng import normals, stream_key, uniforms


def test_stream_key_is_deterministic_and_token_sensitive():
    a = stream_key(42, "sim")
    assert a == stream_key(42, "sim")
    assert a != stream_key(43, "sim")
    assert a != stream_key(42, "obs")
    assert stream_key(7, "obs", 3) != stream_key(7, "obs", 4)
    assert 0 <= a < 2**64


def test_uniforms_open_interval_and_reproducible():
    key = stream_key(1, "u")
    u = uniforms(key, np.arange(100_000))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert np.array_equal(u, uniforms(key, np.arange(100_000)))


def test_normals_are_standard_normal_statistically():
    z = normals(stream_key(5, "stats"), np.arange(400_000))
    n = z.shape[0]
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * n)
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(lag1) < 4.0 / np.sqrt(n)


def test_distinct_keys_decorrelate():
    counters = np.arange(50_000)
    a = normals(stream_key(11, "x"), counters)
    b = normals(stream_key(12, "x"), counters)
    c = normals(stream_key(11, "y"), counters)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.02


def test_uniforms_match_pure_python_splitmix64():
    rng = np.random.default_rng(23)
    counters = np.concatenate([
        np.array([0, 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**64, size=300, dtype=np.uint64, endpoint=False),
    ])
    for key in (0, stream_key(9, "sim"), 2**64 - 1):
        expected = [splitmix64_uniform(key, int(c)) for c in counters]
        assert uniforms(key, counters).tolist() == expected


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unfinalize(x: int) -> int:
    """The splitmix64 finalizer's inverse, in Python integers."""
    x = _unxorshift(x, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 2**64)) % 2**64
    x = _unxorshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 2**64)) % 2**64
    return _unxorshift(x, 30)


def test_all_53_bits_set_give_the_largest_uniform_below_one():
    key = stream_key(9, "sim")
    bits = 2**64 - 1
    counter = (_unfinalize(_unfinalize(bits) ^ key) - 0x9E3779B97F4A7C15) % 2**64
    x = _splitmix64_finalize((counter + 0x9E3779B97F4A7C15) % 2**64)
    assert _splitmix64_finalize(x ^ key) == bits
    # the old ((bits >> 11) + 0.5) * 2**-53 rounds to exactly 1 there
    assert ((bits >> 11) + 0.5) * 2.0**-53 == 1.0
    block = np.arange(16 * 4096, dtype=np.uint64)
    block[5000] = counter
    u = uniforms(key, block)
    assert u[5000] == np.nextafter(1.0, 0.0)
    assert np.all((u > 0.0) & (u < 1.0))
    for z in (normals(key, block), normals(key, block, out=np.empty(block.shape))):
        assert np.isfinite(z).all()
        assert z[5000] == normals(key, [counter])[0] > 8.0
    # every other counter keeps the old formula's bits
    rng = np.random.default_rng(31)
    sample = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    old = []
    for c in sample.tolist():
        x = _splitmix64_finalize((c + 0x9E3779B97F4A7C15) % 2**64)
        old.append(((_splitmix64_finalize(x ^ key) >> 11) + 0.5) * 2.0**-53)
    assert uniforms(key, sample).tobytes() == np.array(old).tobytes()
    # and so does the rest of a block that the clamp touched
    assert uniforms(key, np.delete(block, 5000)).tobytes() == np.delete(u, 5000).tobytes()


def test_uniforms_leave_counters_unchanged():
    counters = np.arange(1000, dtype=np.uint64) * np.uint64(7919)
    before = counters.copy()
    uniforms(stream_key(4, "u"), counters)
    normals(stream_key(4, "u"), counters)
    assert np.array_equal(counters, before)


@pytest.mark.parametrize("strided", [False, True])
def test_normals_into_out_match_fresh_arrays(strided):
    rng = np.random.default_rng(29)
    base = rng.integers(0, 2**64, size=(5, 600), dtype=np.uint64, endpoint=False)
    counters = base[:, ::3] if strided else base[:, :200].copy()
    assert counters.flags.c_contiguous != strided
    before = counters.copy()
    key = stream_key(8, "sim")
    for draw in (normals, uniforms):
        out = np.full(counters.shape, np.nan)
        assert draw(key, counters, out=out) is out
        assert out.tobytes() == draw(key, counters).tobytes()
        assert np.array_equal(counters, before)
