"""Counter-based RNG: determinism, stream separation, chunking invariance."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import splitmix64_uniform
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
