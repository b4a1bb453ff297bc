import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprobe.cache import LayerCache, rep_key_of
from oracles import layer_view


def fill(cache: LayerCache, n: int, dim: int, start: int = 0) -> None:
    """Append n pairs whose first component encodes the position."""
    if n == 0:
        return
    pos = np.arange(start, start + n, dtype=np.float32)
    keys = np.zeros((n, dim), dtype=np.float32)
    keys[:, 0] = pos
    cache.append(keys, keys.copy())


def test_rep_key_is_member_mean():
    keys = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]], dtype=np.float32)
    assert rep_key_of(keys) == pytest.approx([1.0, 1.0])


def test_routing_example():
    """Five pairs with n_sink=2, c=2: two sinks, one sealed chunk, one
    open pair."""
    cache = LayerCache(dim=2, n_sink=2, n_local=4, chunk=2)
    fill(cache, 5, 2)
    view = cache.snapshot()
    assert view.sink_keys.shape[0] == 2
    assert [(c.chunk_id, c.rows) for c in view.chunks] == [(0, 2), (1, 1)]
    assert cache.total_pairs == 5


def test_chunk_spans_tile_the_stream():
    cache = LayerCache(dim=3, n_sink=4, n_local=6, chunk=3)
    fill(cache, 29, 3)
    view = cache.snapshot()
    expect_start = 4
    for ch in view.chunks:
        assert ch.start == expect_start
        assert ch.end == ch.start + ch.rows - 1
        expect_start = ch.end + 1
    assert expect_start == 29
    # position encoding survives routing
    for ch in view.chunks:
        assert ch.keys[:, 0] == pytest.approx(
            np.arange(ch.start, ch.end + 1))


def test_tail_start_and_retrievable():
    cache = LayerCache(dim=2, n_sink=4, n_local=8, chunk=2)
    fill(cache, 3, 2)
    assert cache.tail_start == 3  # fewer pairs than sinks: tail empty
    fill(cache, 17, 2, start=3)  # total 20
    assert cache.tail_start == 12
    view = cache.snapshot()
    assert view.local_keys.shape[0] == 8
    assert view.local_keys[0, 0] == pytest.approx(12.0)
    # retrievable chunks end strictly before the tail
    ids = [c.chunk_id for c in view.retrievable]
    assert ids == [0, 1, 2, 3]
    assert all(c.end < view.tail_start for c in view.retrievable)


def test_local_tail_never_contains_sinks():
    cache = LayerCache(dim=2, n_sink=4, n_local=16, chunk=2)
    fill(cache, 10, 2)
    view = cache.snapshot()
    assert view.local_keys.shape[0] == 6  # 10 total minus 4 sinks
    assert view.local_keys[0, 0] == pytest.approx(4.0)


def test_append_returns_sealed_count():
    cache = LayerCache(dim=2, n_sink=2, n_local=4, chunk=4)
    sealed = cache.append(np.zeros((5, 2), np.float32),
                          np.zeros((5, 2), np.float32))
    assert sealed == 0  # 2 sinks + 3 open
    sealed = cache.append(np.zeros((1, 2), np.float32),
                          np.zeros((1, 2), np.float32))
    assert sealed == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40), st.integers(0, 8), st.integers(1, 6),
       st.integers(1, 12))
def test_conservation(total, n_sink, chunk, n_local):
    cache = LayerCache(dim=2, n_sink=n_sink, n_local=n_local, chunk=chunk)
    fill(cache, total, 2)
    view = cache.snapshot()
    stored = view.sink_keys.shape[0] + sum(c.rows for c in view.chunks)
    assert stored == total == cache.total_pairs
    assert view.local_keys.shape[0] == max(0, min(total - min(total, n_sink),
                                                  n_local))
    assert view.tail_start == max(min(total, n_sink), total - n_local)
    # every full chunk has exactly `chunk` rows; only the last may be short
    for ch in view.chunks[:-1]:
        assert ch.rows == chunk


def test_snapshot_is_isolated_from_later_appends():
    cache = LayerCache(dim=2, n_sink=1, n_local=2, chunk=2)
    cache.reserve(6)
    fill(cache, 4, 2)  # sink 0, chunk 0 = [1, 2], open chunk 1 = [3]
    before = cache.snapshot()

    def contents(view):
        return ([view.sink_keys.copy(), view.sink_values.copy(),
                 view.local_keys.copy(), view.local_values.copy()] +
                [a.copy() for ch in view.chunks for a in (ch.keys, ch.values)])

    saved = contents(before)
    fill(cache, 2, 2, start=4)  # seals chunk 1 in the same buffers
    assert cache.capacity == 6
    fill(cache, 10, 2, start=6)  # regrows the buffers
    assert cache.capacity > 6
    assert before.total_pairs == 4
    now = cache.snapshot()
    assert now.total_pairs == 16
    assert now.keys[:, 0] == pytest.approx(np.arange(16))  # regrowth kept rows
    assert [(c.chunk_id, c.rows) for c in before.chunks] == [(0, 2), (1, 1)]
    for old, now in zip(saved, contents(before), strict=True):
        assert np.array_equal(old, now)
    assert before.local_keys[:, 0] == pytest.approx([2.0, 3.0])
    with pytest.raises(ValueError):  # snapshots are read-only
        before.keys[0, 0] = 1.0


def test_staged_rows_are_unseen_until_append_commits_them():
    """Rows written in place through staged() are in no snapshot until
    append commits them, and appending the staged views stores what
    appending copies of them stores, across regrowths."""
    rng = np.random.default_rng(3)
    geometry = dict(dim=(2, 3, 4), n_sink=2, n_local=3, chunk=2)
    staged, copied = LayerCache(**geometry), LayerCache(**geometry)
    for rows in (3, 5, 1, 8):
        keys = rng.standard_normal((rows, 2, 3, 4)).astype(np.float32)
        before = staged.snapshot()
        k, v = staged.staged(rows)
        k[...], v[...] = keys, keys + 1.0
        assert staged.snapshot().keys.tobytes() == before.keys.tobytes()
        assert staged.append(k, v) == copied.append(keys, keys + 1.0)
    got, want = staged.snapshot(), copied.snapshot()
    for field in ("keys", "values", "key_norms", "rep_keys", "rep_norms"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_cache_holds_one_window_of_d_head_wide_values():
    """Over many staged windows a cache grows by its keys, one-wide
    values and reps, plus one window of d_head-wide values in a staging
    buffer that every window reuses: a row's d_head values are summed
    when it is appended and not kept."""
    L, H, d, window, windows, chunk = 2, 4, 64, 32, 16, 8
    rows = window * windows
    tracemalloc.start()
    try:
        cache = LayerCache(dim=(L, H, d), n_sink=4, n_local=16, chunk=chunk,
                           key_norms=False)
        cache.reserve(rows)  # as Engine.run does: no regrowth
        first = cache.staged(window)[1]
        for i in range(windows):
            k, v = cache.staged(window)
            assert np.shares_memory(v, first)
            k[...], v[...] = i, 1.0
            cache.append(k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.values.shape == (rows, L, H, 1)
    assert (cache.values == d).all()
    chunks = -(-(rows - 4) // chunk)
    held = (rows * L * H * (d + 1) * 4  # float32 keys and value sums
            + chunks * L * H * (d + 1) * 8  # float64 reps and their norms
            + window * L * H * d * 4)  # one window of values
    # 128 KiB covers append's temporaries: numpy's 64 KiB buffer for the
    # float64 sum and a chunk's float64 copy for its rep. Keeping every
    # row's values would add 15 windows' worth (960 KiB)
    assert peak < held + 128 * 1024, (peak, held)


@pytest.mark.parametrize("dim", [4, (2, 4), (3, 2, 4)])
def test_value_sums_add_each_rows_values_in_float64_once(dim):
    """A row's cached value is its values' sum, added in float64 and
    rounded once to float32: 1 + 2**-24 + 2**-24 is 1 + 2**-23, which a
    float32 sum from the left rounds to 1. It is kept for staged and
    copied rows alike, (rows, *dim[:-1], 1), and read-only."""
    rng = np.random.default_rng(7)
    shape = np.empty(dim).shape
    cache = LayerCache(dim=dim, n_sink=2, n_local=3, chunk=2)
    written = []
    for rows in (3, 1, 6):
        values = rng.standard_normal((rows, *shape)).astype(np.float32)
        values[0, ...] = (1.0, 2.0**-24, 2.0**-24, 0.0)
        if rows > 1:  # written in place through staged()
            k, v = cache.staged(rows)
            k[...] = v[...] = values
            cache.append(k, v)
        else:
            cache.append(values, values)
        written.append(values)
    values = np.concatenate(written)
    want = values.astype(np.float64).sum(axis=-1, keepdims=True)
    got = cache.snapshot().values
    assert got.shape == (values.shape[0], *shape[:-1], 1)
    assert got.dtype == np.float32
    assert got.tobytes() == want.astype(np.float32).tobytes()
    assert (got[0] == np.float32(1.0 + 2.0**-23)).all()
    assert cache.values.tobytes() == got.tobytes()
    with pytest.raises(ValueError):
        got[0] = 0.0


def test_one_cache_holds_every_layer_stored_layer_major():
    """A cache of (layers, heads, d) rows holds, for each layer, bit for
    bit what a cache of that layer's rows alone holds, and each layer's
    rows are one contiguous token-ordered block."""
    L, H, d, total = 3, 2, 4, 23
    keys = np.random.default_rng(5).standard_normal(
        (total, L, H, d)).astype(np.float32)
    geometry = dict(n_sink=2, n_local=5, chunk=3)
    cache = LayerCache(dim=(L, H, d), **geometry)
    singles = [LayerCache(dim=(H, d), **geometry) for _ in range(L)]
    for lo in range(0, total, 7):  # several appends, several regrowths
        cache.append(keys[lo:lo + 7], keys[lo:lo + 7] + 1.0)
        for l, single in enumerate(singles):
            single.append(keys[lo:lo + 7, l], keys[lo:lo + 7, l] + 1.0)
    view = cache.snapshot()
    assert view.keys.shape == (total, L, H, d)
    assert view.sink_keys.shape[0] == 2
    for l, single in enumerate(singles):
        got, want = layer_view(view, l), single.snapshot()
        for field in ("keys", "values", "key_norms", "rep_keys",
                      "rep_norms"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
            assert a.flags.c_contiguous, field
        assert got.tail_start == want.tail_start
        assert np.array_equal(got.candidate_rows, want.candidate_rows)

