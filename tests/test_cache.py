import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprobe import cache as cache_module
from kvprobe.cache import LayerCache, rep_key_of
from kvprobe.linalg import DimMismatch
from kvprobe.retrieval import score_chunks_across_heads
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
    """Key and value-sum rows written in place through staged() are in
    no snapshot until append commits them, and appending the staged
    views stores what appending copies of the d_head-wide values
    stores, across regrowths."""
    rng = np.random.default_rng(3)
    geometry = dict(dim=(2, 3, 4), n_sink=2, n_local=3, chunk=2)
    staged, copied = LayerCache(**geometry), LayerCache(**geometry)
    for rows in (3, 5, 1, 8):
        keys = rng.standard_normal((rows, 2, 3, 4)).astype(np.float32)
        before = staged.snapshot()
        k, sums = staged.staged(rows)
        assert sums.shape == (rows, 2, 3, 1)
        k[...] = keys
        sums[...] = (keys + 1.0).sum(axis=-1, dtype=np.float64,
                                     keepdims=True)
        for field in ("keys", "values"):
            assert (getattr(staged.snapshot(), field).tobytes()
                    == getattr(before, field).tobytes())
        assert staged.append(k, sums) == copied.append(keys, keys + 1.0)
    got, want = staged.snapshot(), copied.snapshot()
    for field in ("keys", "values", "key_norms", "rep_keys", "rep_norms"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_cache_holds_no_d_head_wide_values():
    """Over many staged windows a cache grows by its keys, one-wide
    values and reps alone: a window's keys and value sums are written
    straight into the cache's rows, and no buffer of d_head-wide values
    is kept beside them."""
    L, H, d, window, windows, chunk = 2, 4, 64, 32, 16, 8
    rows = window * windows
    tracemalloc.start()
    try:
        cache = LayerCache(dim=(L, H, d), n_sink=4, n_local=16, chunk=chunk,
                           key_norms=False)
        cache.reserve(rows)  # as Engine.run does: no regrowth
        for i in range(windows):
            k, sums = cache.staged(window)
            k[...], sums[...] = i, d
            cache.append(k, sums)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = cache.snapshot().values
    assert values.shape == (rows, L, H, 1)
    assert (values == d).all()
    chunks = -(-(rows - 4) // chunk)
    held = (rows * L * H * (d + 1) * 4  # float32 keys and value sums
            + chunks * L * H * (d + 1) * 8)  # float64 reps and their norms
    # 64 KiB covers append's temporaries, ~30 KiB: a rep's float64 sum,
    # taken a buffer at a time (a float64 copy of the chunk, as the rep
    # once made, is 32 KiB more), and the float64 value sums of one
    # window (2 KiB). One window of d_head-wide values would add another
    # 64 KiB
    assert peak < held + 64 * 1024, (peak, held)


@pytest.mark.parametrize("dim", [4, (2, 4), (3, 2, 4)])
def test_value_sums_add_each_rows_values_in_float64_once(dim):
    """A row's cached value is its values' sum, added in float64 and
    rounded once to float32: 1 + 2**-24 + 2**-24 is 1 + 2**-23, which a
    float32 sum from the left rounds to 1. It is kept alike for rows
    whose values are appended d_head-wide and for rows whose sums are
    written through staged() and appended as they are, (rows,
    *dim[:-1], 1), and read-only."""
    rng = np.random.default_rng(7)
    shape = np.empty(dim).shape
    cache = LayerCache(dim=dim, n_sink=2, n_local=3, chunk=2)
    written = []
    for rows in (3, 1, 6):
        values = rng.standard_normal((rows, *shape)).astype(np.float32)
        values[0, ...] = (1.0, 2.0**-24, 2.0**-24, 0.0)
        if rows > 1:  # summed in place into staged() rows
            k, sums = cache.staged(rows)
            k[...] = values
            sums[...] = values.sum(axis=-1, dtype=np.float64, keepdims=True)
            cache.append(k, sums)
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
    with pytest.raises(ValueError):
        got[0] = 0.0


def test_append_takes_values_d_head_wide_or_summed():
    """append takes values shaped like the keys or already summed, last
    axis 1; any other shape is rejected before a row is written."""
    cache = LayerCache(dim=(2, 4), n_sink=1, n_local=1, chunk=2)
    keys = np.ones((3, 2, 4), dtype=np.float32)
    for bad in ((3, 2, 2), (3, 1, 4), (2, 2, 1), (3, 2)):
        with pytest.raises(DimMismatch):
            cache.append(keys, np.ones(bad, dtype=np.float32))
    assert cache.total_pairs == 0
    cache.append(keys, np.ones((3, 2, 4), dtype=np.float32))
    cache.append(keys, np.full((3, 2, 1), 4.0, dtype=np.float32))
    assert (cache.snapshot().values == 4.0).all()


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



def append_staged(cache: LayerCache, keys: np.ndarray) -> None:
    """Append keys, and their sums as values, through staged() rows."""
    k, sums = cache.staged(len(keys))
    k[...] = keys
    sums[...] = keys.sum(axis=-1, dtype=np.float64, keepdims=True)
    cache.append(k, sums)


@settings(max_examples=80, deadline=None)
@given(chunk=st.integers(1, 8), n_sink=st.integers(0, 9),
       n_local=st.sampled_from([0, 1, 6, 13]), window=st.integers(1, 19),
       windows=st.integers(1, 4), decode=st.integers(0, 12),
       seed=st.integers(0, 2**16))
def test_a_cache_without_rows_scores_as_one_with_them(
        chunk, n_sink, n_local, window, windows, decode, seed):
    """The same windows and tokens appended to a cache that keeps every
    row and to one that keeps only its open chunk's give equal candidate
    counts, candidate rows, tails, reps and mean scores, bit for bit,
    after every append; with n_local=0 the open chunk is a candidate,
    scored from the rows the second cache still holds. That one never
    holds a chunk of rows once an append returns, and its row buffers
    stay at the largest append plus a chunk."""
    dim = (2, 2, 4)
    rng = np.random.default_rng(seed)
    geometry = dict(dim=dim, n_sink=n_sink, n_local=n_local, chunk=chunk,
                    key_norms=False)
    kept, dropped = LayerCache(**geometry), LayerCache(**geometry, rows=False)
    probe = rng.standard_normal(dim)
    for rows in [window] * windows + [1] * decode:
        keys = rng.standard_normal((rows, *dim)).astype(np.float32)
        append_staged(kept, keys)
        append_staged(dropped, keys)
        a, b = kept.snapshot(), dropped.snapshot()
        assert (a.total_pairs, a.n_candidates, a.tail_start) == (
            b.total_pairs, b.n_candidates, b.tail_start)
        assert np.array_equal(a.candidate_rows, b.candidate_rows)
        for field in ("rep_keys", "rep_norms"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (score_chunks_across_heads(probe, a).tobytes()
                == score_chunks_across_heads(probe, b).tobytes())
        assert len(b.keys) < chunk and len(b.sink_keys) == 0
        if b.total_pairs > b.start:  # an open chunk: held whole
            assert (b.chunks[-1].keys.tobytes()
                    == a.chunks[-1].keys.tobytes())
    assert dropped.capacity == window + chunk


def test_a_snapshot_keeps_its_rows_when_an_append_drops_them():
    """An append that drops rows moves the open chunk's rows to new
    buffers: a snapshot taken before it still reads its open chunk, and
    shows no sinks, sealed rows or tail it no longer holds."""
    cache = LayerCache(dim=3, n_sink=2, n_local=4, chunk=3, key_norms=False,
                       rows=False)
    fill(cache, 7, 3)  # sinks 0-1, chunk 0 = [2, 4] sealed, open [5, 6]
    before = cache.snapshot()
    saved = before.keys.tobytes(), before.values.tobytes()
    assert (before.start, before.total_pairs, before.tail_start) == (5, 7, 3)
    fill(cache, 9, 3, start=7)  # seals 3 chunks, moves the rows
    now = cache.snapshot()
    assert not np.shares_memory(before.keys, now.keys)
    assert (before.keys.tobytes(), before.values.tobytes()) == saved
    assert before.chunks[1].keys[:, 0] == pytest.approx([5.0, 6.0])
    assert [ch.rows for ch in before.chunks] == [0, 2]
    assert len(before.sink_keys) == len(before.local_keys) == 0
    assert now.start == 14 and now.keys[:, 0] == pytest.approx([14.0, 15.0])


def test_a_cache_without_rows_moves_them_once_a_window(monkeypatch):
    """Sized once to a window plus a chunk, the row buffers of a cache
    without rows move once per pre-fill window and at most once in the
    64 decode tokens after pre-fill."""
    moves = []
    resized = cache_module._resized

    def counting(a, *args):
        moves.append(a.dtype == np.float32 and a.shape[-1] > 1)  # keys
        return resized(a, *args)

    monkeypatch.setattr(cache_module, "_resized", counting)
    dim, window, windows, chunk = (2, 3, 4), 67, 4, 5
    cache = LayerCache(dim=dim, n_sink=3, n_local=16, chunk=chunk,
                       key_norms=False, rows=False)
    cache.reserve(window * windows + 64)
    keys = np.ones((window, *dim), dtype=np.float32)
    for _ in range(windows):
        append_staged(cache, keys)
    assert sum(moves) == windows
    for _ in range(64):
        cache.append(keys[:1], keys[:1])
    assert sum(moves) <= windows + 1
    assert cache.capacity == window + chunk


def test_key_norms_need_the_rows():
    with pytest.raises(ValueError):
        LayerCache(dim=2, rows=False)
