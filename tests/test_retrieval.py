import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kvprobe.cache import LayerCache, rep_key_of
from kvprobe.linalg import DimMismatch, NonFinite
from kvprobe.retrieval import (SelectionResult, UnknownChunk, materialize,
                               score_chunks_across_heads, select_topk,
                               selected_rows)
from oracles import cosine, layer_view, max_score_scores


def view_of(keys, chunk, n_sink=0, n_local=0):
    """Snapshot of a cache fed `keys` (values are keys + 100). With the
    default n_local = 0 every chunk after the sinks is a candidate."""
    keys = np.asarray(keys, dtype=np.float32)
    cache = LayerCache(dim=keys.shape[1:], n_sink=n_sink, n_local=n_local,
                       chunk=chunk)
    cache.append(keys, keys + 100.0)
    return cache.snapshot()


def scores_of(probe, view, mode="mean") -> np.ndarray:
    return score_chunks_across_heads(probe, view, mode=mode)


def test_mean_mode_scores_probe_against_representative():
    probe = np.array([1.0, 0.0], dtype=np.float32)
    view = view_of([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 2)
    scores = scores_of(probe, view, mode="mean")
    assert scores.shape == (2,)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(0.0, abs=1e-12)


def test_max_score_mode_takes_best_member():
    probe = np.array([1.0, 0.0], dtype=np.float32)
    # representative mean is (0.5, 0.5) but one member aligns exactly
    view = view_of([[1.0, 0.0], [0.0, 1.0]], 2)
    mean_score = scores_of(probe, view, mode="mean")[0]
    max_score = scores_of(probe, view, mode="max-score")[0]
    assert mean_score == pytest.approx(cosine([1, 0], [0.5, 0.5]))
    assert max_score == pytest.approx(1.0)


def test_zero_representative_scores_zero():
    probe = np.array([1.0, 0.0], dtype=np.float32)
    view = view_of([[1.0, 1.0], [-1.0, -1.0]], 2)  # mean is the zero vector
    assert scores_of(probe, view)[0] == pytest.approx(0.0)


def test_non_finite_score_raises():
    """A NaN key used to score -1.0 through cosine's clamp."""
    view = view_of([[1.0, 0.0], [np.nan, 0.0]], 1)
    probe = np.array([1.0, 0.0], dtype=np.float32)
    for mode in ("mean", "max-score"):
        with pytest.raises(NonFinite):
            scores_of(probe, view, mode=mode)


def test_across_heads_averages_per_head_scores():
    probe = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    view = view_of([[[1.0, 0.0], [1.0, 0.0]]], 1)  # one row, two heads
    scores = score_chunks_across_heads(probe, view)
    assert scores.shape == (1,)
    assert scores[0] == pytest.approx(0.5)  # (1.0 + 0.0) / 2


def test_probe_must_match_the_row_shape():
    view = view_of([[[1.0, 0.0], [1.0, 0.0]]], 1)  # (heads, d) = (2, 2)
    for probe in ([1.0, 0.0], [[1.0, 0.0]], [[1.0, 0.0, 0.0]] * 2):
        with pytest.raises(DimMismatch):
            score_chunks_across_heads(np.array(probe), view)


def test_select_topk_orders_by_score_then_id():
    sel = select_topk(np.array([0.5, 0.9, 0.5, 0.1]), budget_pairs=6, rows=2)
    assert sel.selected == (1, 0, 2)  # tie between 0 and 2 goes to lower id
    assert sel.pairs_used == 6


def test_select_topk_stops_at_first_overflow():
    sel = select_topk(np.array([0.9, 0.8, 0.7]), budget_pairs=4,
                      rows=np.array([3, 3, 1]))
    # the second chunk overflows; selection stops rather than skipping it
    assert sel.selected == (0,)
    assert sel.pairs_used == 3


def test_select_topk_zero_budget():
    sel = select_topk(np.array([1.0]), 0, rows=4)
    assert sel.selected == ()
    assert sel.pairs_used == 0


def greedy_oracle(scores, rows, budget):
    """The documented rule as a loop: visit chunks by (-score, id), take
    each that fits, stop at the first that does not."""
    taken, used = [], 0
    for j in sorted(range(len(scores)), key=lambda j: (-scores[j], j)):
        if used + rows[j] > budget:
            break
        taken.append(j)
        used += rows[j]
    return tuple(taken), used


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.4, -0.0, 0.0, 0.4, 1.0]),
                max_size=40),
       st.integers(-2, 130), st.integers(1, 4), st.integers(0, 3))
@example([], 0, 1, 0)
@example([1.0, 0.4], 0, 2, 1)
@example([-0.0, 0.0, -0.0, 0.0], 3, 1, 0)
@example([0.4, 1.0, 0.0, 0.4], 5, 3, 2)
@example([1.0], -1, 1, 0)
def test_select_topk_equals_brute_force(scores, budget, c, partial):
    """Quantized scores, 0.0 and -0.0 among them, force ties; selection
    must equal the greedy loop, also when the last chunk has only
    partial (1..c-1) rows, as the open chunk does with no local tail."""
    rows = np.full(len(scores), c)
    if scores and partial % c:
        rows[-1] = partial % c
    if budget < 0:
        with pytest.raises(ValueError):
            select_topk(np.array(scores), budget, rows)
        return
    sel = select_topk(np.array(scores), budget, rows)
    want, used = greedy_oracle(scores, rows.tolist(), budget)
    assert sel.selected == want
    assert sel.pairs_used == used
    if (rows == c).all():  # uniform chunks: the sorted prefix of floor(b/c)
        assert sel == select_topk(np.array(scores), budget, c)
        assert len(want) == min(len(scores), budget // c)


@pytest.mark.parametrize("rows", [np.array([-3, 5]), np.array([4, 0]), 0])
def test_select_topk_rejects_chunks_below_one_row(rows):
    """[-3, 5] used to select both chunks with pairs_used=2, although
    the 5-row chunk alone overflows the budget of 4."""
    for scores, budget in ((np.array([0.9, 0.1]), 4),
                           (np.array([[0.9, 0.1], [0.1, 0.9]]), [4, 0])):
        with pytest.raises(ValueError):
            select_topk(scores, budget, rows)


@settings(max_examples=150, deadline=None)
@given(layers=st.integers(1, 4), n=st.integers(0, 600), c=st.integers(1, 8),
       partial=st.integers(0, 7), levels=st.integers(1, 6),
       budgets=st.lists(st.integers(0, 24), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(layers=4, n=496, c=32, partial=0, levels=1, budgets=[8, 0, 9, 8],
         seed=0)
@example(layers=2, n=600, c=3, partial=1, levels=2, budgets=[24, 1],
         seed=1)
def test_select_topk_large_pools_equal_brute_force(layers, n, c, partial,
                                                   levels, budgets, seed):
    """(layers, n) pools of up to 600 chunks, past the size where only
    each layer's best chunks are sorted: quantized scores with 0.0 and
    -0.0 put ties on the cut, budgets (in chunks) differ by layer and
    may be 0, and the last chunk may have only partial rows."""
    rng = np.random.default_rng(seed)
    # levels evenly spaced in [0, 1], each negated at random: 0.0 and
    # -0.0 both occur
    scores = rng.integers(0, levels + 1, size=(layers, n)) / levels
    scores = np.where(rng.random((layers, n)) < 0.5, -scores, scores)
    rows = np.full(n, c)
    if n and partial % c:
        rows[-1] = partial % c
    pairs = [b * c for b in budgets[:layers]]
    got = select_topk(scores, pairs, rows)
    for l, sel in enumerate(got):
        want, used = greedy_oracle(scores[l].tolist(), rows.tolist(), pairs[l])
        assert sel.selected == want
        assert sel.pairs_used == used


def test_select_topk_sorts_only_each_layers_best(monkeypatch):
    """On a 4 x 496 pool with budgets of 224 to 288 pairs in 32-row
    chunks no layer takes more than k = 288 // 32 = 9 chunks, and with
    distinct scores only those 9 per layer are sorted: a fall back to
    sorting the whole pool fails here."""
    sorted_sizes = []

    def counted(name):
        sort = getattr(np, name)

        def wrapper(a, *args, **kwargs):
            keys = a[0] if name == "lexsort" else a
            sorted_sizes.append(np.size(keys))
            return sort(a, *args, **kwargs)
        return wrapper

    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, counted(name))
    rng = np.random.default_rng(0)
    scores = rng.uniform(-1.0, 1.0, size=(4, 496))
    rows = np.full(496, 32)
    got = select_topk(scores, [256, 256, 224, 288], rows)
    assert sorted_sizes == [4 * 9]
    for l, (sel, budget) in enumerate(zip(got, [256, 256, 224, 288])):
        assert sel.selected == greedy_oracle(scores[l], rows, budget)[0]


def test_materialize_orders_by_position():
    # one sink, then chunks of one row each
    view = view_of([[5.0, 5.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 1,
                   n_sink=1)
    sel = select_topk(scores_of(np.array([1.0, 1.0], np.float32), view),
                      budget_pairs=3, rows=view.candidate_rows)
    assert sel.selected == (2, 0, 1)
    keys, values = materialize(sel, view)
    assert np.allclose(keys, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # each row's value sum: the fed values are keys + 100
    assert np.allclose(values, (keys + 100.0).sum(axis=-1, keepdims=True))


def test_materialize_unknown_chunk():
    with pytest.raises(UnknownChunk):
        materialize(SelectionResult(selected=(7,), pairs_used=4),
                    view_of([[1.0, 0.0]], 1))
    # chunk 1 is still in the local tail, so it is not a candidate
    view = view_of([[1.0, 0.0]] * 4, 2, n_local=2)
    with pytest.raises(UnknownChunk):
        materialize(SelectionResult(selected=(1,), pairs_used=2), view)
    # every layer's rows at once: a bad id in any layer raises
    view = view_of(np.ones((9, 2, 1, 2)), 2, n_sink=1, n_local=4)
    assert view.n_candidates == 2
    for bad in (2, -1):
        with pytest.raises(UnknownChunk):
            selected_rows([SelectionResult(selected=(0, 1), pairs_used=4),
                           SelectionResult(selected=(bad,), pairs_used=2)],
                          view)
    # a cache without rows keeps only its open chunk's: no sealed one is
    # gathered, though it is a candidate
    cache = LayerCache(dim=2, n_sink=1, n_local=0, chunk=2, key_norms=False,
                       rows=False)
    cache.append(np.ones((4, 2), np.float32), np.ones((4, 2), np.float32))
    view = cache.snapshot()
    assert view.n_candidates == 2
    assert materialize(SelectionResult(selected=(1,), pairs_used=1),
                       view)[0].shape == (1, 2)
    with pytest.raises(UnknownChunk):
        materialize(SelectionResult(selected=(0,), pairs_used=2), view)


def oracle_scores(probe, view, mode, head) -> list[float]:
    """One oracle cosine call per chunk (per member key in max-score)
    on one head's keys."""
    if mode == "mean":
        return [cosine(probe, rep_key_of(ch.keys[:, head]))
                for ch in view.retrievable]
    return [max(cosine(probe, row) for row in ch.keys[:, head])
            for ch in view.retrievable]


@settings(max_examples=200, deadline=None)
@given(n_sink=st.integers(0, 8), chunk=st.integers(1, 6),
       n_local=st.integers(0, 12), heads=st.sampled_from([1, 2, 8]),
       mode=st.sampled_from(["mean", "max-score"]),
       total=st.integers(0, 60), zero_share=st.sampled_from([0.0, 0.3, 1.0]),
       budget_chunks=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_vectorized_scores_match_cosine_oracle(n_sink, chunk, n_local, heads,
                                               mode, total, zero_share,
                                               budget_chunks, seed):
    rng = np.random.default_rng(seed)
    dim = 3
    keys = rng.standard_normal((total, heads, dim)).astype(np.float32)
    keys[rng.random((total, heads)) < zero_share] = 0.0
    cache = LayerCache(dim=(heads, dim), n_sink=n_sink, n_local=n_local,
                       chunk=chunk)
    for lo in range(0, total, 7):  # several appends, several regrowths
        cache.append(keys[lo:lo + 7], keys[lo:lo + 7] + 1.0)
    view = cache.snapshot()
    probe = rng.standard_normal((heads, dim)).astype(np.float32)
    probe *= rng.random((heads, 1)) >= zero_share

    got = score_chunks_across_heads(probe, view, mode=mode)
    per_head = [oracle_scores(probe[h], view, mode, h) for h in range(heads)]
    chunks = view.retrievable
    want = np.array([np.mean([s[i] for s in per_head])
                     for i in range(len(chunks))])
    want_rows = np.array([ch.rows for ch in chunks], dtype=np.int64)
    assert [ch.chunk_id for ch in chunks] == list(range(len(chunks)))
    assert got.shape == want.shape
    assert np.array_equal(view.candidate_rows, want_rows)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # with n_local = 0 the open partial chunk is a candidate as well
    if n_local == 0 and total > n_sink:
        assert view.candidate_rows.sum() == total - n_sink

    budget = budget_chunks * chunk
    sel = select_topk(got, budget, view.candidate_rows)
    assert sel == select_topk(want, budget, want_rows)
    keys, values = materialize(sel, view)
    picked = sorted(sel.selected)
    assert np.array_equal(keys, np.concatenate(
        [chunks[j].keys for j in picked] or [np.zeros((0, heads, dim))]))
    assert np.array_equal(values, np.concatenate(
        [chunks[j].values for j in picked] or [np.zeros((0, heads, 1))]))


def near_tied_keys(rng, rows, chunk, n_sink, shape, twins, zeros):
    """float32 keys of `rows` rows shaped `shape` in which a share
    `twins` of the member rows copy an earlier row of their chunk,
    exactly or one ulp away in one dimension, and a share `zeros` of
    rows and of single heads are 0."""
    keys = rng.standard_normal((rows, *shape)).astype(np.float32)
    for r in range(n_sink, rows):
        first = n_sink + (r - n_sink) // chunk * chunk
        if r > first and rng.random() < twins:
            keys[r] = keys[rng.integers(first, r)]
            if rng.random() < 0.5:
                at = (*(rng.integers(k) for k in shape),)
                keys[(r, *at)] = np.nextafter(
                    keys[(r, *at)], np.float32(rng.choice([-np.inf, np.inf])))
    keys[rng.random(rows) < zeros] = 0.0
    keys[rng.random((rows, *shape[:-1])) < zeros] = 0.0
    return keys


@settings(max_examples=250, deadline=None)
@given(layers=st.integers(1, 3), heads=st.sampled_from([1, 2, 8]),
       d_head=st.integers(1, 64),
       chunk=st.sampled_from([4, 8, 12, 32, 1, 2, 3, 5, 6, 7]),
       n_sink=st.integers(0, 9), n_local=st.sampled_from([0, 5, 64]),
       chunks=st.integers(0, 12), extra=st.integers(0, 40),
       twins=st.sampled_from([0.0, 0.3, 0.8]),
       zeros=st.sampled_from([0.0, 0.1]),
       # keys near 1e20 against a probe near 1e20 overflow float32
       scale=st.sampled_from([(1.0, 1.0), (1.0, 1e-3), (1e20, 1.0),
                              (1e20, 1e20)]),
       seed=st.integers(0, 2**32 - 1))
# 8 heads of 64 dims, chunk 32, half the member rows twins
@example(layers=2, heads=8, d_head=64, chunk=32, n_sink=4, n_local=64,
         chunks=12, extra=0, twins=0.8, zeros=0.0, scale=(1.0, 1.0), seed=3)
# one candidate chunk: one winner's exact dot
@example(layers=1, heads=1, d_head=48, chunk=4, n_sink=0, n_local=5,
         chunks=1, extra=0, twins=0.8, zeros=0.0, scale=(1.0, 1.0), seed=4)
# chunk 6, 2 chunks: near-tied contenders beside their winners
@example(layers=3, heads=2, d_head=33, chunk=6, n_sink=1, n_local=5,
         chunks=2, extra=0, twins=0.8, zeros=0.1, scale=(1.0, 1.0), seed=5)
# float32 overflows: every row is computed exactly
@example(layers=1, heads=2, d_head=16, chunk=8, n_sink=2, n_local=5,
         chunks=6, extra=0, twins=0.3, zeros=0.0, scale=(1e20, 1e20), seed=6)
# chunk 1: every row its own chunk, 90 of them
@example(layers=3, heads=2, d_head=32, chunk=1, n_sink=0, n_local=0,
         chunks=90, extra=0, twins=0.0, zeros=0.1, scale=(1.0, 1.0), seed=0)
# a 29-row span: the open chunk holds 2 of its 3 rows
@example(layers=3, heads=2, d_head=32, chunk=3, n_sink=1, n_local=0,
         chunks=9, extra=2, twins=0.0, zeros=0.1, scale=(1.0, 1.0), seed=1)
# a 25-row span: its last row is a 1-row open chunk
@example(layers=3, heads=2, d_head=32, chunk=3, n_sink=1, n_local=0,
         chunks=8, extra=1, twins=0.0, zeros=0.1, scale=(1.0, 1.0), seed=2)
# one 7-row chunk, most rows twins: contenders beside the winner
@example(layers=1, heads=1, d_head=33, chunk=7, n_sink=0, n_local=5,
         chunks=1, extra=0, twins=0.8, zeros=0.0, scale=(1.0, 1.0), seed=2)
def test_max_score_scores_match_the_exact_oracle_bit_for_bit(
        layers, heads, d_head, chunk, n_sink, n_local, chunks, extra, twins,
        zeros, scale, seed):
    """Max-score scores through the float32 screen and exact winners are
    byte-identical to the same exact dot over every member key (the
    oracle), near ties, zero norms, partial open chunks, member spans of
    any length and float32 overflow included; the oracle is the cosine
    oracle's mean over heads to within 1e-12."""
    rng = np.random.default_rng(seed)
    shape = (layers, heads, d_head)
    rows = n_sink + chunks * chunk + n_local + extra
    keys = near_tied_keys(rng, rows, chunk, n_sink, shape, twins, zeros)
    keys *= np.float32(scale[0])
    cache = LayerCache(dim=shape, n_sink=n_sink, n_local=n_local, chunk=chunk)
    if rows:
        cache.append(keys, keys)
    view = cache.snapshot()
    probe = rng.standard_normal(shape) * scale[1]  # float64, as the engine's
    probe[rng.random(shape[:-1]) < zeros] = 0.0
    got = score_chunks_across_heads(probe, view, mode="max-score")
    want = max_score_scores(probe, view)
    assert got.shape == (layers, view.n_candidates)
    assert got.tobytes() == want.tobytes()
    for l in range(layers):
        per_head = [oracle_scores(probe[l, h], layer_view(view, l),
                                  "max-score", h) for h in range(heads)]
        mean = np.mean(np.reshape(per_head, (heads, -1)), axis=0)
        assert np.allclose(want[l], mean, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(chunk=st.integers(1, 5), n_sink=st.integers(0, 4),
       n_local=st.sampled_from([0, 3]), total=st.integers(1, 40),
       picks=st.lists(st.lists(st.integers(0, 12), unique=True),
                      min_size=1, max_size=3))
# the open chunk (id 2, 2 of 4 rows) is a candidate; the middle layer
# selects nothing
@example(chunk=4, n_sink=1, n_local=0, total=11,
         picks=[[2, 0], [], [1, 2, 0]])
def test_selected_rows_match_per_chunk_concatenation(chunk, n_sink, n_local,
                                                     total, picks):
    """Every layer's rows, derived at once, are its selected chunks'
    rows concatenated in id order; a partial open chunk gives only its
    cached rows, and an empty selection gives none."""
    view = view_of(np.ones((total, len(picks), 1, 2)), chunk, n_sink=n_sink,
                   n_local=n_local)
    selections = [SelectionResult(
        selected=tuple(j for j in p if j < view.n_candidates), pairs_used=0)
        for p in picks]
    got = selected_rows(selections, view)
    assert len(got) == len(selections)
    for sel, rows in zip(selections, got):
        want = [np.arange(*view.chunk_rows(j)) for j in sorted(sel.selected)]
        assert np.array_equal(rows, np.concatenate(want or [[]]))
