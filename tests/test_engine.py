import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kvprobe.engine as engine_module
import kvprobe.retrieval as retrieval_module
from kvprobe.cache import LayerCache
from kvprobe.cutoff import BudgetAllocation, allocate, layer_density
from kvprobe.engine import (CUTOFF_MODES, PROBE_MODES, REP_MODES,
                            ConfigError, Engine, EngineConfig,
                            reference_attention, run_trace)
from kvprobe.linalg import DimMismatch, EmptyInput
from kvprobe.retrieval import (Gathered, materialize,
                               score_chunks_across_heads, select_topk,
                               selected_rows)
from kvprobe.tracefile import (PlantedSpec, SyntheticConfig,
                               generate_synthetic, read_trace, write_trace)
from oracles import dense_attention, layer_view, trace_values, value_sums

TINY = SyntheticConfig(d=8, layers=2, heads=2, window=8, num_windows=6,
                       num_decode_steps=3, n_sink=2, chunk=2, n_local=4)


def tiny_trace(seed=0, task_rows=0, planted=True):
    cfg = SyntheticConfig(d=TINY.d, layers=TINY.layers, heads=TINY.heads,
                          window=TINY.window, num_windows=TINY.num_windows,
                          num_decode_steps=TINY.num_decode_steps,
                          n_sink=TINY.n_sink, chunk=TINY.chunk,
                          n_local=TINY.n_local, task_rows=task_rows)
    spec = PlantedSpec.auto(cfg, per_step=1) if planted else None
    return generate_synthetic(cfg, spec, seed=seed)


def tiny_config(**overrides):
    base = dict(d=TINY.d, layers=TINY.layers, heads=TINY.heads,
                window=TINY.window, chunk=TINY.chunk, n_sink=TINY.n_sink,
                n_local=TINY.n_local, budget=4)
    base.update(overrides)
    return EngineConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(d=10, layers=1, heads=3)  # d not divisible by heads
    with pytest.raises(ConfigError):
        EngineConfig(d=8, layers=1, budget=100, chunk=32)  # budget % chunk
    with pytest.raises(ConfigError):
        EngineConfig(d=8, layers=1, probe_mode="average")
    with pytest.raises(ConfigError):
        EngineConfig(d=8, layers=1, cutoff_mode="adaptive")
    with pytest.raises(ConfigError):
        EngineConfig(d=8, layers=2, probe_mode="activation")  # no aliases
    cfg = EngineConfig(d=8, layers=2, probe_mode="act")
    assert cfg.total_budget == 2 * cfg.budget


def test_config_rejects_no_sinks_and_no_local():
    """A layer's share of the budget may be 0, so without sinks or a local
    tail a decode step could attend no key at all."""
    with pytest.raises(ConfigError, match="attend nothing"):
        EngineConfig(d=8, layers=2, n_sink=0, n_local=0, budget=64)
    EngineConfig(d=8, layers=2, n_sink=0, n_local=1, budget=0)
    EngineConfig(d=8, layers=2, n_sink=1, n_local=0, budget=0)


def test_reference_attention_example():
    """Logits (0, ln 3) mix values as 0.25 v1 + 0.75 v2."""
    d = 4
    q = np.zeros((1, d)); q[0, 0] = 1.0
    k = np.zeros((2, d)); k[1, 0] = math.log(3.0) * math.sqrt(d)
    v = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    out = reference_attention(q, k, v)
    # inputs quantize to float32 on entry, hence the tolerance
    assert out[0] == pytest.approx([0.25, 0.75, 0.0, 0.0], abs=1e-6)


def test_reference_attention_uniform_keys_average_values():
    q = np.random.default_rng(0).standard_normal((1, 4))
    k = np.zeros((5, 4))
    v = np.arange(20.0).reshape(5, 4)
    out = reference_attention(q, k, v)
    assert out[0] == pytest.approx(v.mean(axis=0))


def test_every_query_row_sees_every_key():
    """No key is masked: bumping the last key moves every row's output."""
    rng = np.random.default_rng(1)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    base = reference_attention(q, k, v)
    k2, v2 = k.copy(), v.copy()
    k2[4] += 10.0
    v2[4] -= 5.0
    bumped = reference_attention(q, k2, v2)
    for row in range(3):
        assert not np.allclose(base[row], bumped[row])


def _token_major_blocks(rng, sizes, heads, d):
    """Key and value blocks as the engine passes them: (heads, n, d)
    transposed views of token-major (n, heads, d) float32 arrays."""
    ks, vs = [], []
    for n in sizes:
        for out in (ks, vs):
            a = rng.standard_normal((n, heads, d)).astype(np.float32)
            out.append(a.transpose(1, 0, 2))
    return ks, vs


def _dense_case(case):
    """(q, k, v, oracle output) for one attention shape."""
    rng = np.random.default_rng(sum(map(ord, case)))
    d = 64
    if case == "decode-heads":  # one row per head over sinks, chunks, tail
        heads = 4
        q = rng.standard_normal((heads, 1, d)).astype(np.float32)
        k, v = _token_major_blocks(rng, (64, 1472, 512), heads, d)
        want = np.stack([dense_attention(q[h], np.concatenate(
            [b[h] for b in k]), np.concatenate([b[h] for b in v]))
            for h in range(heads)])
        return q, k, v, want
    if case == "prefill-window":  # history then the queries' own rows
        q = rng.standard_normal((48, d)).astype(np.float32)
        hist = rng.standard_normal((2, 300, d)).astype(np.float32)
        win = rng.standard_normal((2, 48, d)).astype(np.float32)
        win[0] = q
        k, v = [hist[0], win[0]], [hist[1], win[1]]
        want = dense_attention(q, np.concatenate(k), np.concatenate(v))
        return q, k, v, want
    if case == "split-blocks":  # uneven blocks, an empty one among them
        q = 2.0 * rng.standard_normal((5, d)).astype(np.float32)
        k, v = _token_major_blocks(rng, (7, 0, 130, 1, 61), 1, d)
        k, v = [b[0] for b in k], [b[0] for b in v]
        want = dense_attention(q, np.concatenate(k), np.concatenate(v))
        return q, k, v, want
    q = rng.standard_normal((20, d))  # one float64 array, converted
    k = rng.standard_normal((400, d))
    v = rng.standard_normal((400, d))
    return q, k, v, dense_attention(q, k, v)


@pytest.mark.parametrize("case", ["decode-heads", "prefill-window",
                                  "split-blocks", "one-array"])
def test_reference_attention_matches_float64_oracle(case):
    """float32 products with a float64 softmax stay within 1e-5 relative
    of dense float64 attention, whatever the head axis and blocking."""
    q, k, v, want = _dense_case(case)
    got = reference_attention(q, k, v)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= 1e-5, err


def test_attention_rejects_key_and_value_blocks_split_differently():
    """Blocks pair up by position; K and V split at different rows would
    weight the wrong value rows."""
    q = np.zeros((1, 2))
    k = [np.zeros((3, 2)), np.zeros((5, 2))]
    with pytest.raises(DimMismatch):
        reference_attention(q, k, [np.zeros((5, 2)), np.zeros((3, 2))])


def test_attention_rejects_a_gathered_block_that_misses_a_layer():
    """A Gathered block needs one item per query layer, or that layer's
    logits are never written; and a layer whose only block gathers no
    rows has no key to attend."""
    data = np.ones((6, 2, 1, 4), dtype=np.float32)  # (pairs, L, H, d)
    q = np.ones((2, 1, 1, 4))
    rows = [np.arange(3), np.arange(2)]
    block = Gathered(data, rows)
    assert block.shape == (2, 1, 3, 4) and block.sizes == (3, 2)
    assert reference_attention(q, [block], [Gathered(data, rows)]).shape \
        == (2, 1, 1, 4)
    with pytest.raises(DimMismatch):
        reference_attention(q[:1], [block], [Gathered(data, rows)])
    empty = [np.arange(3), np.arange(0)]
    with pytest.raises(EmptyInput):
        reference_attention(q, [Gathered(data, empty)],
                            [Gathered(data, empty)])


def _decode_peak(cfg: SyntheticConfig, **engine_config):
    """The first decode step on cfg's trace and its tracemalloc peak."""
    engine = Engine(EngineConfig(d=cfg.d, layers=cfg.layers,
                                 heads=cfg.heads, window=cfg.window,
                                 **engine_config))
    # as Engine.run does: no regrowth
    engine.cache.reserve(cfg.num_windows * cfg.window + cfg.num_decode_steps)
    for blk in generate_synthetic(cfg, None, seed=7).blocks():
        if blk.stage == "pre-filling":
            engine.prefill_step(blk, blk.index)
            continue
        tracemalloc.start()
        try:
            step = engine.decode_step(blk, blk.index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return step, peak


def _last_prefill_peak(cfg: SyntheticConfig):
    """The last pre-fill step on cfg's trace and its tracemalloc peak."""
    engine = Engine(EngineConfig(d=cfg.d, layers=cfg.layers,
                                 heads=cfg.heads, window=cfg.window))
    # as Engine.run does: no regrowth
    engine.cache.reserve(cfg.num_windows * cfg.window + cfg.num_decode_steps)
    blocks = list(generate_synthetic(cfg, None, seed=7).blocks())
    *history, last = blocks[:cfg.num_windows]
    for blk in history:
        engine.prefill_step(blk, blk.index)
    tracemalloc.start()
    try:
        step = engine.prefill_step(last, last.index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return step, peak


def test_decode_step_copies_only_the_retrieved_pairs():
    """One decode step on criterion 5's geometry (H=1, 64 + 1472 + 512
    attended pairs per layer) allocates at most the gathered float32
    K/V of the retrieved chunks plus 64 KiB: sinks and local tail are
    read in place and nothing is copied to float64."""
    cfg = SyntheticConfig()
    step, peak = _decode_peak(cfg)
    used = {rec.pairs_used for rec in step.layers}
    assert used == {1472}
    assert {rec.attended_pairs for rec in step.layers} == {2048}
    gathered = 2 * 1472 * cfg.d * 4
    assert peak < gathered + 64 * 1024, peak


def test_multi_head_decode_step_holds_one_layers_gather():
    """The same decode step with 8 heads of d_head 64 allocates less than
    one layer's gathered float32 K/V: the retrieved chunks are gathered
    one layer at a time, keys and values in turn."""
    cfg = SyntheticConfig(d=512, heads=8)
    step, peak = _decode_peak(cfg)
    assert {rec.pairs_used for rec in step.layers} == {1472}
    assert peak < 2 * 1472 * cfg.d * 4, peak


@pytest.mark.parametrize("cfg", [SyntheticConfig(),
                                 SyntheticConfig(d=512, heads=8)],
                         ids=["H1", "H8"])
def test_max_score_decode_step_holds_less_than_one_layers_gather(cfg):
    """A max-score decode step on criterion 5's geometry allocates less
    than one layer's gathered float32 K/V: scoring reads the member keys
    in place in float32 and converts only each chunk's best rows to
    float64."""
    step, peak = _decode_peak(cfg, rep_mode="max-score")
    assert {rec.pairs_used for rec in step.layers} == {1472}
    assert peak < 2 * 1472 * cfg.d * 4, peak


@pytest.mark.parametrize("cfg", [SyntheticConfig(),
                                 SyntheticConfig(d=512, heads=8)],
                         ids=["H1", "H8"])
def test_max_score_decode_step_takes_the_screen(cfg, monkeypatch):
    """Max-score steps on criterion 5's geometry (chunk 32, n_local 512,
    d_head 64) score through the float32 screen: the blocked float64
    pass over every member key never runs."""
    def blocked(*args):
        raise AssertionError("max-score fell back to the blocked pass")

    monkeypatch.setattr(retrieval_module, "_blocked_max", blocked)
    step, _ = _decode_peak(cfg, rep_mode="max-score")
    assert {rec.pairs_used for rec in step.layers} == {1472}


def test_prefill_step_attends_only_the_last_query_row():
    """The last pre-fill window on criterion 5's geometry (H=1, 38
    candidates all retrieved, 2048 keys per layer) allocates at most the
    gathered float32 K/V of the retrieved chunks plus 64 KiB: attention
    weights for one query row per head, not a float64 (rows, keys)
    buffer."""
    cfg = SyntheticConfig()
    step, peak = _last_prefill_peak(cfg)
    assert {rec.pairs_used for rec in step.layers} == {38 * 32}
    assert {rec.attended_pairs for rec in step.layers} == {2048}
    gathered = 2 * 38 * 32 * cfg.d * 4
    assert peak < gathered + 64 * 1024, peak


def test_multi_head_prefill_step_holds_one_layers_gather():
    """The same pre-fill window with 8 heads of d_head 64 allocates less
    than one layer's gathered float32 K/V."""
    cfg = SyntheticConfig(d=512, heads=8)
    step, peak = _last_prefill_peak(cfg)
    assert {rec.pairs_used for rec in step.layers} == {38 * 32}
    assert peak < 2 * 38 * 32 * cfg.d * 4, peak


@pytest.mark.parametrize("cfg", [SyntheticConfig(),
                                 SyntheticConfig(d=512, heads=8)],
                         ids=["H1", "H8"])
def test_mean_mode_prefill_step_makes_no_window_sized_float64_copy(cfg):
    """The last mean-mode pre-fill window on criterion 5's geometry
    allocates less than the window's queries or keys in float64: no
    member-key norms are computed, and the probe squares and weighs its
    own float64 copy of each layer's queries in place."""
    _, peak = _last_prefill_peak(cfg)
    assert peak < cfg.window * cfg.layers * cfg.d * 8, peak


@pytest.mark.parametrize("rep_mode", REP_MODES)
@pytest.mark.parametrize("cutoff_mode", CUTOFF_MODES)
@pytest.mark.parametrize("probe_mode", PROBE_MODES)
def test_streamed_and_in_memory_traces_replay_alike(tmp_path, probe_mode,
                                                    cutoff_mode, rep_mode):
    """run_trace on a TraceReader, which reads each window one layer at a
    time into one reused buffer, gives the same records as on the
    TraceData the file was written from: two heads, task queries."""
    trace = tiny_trace(seed=2, task_rows=3)
    path = tmp_path / "t.akvt"
    write_trace(path, trace)
    _, reader = read_trace(path)
    config = tiny_config(probe_mode=probe_mode, cutoff_mode=cutoff_mode,
                         rep_mode=rep_mode)
    want = [s.to_json() for s in run_trace(trace, config).steps]
    got = [s.to_json() for s in run_trace(reader, config).steps]
    assert len(want) == TINY.num_windows + TINY.num_decode_steps
    assert got == want


def test_only_max_score_keeps_member_key_norms():
    blocks = list(tiny_trace().blocks())[:3]
    views = {}
    for rep in ("mean", "max-score"):
        engine = Engine(tiny_config(rep_mode=rep))
        for blk in blocks:
            engine.prefill_step(blk, blk.index)
        views[rep] = engine.cache.snapshot()
    assert views["mean"].key_norms is None
    assert layer_view(views["mean"], 1).key_norms is None
    assert views["max-score"].key_norms.shape == (24, TINY.layers, TINY.heads)
    probe = np.ones(views["mean"].keys.shape[1:])
    assert views["mean"].n_candidates > 0
    with pytest.raises(ValueError, match="norms"):
        score_chunks_across_heads(probe, views["mean"], mode="max-score")


def test_prefill_checksum_sums_the_last_rows_attention():
    """A pre-fill record's checksum is the sum over heads of the window's
    last query row attended over sinks, retrieved chunks, local tail and
    the whole window, its values taken from the trace."""
    trace = tiny_trace(seed=5)
    values = trace_values(trace)[:, 0]
    config = tiny_config()
    engine = Engine(config)
    for blk in trace.blocks():
        if blk.stage != "pre-filling":
            break
        view = layer_view(engine.cache.snapshot(), 0)
        rec = engine.prefill_step(blk, blk.index).layers[0]
        sel = select_topk(rec.scores, rec.budget_pairs, config.chunk)
        keys_sel, _ = materialize(sel, view)
        rows, = selected_rows([sel], view)
        past = values[:view.total_pairs]
        k = np.concatenate([view.sink_keys, keys_sel, view.local_keys,
                            blk.k[0].transpose(1, 0, 2)])
        v = np.concatenate([past[:view.n_sink], past[rows],
                            past[view.tail_start:],
                            blk.v[0].transpose(1, 0, 2)])
        want = sum(dense_attention(blk.q[0, h, -1:], k[:, h], v[:, h]).sum()
                   for h in range(config.heads))
        assert rec.attended_pairs == k.shape[0]
        assert rec.attn_checksum == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_step_records_keep_scores_as_arrays():
    """scores is the scoring call's read-only float64 array and
    candidate_ids a range; the JSON is that of the tuple form."""
    import json
    result = run_trace(tiny_trace(), tiny_config())
    for _, rec in result.layer_records():
        assert isinstance(rec.scores, np.ndarray)
        assert rec.scores.dtype == np.float64
        assert not rec.scores.flags.writeable
        assert rec.candidate_ids == range(len(rec.scores))
        old = dataclasses.asdict(dataclasses.replace(
            rec, candidate_ids=tuple(rec.candidate_ids),
            scores=tuple(rec.scores.tolist())))
        assert json.dumps(rec.to_json()) == json.dumps(old)


def test_run_produces_step_records():
    result = run_trace(tiny_trace(), tiny_config())
    stages = [s.stage for s in result.steps]
    assert stages == ["pre-filling"] * 6 + ["decoding"] * 3
    for step in result.steps:
        assert [r.layer for r in step.layers] == [0, 1]
        for rec in step.layers:
            assert len(rec.scores) == len(rec.candidate_ids)
            assert rec.pairs_used <= rec.budget_pairs
            assert math.isfinite(rec.attn_checksum)


def test_trace_and_config_must_agree():
    with pytest.raises(ConfigError):
        run_trace(tiny_trace(), tiny_config(d=16, heads=2))
    with pytest.raises(ConfigError):
        run_trace(tiny_trace(), tiny_config(window=16))


def test_candidates_exclude_local_tail():
    """A chunk may be scored only once it has left the local tail."""
    result = run_trace(tiny_trace(), tiny_config())
    cfg = tiny_config()
    for step_idx, step in enumerate(result.steps):
        if step.stage != "pre-filling":
            continue
        cached = step_idx * cfg.window
        tail_start = max(min(cached, cfg.n_sink), cached - cfg.n_local)
        want = max(0, tail_start - cfg.n_sink) // cfg.chunk
        for rec in step.layers:
            assert len(rec.candidate_ids) == want
            assert rec.candidate_ids == range(want)


def test_chunk_leaving_the_tail_is_a_candidate_at_once():
    """Decode step 31 appends pair 1055 and moves tail_start from 543 to
    544, so chunk 14 (pairs 512..543) leaves the local tail in that step
    and must be a candidate in it, or no tier covers pair 543."""
    cfg = SyntheticConfig(layers=1, num_windows=4, num_decode_steps=40)
    result = run_trace(generate_synthetic(cfg, None, seed=0),
                       EngineConfig(d=cfg.d, layers=1))
    decode = [s for s in result.steps if s.stage == "decoding"]
    assert 14 not in decode[30].layers[0].candidate_ids
    assert 14 in decode[31].layers[0].candidate_ids


def tier_cover(view, candidate_ids, window_rows: int) -> np.ndarray:
    """How many tiers hold each position: sinks, candidate chunks, the
    local tail, and the pre-fill window's rows after the cached ones."""
    n = view.total_pairs
    cover = np.zeros(n + window_rows, dtype=np.int64)
    cover[:view.sink_keys.shape[0]] += 1
    for j in candidate_ids:
        cover[slice(*view.chunk_rows(j))] += 1
    cover[view.tail_start:n] += 1
    cover[n:] += 1
    return cover


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the chunk straddling tail_start is not a candidate, and its rows "
    "before tail_start are not in the local tail either: on the "
    "criterion-5 geometry decode step s leaves s+1 rows of chunk 46 in "
    "no tier (ROADMAP item 8)"))
@settings(max_examples=60, deadline=None)
@given(window=st.integers(1, 8), windows=st.integers(1, 6),
       decode_steps=st.integers(0, 12), n_sink=st.integers(0, 6),
       chunk=st.integers(1, 5), n_local=st.integers(0, 12),
       heads=st.sampled_from([1, 2]))
@example(window=256, windows=8, decode_steps=16, n_sink=64, chunk=32,
         n_local=512, heads=1)  # criterion 5's cache geometry
def test_every_position_is_in_exactly_one_tier(window, windows, decode_steps,
                                               n_sink, chunk, n_local, heads):
    """At every step each cached position lies in exactly one of the
    sinks, the local tail, the candidate chunks or (pre-fill) the
    current window."""
    assume(n_sink or n_local)  # EngineConfig rejects a cache of neither
    cfg = SyntheticConfig(d=2 * heads, layers=1, heads=heads, window=window,
                          num_windows=windows, num_decode_steps=decode_steps,
                          n_sink=n_sink, chunk=chunk, n_local=n_local)
    engine = Engine(EngineConfig(d=cfg.d, layers=1, heads=heads,
                                 window=window, chunk=chunk, n_sink=n_sink,
                                 n_local=n_local, budget=chunk))
    for blk in generate_synthetic(cfg, None, seed=0).blocks():
        if blk.stage == "pre-filling":
            view = layer_view(engine.cache.snapshot(), 0)
            step = engine.prefill_step(blk, blk.index)
            window_rows = window
        else:
            step = engine.decode_step(blk, blk.index)
            view = layer_view(engine.cache.snapshot(), 0)
            window_rows = 0
        cover = tier_cover(view, step.layers[0].candidate_ids, window_rows)
        assert (cover == 1).all(), (blk.stage, blk.index,
                                    np.flatnonzero(cover != 1))


def test_decode_attended_pairs_bounded():
    result = run_trace(tiny_trace(), tiny_config())
    cfg = tiny_config()
    for step in result.steps:
        if step.stage != "decoding":
            continue
        for rec in step.layers:
            assert rec.attended_pairs <= (cfg.n_sink + cfg.n_local +
                                          rec.budget_pairs)
            assert rec.attended_pairs == (cfg.n_sink + rec.pairs_used +
                                          cfg.n_local)


def test_decode_selection_is_probe_mode_invariant():
    """Decoding probes are the raw queries, so act and mean runs must
    pick identical chunks at every decode step."""
    trace = tiny_trace(seed=7)
    act = run_trace(trace, tiny_config(probe_mode="act"))
    mean = run_trace(trace, tiny_config(probe_mode="mean"))
    for sa, sm in zip(act.steps, mean.steps):
        if sa.stage != "decoding":
            continue
        for ra, rm in zip(sa.layers, sm.layers):
            assert ra.selected == rm.selected
            assert ra.scores == pytest.approx(rm.scores, abs=1e-12)
            assert ra.budget_pairs == rm.budget_pairs


def test_prefill_probes_differ_between_modes():
    trace = tiny_trace(seed=7)
    act = run_trace(trace, tiny_config(probe_mode="act"))
    mean = run_trace(trace, tiny_config(probe_mode="mean"))
    diffs = 0
    for sa, sm in zip(act.steps, mean.steps):
        if sa.stage != "pre-filling":
            continue
        for ra, rm in zip(sa.layers, sm.layers):
            if len(ra.scores) and not np.allclose(ra.scores, rm.scores):
                diffs += 1
    assert diffs > 0


def test_dynamic_budgets_conserve_shared_total():
    result = run_trace(tiny_trace(seed=3),
                       tiny_config(cutoff_mode="dynamic"))
    cfg = tiny_config()
    for step in result.steps:
        if step.stage != "decoding":
            continue
        budgets = [rec.budget_pairs for rec in step.layers]
        assert sum(budgets) == cfg.total_budget
        assert all(b % cfg.chunk == 0 for b in budgets)


def test_fixed_budgets_stay_per_layer():
    result = run_trace(tiny_trace(seed=3), tiny_config(cutoff_mode="fixed"))
    for step in result.steps:
        if step.stage == "decoding":
            assert all(r.budget_pairs == 4 for r in step.layers)


def test_max_score_rep_mode_runs():
    result = run_trace(tiny_trace(seed=2), tiny_config(rep_mode="max-score"))
    assert any(rec.selected for _, rec in result.layer_records("decoding"))


def test_task_queries_feed_probe_statistics():
    trace = tiny_trace(seed=1, task_rows=4)
    config = tiny_config()
    engine = Engine(config, task_queries=trace.task_queries)
    engine.run(trace)
    # every pre-filling window contributed its rows plus the task rows
    want = TINY.num_windows * (TINY.window + 4)
    assert engine.stats[0].count == want


def test_task_queries_shape_checked():
    trace = tiny_trace(seed=1, task_rows=4)
    dropped_head = trace.task_queries[:, :1]
    wrong_rank = [np.zeros(shape) for shape in ((4,), (4, 1), (2, 2, 4),
                                                (2, 2, 4, 4, 1))]
    for bad in [dropped_head, *wrong_rank]:
        with pytest.raises(ConfigError):
            Engine(tiny_config(), task_queries=bad)


def test_step_record_json_round_trips():
    import json
    result = run_trace(tiny_trace(), tiny_config())
    doc = json.loads(json.dumps(result.steps[-1].to_json()))
    assert doc["stage"] == "decoding"
    assert len(doc["layers"]) == TINY.layers


def test_swapping_heads_leaves_records_unchanged():
    """Heads are exchangeable: a layer's scores average its heads and the
    checksum sums them, both exact under swapping two heads, so a trace
    with heads 0 and 1 swapped must replay to identical records. Attending
    one head's queries to another head's keys would break this."""
    trace = tiny_trace(seed=4, task_rows=3)
    swapped = dataclasses.replace(
        trace, task_queries=trace.task_queries[:, ::-1],
        windows=trace.windows[:, :, ::-1], decode=trace.decode[:, :, ::-1])
    for rep_mode in ("mean", "max-score"):
        config = tiny_config(rep_mode=rep_mode)
        want = [s.to_json() for s in run_trace(trace, config).steps]
        got = [s.to_json() for s in run_trace(swapped, config).steps]
        assert got == want


# three layers of two heads; chunk 3 leaves the open chunk partly filled
# at most steps, so with n_local = 0 it is a candidate
LAYERED = SyntheticConfig(d=8, layers=3, heads=2, window=8, num_windows=6,
                          num_decode_steps=5, n_sink=2, chunk=3, n_local=0)


def layered_run(monkeypatch, rep_mode="mean", n_local=0):
    """Replay a LAYERED trace; returns the trace, the engine config, the
    result, the (probe, view) of every scoring call and the output of
    every attention call, (layers, heads, 1, d_head), in call order."""
    cfg = dataclasses.replace(LAYERED, n_local=n_local)
    trace = generate_synthetic(cfg, None, seed=3)
    config = EngineConfig(d=cfg.d, layers=cfg.layers, heads=cfg.heads,
                          window=cfg.window, chunk=cfg.chunk,
                          n_sink=cfg.n_sink, n_local=n_local, budget=6,
                          rep_mode=rep_mode)
    scored, attended = [], []
    score, attend = (engine_module.score_chunks_across_heads,
                     engine_module.reference_attention)

    def spy_score(probe, view, mode="mean"):
        scored.append((np.array(probe), view))
        return score(probe, view, mode=mode)

    def spy_attend(*args, **kwargs):
        attended.append(attend(*args, **kwargs))
        return attended[-1]

    monkeypatch.setattr(engine_module, "score_chunks_across_heads", spy_score)
    monkeypatch.setattr(engine_module, "reference_attention", spy_attend)
    return trace, config, run_trace(trace, config), scored, attended


@pytest.mark.parametrize("n_local", [0, 4])
@pytest.mark.parametrize("rep_mode", ["mean", "max-score"])
def test_batched_step_equals_per_layer_arithmetic(monkeypatch, rep_mode,
                                                  n_local):
    """Every layer's record is, bit for bit, what the one-layer calls give
    on that layer alone: its scores, theta, selection and budget."""
    _, config, result, scored, _ = layered_run(monkeypatch, rep_mode,
                                               n_local)
    partial = False
    for step, (probe, view) in zip(result.steps, scored, strict=True):
        thetas = []
        for l, rec in enumerate(step.layers):
            layer = layer_view(view, l)
            scores = score_chunks_across_heads(probe[l], layer, mode=rep_mode)
            assert rec.scores.tobytes() == scores.tobytes()
            assert rec.theta == layer_density(scores)
            thetas.append(rec.theta)
            sel = select_topk(scores, rec.budget_pairs, layer.candidate_rows)
            assert (rec.selected, rec.pairs_used) == (sel.selected,
                                                      sel.pairs_used)
            partial |= bool(np.any(layer.candidate_rows < config.chunk))
        budgets = [rec.budget_pairs for rec in step.layers]
        if step.stage == "decoding":
            assert budgets == list(allocate(thetas, config.total_budget,
                                            chunk_size=config.chunk).budgets)
        else:
            assert budgets == [config.budget] * config.layers
    assert partial == (n_local == 0)


def test_ragged_budgets_select_and_attend_per_layer(monkeypatch):
    """Unequal per-layer budgets: each layer selects under its own budget
    and attends its own chunks, within 1e-6 of float64 attention over the
    trace's value sums."""
    ragged = (0, 3, 15)
    monkeypatch.setattr(engine_module, "allocate",
                        lambda *args, **kwargs: BudgetAllocation(ragged))
    trace, config, result, scored, attended = layered_run(monkeypatch)
    blocks = list(trace.blocks())
    values = trace_values(trace)
    checked = 0
    for i, (step, (_, view), blk) in enumerate(zip(result.steps, scored,
                                                   blocks, strict=True)):
        if step.stage != "decoding":
            continue
        for l, rec in enumerate(step.layers):
            layer = layer_view(view, l)
            sel = select_topk(rec.scores, ragged[l], layer.candidate_rows)
            assert rec.budget_pairs == ragged[l]
            assert (rec.selected, rec.pairs_used) == (sel.selected,
                                                      sel.pairs_used)
            keys_sel, _ = materialize(sel, layer)
            rows, = selected_rows([sel], layer)
            sums = value_sums(values[:layer.total_pairs, l])
            k = np.concatenate([layer.sink_keys, keys_sel, layer.local_keys])
            v = np.concatenate([sums[:layer.n_sink], sums[rows],
                                sums[layer.tail_start:]])
            assert rec.attended_pairs == k.shape[0]
            got = attended[i][l]
            want = np.stack([dense_attention(blk.q[l, h], k[:, h], v[:, h])
                             for h in range(config.heads)])
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-6, err
            checked += 1
    assert checked == LAYERED.num_decode_steps * LAYERED.layers


@pytest.mark.parametrize("n_local", [0, 4])
@pytest.mark.parametrize("rep_mode", ["mean", "max-score"])
def test_batched_attention_equals_per_layer_attention(monkeypatch, rep_mode,
                                                      n_local):
    """With equal budgets every record's checksum is, bit for bit, that of
    one layer's attention over its own materialized chunks, with value
    sums taken from the trace. On this trace
    that holds also where a partly filled open chunk (n_local = 0) gives
    the layers different pair counts, so the shorter layers' logits are
    padded with -inf."""
    monkeypatch.setattr(engine_module, "allocate", lambda *args, **kwargs:
                        BudgetAllocation((6,) * LAYERED.layers))
    trace, config, result, scored, _ = layered_run(monkeypatch, rep_mode,
                                                   n_local)
    values = trace_values(trace)
    ragged = False
    for step, (_, view), blk in zip(result.steps, scored, trace.blocks(),
                                    strict=True):
        ragged |= len({rec.attended_pairs for rec in step.layers}) > 1
        for l, rec in enumerate(step.layers):
            layer = layer_view(view, l)
            sel = select_topk(rec.scores, rec.budget_pairs,
                              layer.candidate_rows)
            keys_sel, _ = materialize(sel, layer)
            rows, = selected_rows([sel], layer)
            n = layer.total_pairs
            # token-major like the cache's values, so the float32
            # products take the same path
            sums = value_sums(values[:n + config.window, l])
            past = sums[:n]
            k = [a.transpose(1, 0, 2) for a in
                 (layer.sink_keys, keys_sel, layer.local_keys)]
            v = [a.transpose(1, 0, 2) for a in
                 (past[:layer.n_sink], past[rows], past[layer.tail_start:])]
            if step.stage == "pre-filling":
                k.append(blk.k[l])
                v.append(sums[n:n + config.window].transpose(1, 0, 2))
            out = reference_attention(blk.q[l][:, -1:], k, v)
            assert rec.attended_pairs == sum(b.shape[1] for b in k)
            assert rec.attn_checksum == float(out.sum())
    # a partly filled open chunk makes the layers' pair counts differ
    assert ragged == (n_local == 0)


@pytest.mark.parametrize("n_local", [0, 4])
@pytest.mark.parametrize("rep_mode", ["mean", "max-score"])
def test_decode_checksum_sums_the_tokens_attention(monkeypatch, rep_mode,
                                                   n_local):
    """A decode record's checksum is the sum over heads and d_head of the
    token's query attended, in float64, over the sinks, the layer's
    retrieved chunks and the local tail, with their full values taken
    from the trace."""
    trace, config, result, scored, _ = layered_run(monkeypatch, rep_mode,
                                                   n_local)
    values = trace_values(trace)
    checked = 0
    for step, (_, view), blk in zip(result.steps, scored, trace.blocks(),
                                    strict=True):
        if step.stage != "decoding":
            continue
        for l, rec in enumerate(step.layers):
            layer = layer_view(view, l)
            sel = select_topk(rec.scores, rec.budget_pairs,
                              layer.candidate_rows)
            keys_sel, _ = materialize(sel, layer)
            rows, = selected_rows([sel], layer)
            past = values[:layer.total_pairs, l]
            k = np.concatenate([layer.sink_keys, keys_sel, layer.local_keys])
            v = np.concatenate([past[:layer.n_sink], past[rows],
                                past[layer.tail_start:]])
            want = sum(dense_attention(blk.q[l, h], k[:, h], v[:, h]).sum()
                       for h in range(config.heads))
            assert rec.attended_pairs == k.shape[0]
            assert rec.attn_checksum == pytest.approx(want, rel=1e-5,
                                                      abs=1e-5)
            checked += 1
    assert checked == LAYERED.num_decode_steps * LAYERED.layers


def test_each_phase_is_one_call_per_step(monkeypatch):
    """A pre-fill and a decode step each append, snapshot, score, compute
    densities, select and attend once for all layers, not once per
    layer."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("score_chunks_across_heads", "layer_density",
                 "recall_layer", "reference_attention"):
        monkeypatch.setattr(engine_module, name,
                            counted(name, getattr(engine_module, name)))
    for name in ("append", "snapshot"):
        monkeypatch.setattr(LayerCache, name,
                            counted(name, getattr(LayerCache, name)))
    cfg = LAYERED
    engine = Engine(EngineConfig(d=cfg.d, layers=cfg.layers, heads=cfg.heads,
                                 window=cfg.window, chunk=cfg.chunk,
                                 n_sink=cfg.n_sink, n_local=2, budget=6))
    want = dict.fromkeys(["append", "snapshot", "score_chunks_across_heads",
                          "layer_density", "recall_layer",
                          "reference_attention"], 1)
    stages = set()
    for blk in generate_synthetic(cfg, None, seed=0).blocks():
        step = (engine.prefill_step if blk.stage == "pre-filling"
                else engine.decode_step)
        step(blk, blk.index)
        assert calls == want, (blk.stage, blk.index, calls)
        calls.clear()
        stages.add(blk.stage)
    assert stages == {"pre-filling", "decoding"}
