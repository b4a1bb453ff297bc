import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kvprobe.engine import (ConfigError, Engine, EngineConfig,
                            reference_attention, run_trace)
from kvprobe.linalg import DimMismatch
from kvprobe.tracefile import PlantedSpec, SyntheticConfig, generate_synthetic
from oracles import dense_attention

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


def test_reference_attention_example():
    """Logits (0, ln 3) mix values as 0.25 v1 + 0.75 v2."""
    d = 4
    q = np.zeros((1, d)); q[0, 0] = 1.0
    k = np.zeros((2, d)); k[1, 0] = math.log(3.0) * math.sqrt(d)
    v = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    out = reference_attention(q, k, v, causal=False)
    # inputs quantize to float32 on entry, hence the tolerance
    assert out[0] == pytest.approx([0.25, 0.75, 0.0, 0.0], abs=1e-6)


def test_reference_attention_uniform_keys_average_values():
    q = np.random.default_rng(0).standard_normal((1, 4))
    k = np.zeros((5, 4))
    v = np.arange(20.0).reshape(5, 4)
    out = reference_attention(q, k, v, causal=False)
    assert out[0] == pytest.approx(v.mean(axis=0))


def test_causal_mask_blocks_future_keys():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((5, 4))  # 2 history rows + 3 own positions
    v = rng.standard_normal((5, 4))
    base = reference_attention(q, k, v, causal=True)
    k2, v2 = k.copy(), v.copy()
    k2[4] += 10.0  # future of queries 0 and 1
    v2[4] -= 5.0
    bumped = reference_attention(q, k2, v2, causal=True)
    assert base[:2] == pytest.approx(bumped[:2], abs=1e-9)
    assert not np.allclose(base[2], bumped[2])


def test_causal_mask_rejects_more_queries_than_keys():
    with pytest.raises(ValueError):
        reference_attention(np.zeros((3, 2)), np.zeros((2, 2)),
                            np.zeros((2, 2)), causal=True)


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
    """(q, k, v, causal, oracle output) for one attention shape."""
    rng = np.random.default_rng(sum(map(ord, case)))
    d = 64
    if case == "decode-heads":  # one row per head over sinks, chunks, tail
        heads = 4
        q = rng.standard_normal((heads, 1, d)).astype(np.float32)
        k, v = _token_major_blocks(rng, (64, 1472, 512), heads, d)
        want = np.stack([dense_attention(q[h], np.concatenate(
            [b[h] for b in k]), np.concatenate([b[h] for b in v]))
            for h in range(heads)])
        return q, k, v, True, want
    if case == "prefill-window":  # history then the queries' own rows
        q = rng.standard_normal((48, d)).astype(np.float32)
        hist = rng.standard_normal((2, 300, d)).astype(np.float32)
        win = rng.standard_normal((2, 48, d)).astype(np.float32)
        win[0] = q
        k, v = [hist[0], win[0]], [hist[1], win[1]]
        want = dense_attention(q, np.concatenate(k), np.concatenate(v))
        return q, k, v, True, want
    if case == "split-blocks":  # uneven blocks, an empty one among them
        q = 2.0 * rng.standard_normal((5, d)).astype(np.float32)
        k, v = _token_major_blocks(rng, (7, 0, 130, 1, 61), 1, d)
        k, v = [b[0] for b in k], [b[0] for b in v]
        want = dense_attention(q, np.concatenate(k), np.concatenate(v),
                               causal=False)
        return q, k, v, False, want
    q = rng.standard_normal((20, d))  # one float64 array, converted
    k = rng.standard_normal((400, d))
    v = rng.standard_normal((400, d))
    return q, k, v, True, dense_attention(q, k, v)


@pytest.mark.parametrize("case", ["decode-heads", "prefill-window",
                                  "split-blocks", "one-array"])
def test_reference_attention_matches_float64_oracle(case):
    """float32 products with a float64 softmax stay within 1e-5 relative
    of dense float64 attention, whatever the head axis and blocking."""
    q, k, v, causal, want = _dense_case(case)
    got = reference_attention(q, k, v, causal=causal)
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


def test_decode_step_copies_only_the_retrieved_pairs():
    """One decode step on criterion 5's geometry (H=1, 64 + 1472 + 512
    attended pairs per layer) allocates at most the gathered float32
    K/V of the retrieved chunks plus 64 KiB: sinks and local tail are
    read in place and nothing is copied to float64."""
    cfg = SyntheticConfig()
    engine = Engine(EngineConfig(d=cfg.d, layers=cfg.layers,
                                 heads=cfg.heads, window=cfg.window))
    for cache in engine.caches:  # as Engine.run does: no regrowth
        cache.reserve(cfg.num_windows * cfg.window + cfg.num_decode_steps)
    for blk in generate_synthetic(cfg, None, seed=7).blocks():
        if blk.stage == "pre-filling":
            engine.prefill_step(blk.q, blk.k, blk.v, blk.index)
            continue
        tracemalloc.start()
        try:
            step = engine.decode_step(blk.q, blk.k, blk.v, blk.index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        break
    used = {rec.pairs_used for rec in step.layers}
    assert used == {1472}
    assert {rec.attended_pairs for rec in step.layers} == {2048}
    gathered = 2 * 1472 * cfg.d * 4
    assert peak < gathered + 64 * 1024, peak


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
            assert rec.candidate_ids == tuple(range(want))


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
    "no tier (ROADMAP item 3)"))
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
    cfg = SyntheticConfig(d=2 * heads, layers=1, heads=heads, window=window,
                          num_windows=windows, num_decode_steps=decode_steps,
                          n_sink=n_sink, chunk=chunk, n_local=n_local)
    engine = Engine(EngineConfig(d=cfg.d, layers=1, heads=heads,
                                 window=window, chunk=chunk, n_sink=n_sink,
                                 n_local=n_local, budget=chunk))
    for blk in generate_synthetic(cfg, None, seed=0).blocks():
        if blk.stage == "pre-filling":
            view = engine.caches[0].snapshot()
            step = engine.prefill_step(blk.q, blk.k, blk.v, blk.index)
            window_rows = window
        else:
            step = engine.decode_step(blk.q, blk.k, blk.v, blk.index)
            view = engine.caches[0].snapshot()
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
            if ra.scores and not np.allclose(ra.scores, rm.scores):
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
    bad = trace.task_queries[:, :1]  # drop a head
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
