import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kvprobe.tracefile import (BadMagic, PlantedSpec, SpecOutOfRange,
                               SyntheticConfig, TraceFormatError, TraceHeader,
                               TruncatedFile, VersionUnsupported, check_footer,
                               generate_synthetic, read_trace, write_trace)

SMALL = SyntheticConfig(d=8, layers=2, heads=2, window=8, num_windows=4,
                        num_decode_steps=2, n_sink=2, chunk=2, n_local=4,
                        task_rows=3)


def small_trace(seed=0, planted="auto"):
    spec = None
    if planted == "auto":
        spec = PlantedSpec.auto(SMALL, per_step=1, signal=0.8)
    return generate_synthetic(SMALL, spec, seed=seed)


def assert_block_is(got, qkv):
    """got gives, head by head, the queries, keys and values of the
    (layers, heads, 3, rows, d_head) block qkv."""
    for l, layer in enumerate(qkv):
        for h, head in enumerate(layer):
            assert np.array_equal(got.queries(l, h), head[0])
            assert np.array_equal(got.keys(l, h), head[1])
            assert np.array_equal(got.values(l, h), head[2])


def test_header_validation():
    with pytest.raises(TraceFormatError):
        TraceHeader(d=7, layers=1, heads=2, window=4, num_windows=1,
                    num_decode_steps=0)
    with pytest.raises(TraceFormatError):
        TraceHeader(d=8, layers=1, heads=2, window=4, num_windows=1,
                    num_decode_steps=0, dtype="f64le")
    with pytest.raises(TraceFormatError):
        TraceHeader(d=8, layers=1, heads=2, window=4, num_windows=1,
                    num_decode_steps=0, has_task_block=True, task_rows=0)
    with pytest.raises(TraceFormatError):
        TraceHeader(d=8, layers=1, heads=2, window=4, num_windows=1,
                    num_decode_steps=0, task_rows=-2)
    # a float or bool count, or a flag that is not a bool
    for bad in ({"d": 8.0}, {"window": 4.0}, {"layers": True},
                {"has_ground_truth": 1}):
        fields = dict(d=8, layers=1, heads=2, window=4, num_windows=1,
                      num_decode_steps=0)
        with pytest.raises(TraceFormatError):
            TraceHeader(**{**fields, **bad})
    h = TraceHeader(d=8, layers=2, heads=2, window=4, num_windows=3,
                    num_decode_steps=2)
    assert h.d_head == 4
    # 4 bytes x L x H x (Q, K, V) x d_head x (3 windows of 4 rows + 2 tokens)
    assert h.payload_bytes() == 4 * 2 * 2 * 3 * 4 * (3 * 4 + 2)


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 4), d_head=st.integers(1, 3),
       layers=st.integers(1, 2), window=st.integers(2, 8),
       windows=st.integers(1, 6), decode_steps=st.integers(0, 3),
       n_sink=st.integers(0, 3), chunk=st.integers(1, 3),
       n_local=st.integers(0, 6), task_rows=st.integers(0, 3),
       seed=st.integers(0, 3))
@example(heads=2, d_head=4, layers=2, window=8, windows=4, decode_steps=2,
         n_sink=2, chunk=2, n_local=4, task_rows=3, seed=3)  # SMALL
@example(heads=1, d_head=1, layers=1, window=2, windows=1, decode_steps=0,
         n_sink=0, chunk=1, n_local=0, task_rows=0, seed=0)  # nothing to plant
def test_round_trip_bit_exact(heads, d_head, layers, window, windows,
                              decode_steps, n_sink, chunk, n_local,
                              task_rows, seed):
    """Generate, write, read, load and write again: the two files are
    byte-identical, the file's blocks are the generated ones, and a
    generated footer passes the footer check against its own header."""
    cfg = SyntheticConfig(d=heads * d_head, layers=layers, heads=heads,
                          window=window, num_windows=windows,
                          num_decode_steps=decode_steps, n_sink=n_sink,
                          chunk=chunk, n_local=n_local, task_rows=task_rows)
    try:
        spec = PlantedSpec.auto(cfg, per_step=1)
    except SpecOutOfRange:
        spec = None  # too small to plant: a trace without a footer
    trace = generate_synthetic(cfg, spec, seed=seed)
    if spec is not None:
        check_footer(trace.ground_truth, trace.header)
    with pytest.raises(TraceFormatError, match="section shape"):
        dataclasses.replace(trace, decode=trace.windows)
    with tempfile.TemporaryDirectory() as tmp:
        path, path2 = Path(tmp) / "t.akvt", Path(tmp) / "t2.akvt"
        write_trace(path, trace)
        header, reader = read_trace(path)
        assert header == trace.header
        for got, want in zip(reader.blocks(), trace.blocks(), strict=True):
            assert (got.stage, got.index) == (want.stage, want.index)
            assert_block_is(got, want.qkv)
        loaded = reader.load()
        assert np.array_equal(loaded.windows, trace.windows)
        assert np.array_equal(loaded.decode, trace.decode)
        if task_rows:
            assert np.array_equal(loaded.task_queries, trace.task_queries)
        else:
            assert loaded.task_queries is None
        assert loaded.ground_truth == trace.ground_truth
        # writing the loaded copy reproduces the file byte for byte
        write_trace(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


def test_streaming_blocks_match_eager_load(tmp_path):
    trace = small_trace(seed=5)
    path = tmp_path / "t.akvt"
    write_trace(path, trace)
    _, reader = read_trace(path)
    assert np.array_equal(reader.task_queries, trace.task_queries)
    stages = []
    # the file read block by block, its eager assembly, and the source
    for blk, eager, want in zip(reader.blocks(), reader.load().blocks(),
                                trace.blocks(), strict=True):
        stages.append(blk.stage)
        for got in (blk, eager):
            assert (got.stage, got.index) == (want.stage, want.index)
            assert_block_is(got, want.qkv)
        # the file's axis of length 3 holds Q, K, V in that order
        assert np.array_equal(np.stack((eager.q, eager.k, eager.v), axis=2),
                              eager.qkv)
        assert np.array_equal(eager.q, want.q)
        assert np.array_equal(eager.k, want.k)
        assert np.array_equal(eager.v, want.v)
        # a window streams one block at a time; a decode token is whole
        assert (blk.qkv is None) == (blk.stage == "pre-filling")
    assert stages == ["pre-filling"] * 4 + ["decoding"] * 2


def test_streamed_windows_share_one_block_buffer(tmp_path):
    """Every Q, K and V block of every window is read into the same
    (window, d_head) buffer; each read overwrites the last."""
    trace = small_trace(seed=5)
    path = tmp_path / "t.akvt"
    write_trace(path, trace)
    _, reader = read_trace(path)
    h = trace.header
    parts = []
    for blk in reader.blocks():
        if blk.stage != "pre-filling":
            break
        want = trace.windows[blk.index]
        for l in range(h.layers):
            for hd in range(h.heads):
                for i, read in enumerate((blk.queries, blk.keys,
                                          blk.values)):
                    part = read(l, hd)
                    assert part.shape == (h.window, h.d_head)
                    assert np.array_equal(part, want[l, hd, i])
                    parts.append(part)
    assert len(parts) == 3 * h.num_windows * h.layers * h.heads
    assert all(part is parts[0] for part in parts)


def test_concurrent_iterators(tmp_path):
    """Two iterators over one trace, in memory or streamed from its
    file, each give every block, and reading from one leaves what the
    other gave untouched: each streamed iterator reads into a buffer of
    its own."""
    trace = small_trace(seed=1)
    path = tmp_path / "t.akvt"
    write_trace(path, trace)
    _, reader = read_trace(path)
    for source in (reader, reader.load()):
        a, b = source.blocks(), source.blocks()
        got = next(a).queries(1, 1)
        next(b).keys(0, 0)
        next(b).values(1, 0)
        assert np.array_equal(got, trace.windows[0, 1, 1, 0])
        second = next(a)
        assert second.index == 1
        assert_block_is(second, trace.windows[1])


def test_bad_magic(tmp_path):
    path = tmp_path / "t.akvt"
    write_trace(path, small_trace())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XKVT"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_trace(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "t.akvt"
    write_trace(path, small_trace())
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionUnsupported):
        read_trace(path)


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.akvt"
    write_trace(path, small_trace(planted=None))
    raw = path.read_bytes()
    # cut inside the tensor payload
    cut = len(raw) // 2
    path.write_bytes(raw[:cut])
    _, reader = read_trace(path)
    with pytest.raises(TruncatedFile) as err:
        reader.load()
    assert err.value.offset <= cut
    # cut inside the header prefix
    path.write_bytes(raw[:6])
    with pytest.raises(TruncatedFile):
        read_trace(path)


def test_missing_ground_truth_footer(tmp_path):
    path = tmp_path / "t.akvt"
    trace = small_trace()
    write_trace(path, trace)
    raw = path.read_bytes()
    footer_len = len(json.dumps(trace.ground_truth, sort_keys=True,
                                separators=(",", ":")).encode())
    path.write_bytes(raw[:-footer_len])
    _, reader = read_trace(path)
    with pytest.raises(TruncatedFile):
        reader.ground_truth()


def test_declared_payload_must_match_shapes(tmp_path):
    path = tmp_path / "t.akvt"
    write_trace(path, small_trace(planted=None))
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    doc = json.loads(raw[12:12 + hlen])
    doc["payload_bytes"] += 4
    new_header = json.dumps(doc, sort_keys=True,
                            separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new_header)) +
                     new_header + raw[12 + hlen:])
    with pytest.raises(TraceFormatError, match="payload"):
        read_trace(path)


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a.akvt"
    b = tmp_path / "b.akvt"
    spec = PlantedSpec.auto(SMALL, per_step=1)
    write_trace(a, generate_synthetic(SMALL, spec, seed=11))
    write_trace(b, generate_synthetic(SMALL, spec, seed=11))
    assert a.read_bytes() == b.read_bytes()
    write_trace(b, generate_synthetic(SMALL, spec, seed=12))
    assert a.read_bytes() != b.read_bytes()


def test_auto_spec_geometry():
    cfg = SyntheticConfig()  # full-size defaults
    spec = PlantedSpec.auto(cfg, per_step=1)
    assert len(spec.targets) == cfg.num_decode_steps
    seen = set()
    for ids, w in zip(spec.targets, spec.probe_windows):
        *early, late = ids
        # early targets are retrievable when their probe window pre-fills
        pool = cfg.retrievable_at_window(w)
        assert all(j < pool for j in early)
        # the late chunk lives inside the probe window itself
        assert cfg.chunk_window(late) == (w, w)
        # the probe window's chunks leave the local tail before decoding
        assert (w + 1) * cfg.window <= cfg.num_windows * cfg.window - cfg.n_local
        for j in ids:
            assert j not in seen
            seen.add(j)


def test_auto_spec_rejects_impossible_geometry():
    tiny = SyntheticConfig(d=8, layers=1, heads=1, window=8, num_windows=2,
                           num_decode_steps=1, n_sink=2, chunk=2, n_local=4)
    with pytest.raises(SpecOutOfRange):
        PlantedSpec.auto(tiny, per_step=50)


def test_planted_validation():
    spec = PlantedSpec.auto(SMALL, per_step=1)
    bad = PlantedSpec(targets=spec.targets, probe_windows=spec.probe_windows,
                      signal=1.5)
    with pytest.raises(SpecOutOfRange):
        generate_synthetic(SMALL, bad, seed=0)
    dup = PlantedSpec(targets=(spec.targets[0], spec.targets[0]),
                      probe_windows=spec.probe_windows)
    with pytest.raises(SpecOutOfRange):
        generate_synthetic(SMALL, dup, seed=0)
    huge = PlantedSpec(targets=((999,), ()),
                       probe_windows=spec.probe_windows)
    with pytest.raises(SpecOutOfRange):
        generate_synthetic(SMALL, huge, seed=0)


def test_planted_keys_align_with_decode_query():
    cfg = SyntheticConfig(d=32, layers=1, heads=1, window=32, num_windows=8,
                          num_decode_steps=1, n_sink=8, chunk=4, n_local=32)
    spec = PlantedSpec.auto(cfg, per_step=2, signal=0.9, drift_scale=0.0)
    trace = generate_synthetic(cfg, spec, seed=4)
    # the axis after heads holds Q, K, V
    u = trace.decode[0, 0, 0, 0, 0].astype(np.float64)
    u /= np.linalg.norm(u)
    for j in spec.targets[0]:
        start = cfg.n_sink + j * cfg.chunk
        for pos in range(start, start + cfg.chunk):
            t, r = divmod(pos, cfg.window)
            key = trace.windows[t, 0, 0, 1, r].astype(np.float64)
            cos = key @ u / np.linalg.norm(key)
            assert cos > 0.7  # signal 0.9 dominates the noise mix
    # background keys stay uncorrelated
    bg = trace.windows[0, 0, 0, 1, 0].astype(np.float64)
    assert abs(bg @ u / np.linalg.norm(bg)) < 0.7


def test_planted_chunks_crossing_a_window_hold_the_query_direction():
    """With signal 1.0 every row of a planted chunk is exactly its step's
    unit query direction, in every layer and head, including chunks whose
    rows straddle two windows (window 20, 6 sinks, chunks of 8)."""
    cfg = SyntheticConfig(d=16, layers=2, heads=2, window=20,
                          num_windows=14, num_decode_steps=3, n_sink=6,
                          chunk=8, n_local=24)
    spec = PlantedSpec.auto(cfg, per_step=2, signal=1.0, drift_scale=0.0)
    trace = generate_synthetic(cfg, spec, seed=4)
    crossing = 0
    for i, ids in enumerate(spec.targets):
        u = trace.decode[i, :, :, 0, 0].astype(np.float64)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        for j in ids:
            first, last = cfg.chunk_window(j)
            crossing += first != last
            start = cfg.n_sink + j * cfg.chunk
            for pos in range(start, start + cfg.chunk):
                t, r = divmod(pos, cfg.window)
                assert np.array_equal(trace.windows[t, :, :, 1, r],
                                      u.astype(np.float32)), (i, j, pos)
    assert crossing >= 2


def test_anchor_rows_present_in_probe_window():
    cfg = SyntheticConfig(d=32, layers=1, heads=1, window=32, num_windows=8,
                          num_decode_steps=1, n_sink=8, chunk=4, n_local=32)
    spec = PlantedSpec.auto(cfg, per_step=1, anchor_fraction=0.25,
                            anchor_scale=3.0, drift_scale=0.0)
    trace = generate_synthetic(cfg, spec, seed=9)
    w = spec.probe_windows[0]
    u = trace.decode[0, 0, 0, 0, 0].astype(np.float64)
    u /= np.linalg.norm(u)
    want = 3.0 * np.sqrt(cfg.d_head)
    hits = 0
    for r in range(cfg.window):
        row = trace.windows[w, 0, 0, 0, r].astype(np.float64)
        if abs(np.linalg.norm(row) - want) < 1e-3 and row @ u > 0.99 * want:
            hits += 1
    assert hits == round(0.25 * cfg.window)
