"""Retrieval engine: probes, chunk scoring, budget split, attention.

Two stages over a trace. The cache holds every layer, so each stage
step makes one append, one snapshot, one scoring call, one density
call, one selection call and one attention call for all layers; only
gathering the retrieved chunks runs one layer at a time.

pre-filling
    Windows arrive a block of rows at a time, and are read one layer
    at a time. The snapshot is taken first. Then each layer folds the
    window's queries (plus any task queries) into its running
    statistics, builds one (heads, d_head) probe, and writes the
    window's keys straight into the cache's next rows and its values
    into the cache's staging buffer; so a replay holds the cache plus
    one window of values. The append then commits the rows and sums
    each row's values; the snapshot's slices stop at the old total, so
    scoring and the tiers still see only the history. Every layer's
    retrievable chunks are scored and each layer greedily selects up
    to the layer budget; reference attention runs over [sinks,
    retrieved, local tail, window] for the window's last query row,
    every layer and head in one call; that row sees the whole window
    and all of the history.

decoding
    One token at a time, two phases. The token's key/value pair enters
    the cache first, so the local tail covers the token itself, and
    one snapshot serves both phases. First every layer scores its
    candidates with the raw query and reports the entropy of the score
    distribution; then the shared budget (layers x budget) is split
    across layers, evenly in fixed mode or entropy-proportional in
    dynamic mode, and each layer retrieves under its share. The
    attended set is exactly sinks + retrieved + local, and every layer
    and head attends it in one call.

A record keeps only the attention output's sum over heads and d_head,
and attention is linear in V, so the value blocks are the rows' value
sums, the one float32 per row and head that the cache keeps as its
values: the output is (layers, heads, 1, 1). Attention reads the sink
and local tiers (and the pre-fill window) as (layers, heads, pairs,
d_head) views of the float32 keys and (layers, heads, pairs, 1) views
of the value sums. Only the retrieved
chunks are gathered, one layer at a time: a layer's keys while the
logits are written, then its value sums while the outputs are summed,
so the step holds one layer's gathered keys or value sums at once.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import accumulate
from math import sqrt
from typing import Iterable

import numpy as np

from .cache import CacheView, LayerCache
from .cutoff import allocate, layer_density, recall_layer
from .linalg import DimMismatch, EmptyInput
from .probe import (ProbeQuery, StatsUndefined, StreamingStats,
                    activation_bias, build_probe, decoding_probe,
                    uniform_bias)
from .retrieval import Gathered, score_chunks_across_heads, selected_rows
from .tracefile import StepBlock, TraceData, TraceHeader, TraceReader

PROBE_MODES = ("act", "mean")
CUTOFF_MODES = ("dynamic", "fixed")
REP_MODES = ("mean", "max-score")


class ConfigError(ValueError):
    """Engine configuration rejected."""


@dataclass(frozen=True)
class EngineConfig:
    d: int
    layers: int
    heads: int = 1
    window: int = 256
    chunk: int = 32
    n_sink: int = 64
    n_local: int = 512
    budget: int = 1472
    probe_mode: str = "act"
    cutoff_mode: str = "dynamic"
    rep_mode: str = "mean"

    def __post_init__(self):
        if min(self.d, self.layers, self.heads, self.window, self.chunk) < 1:
            raise ConfigError("dimensions must be positive")
        if self.n_sink < 0 or self.n_local < 0 or self.budget < 0:
            raise ConfigError("capacities must be non-negative")
        if self.n_sink == 0 and self.n_local == 0:
            raise ConfigError(
                "n_sink and n_local are both 0, so a decode step could "
                "attend nothing: a layer's share of the budget may be 0")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.budget % self.chunk != 0:
            raise ConfigError(
                f"budget {self.budget} not a multiple of chunk {self.chunk}")
        if self.probe_mode not in PROBE_MODES:
            raise ConfigError(f"probe_mode {self.probe_mode!r} not in "
                              f"{PROBE_MODES}")
        if self.cutoff_mode not in CUTOFF_MODES:
            raise ConfigError(f"cutoff_mode {self.cutoff_mode!r} not in "
                              f"{CUTOFF_MODES}")
        if self.rep_mode not in REP_MODES:
            raise ConfigError(f"rep_mode {self.rep_mode!r} not in {REP_MODES}")

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    @property
    def total_budget(self) -> int:
        """Shared pair budget split across layers at each decode step."""
        return self.layers * self.budget

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class LayerStepRecord:
    layer: int
    candidate_ids: range  # candidates are chunks 0..n-1
    scores: np.ndarray  # read-only float64, one per candidate: this
    # layer's row of the step's (layers, n) scores
    theta: float
    budget_pairs: int
    selected: tuple[int, ...]
    pairs_used: int
    attended_pairs: int
    attn_checksum: float

    def to_json(self) -> dict:
        return {**vars(self), "candidate_ids": list(self.candidate_ids),
                "scores": self.scores.tolist()}


@dataclass(frozen=True)
class StepRecord:
    stage: str  # "pre-filling" | "decoding"
    index: int
    layers: tuple[LayerStepRecord, ...]

    def to_json(self) -> dict:
        return {"stage": self.stage, "index": self.index,
                "layers": [rec.to_json() for rec in self.layers]}


@dataclass(frozen=True)
class RunResult:
    config: EngineConfig
    steps: tuple[StepRecord, ...]
    header: TraceHeader  # of the replayed trace
    # wall time of each step call by stage, for the manifest only
    step_seconds: dict[str, list[float]]

    def layer_records(self, stage: str | None = None
                      ) -> Iterable[tuple[StepRecord, LayerStepRecord]]:
        for step in self.steps:
            if stage is not None and step.stage != stage:
                continue
            for rec in step.layers:
                yield step, rec


def reference_attention(q, k, v) -> np.ndarray:
    """Scaled dot-product attention of q (..., rows, d_head) over keys
    and values given as one array or an ordered list of blocks, keys
    (..., n_i, d_head) and values (..., n_i, d_v), with leading axes
    that broadcast against q's; returns float64 (..., rows, d_v). Every
    query row sees every key it is given.

    A block may also be a retrieval.Gathered, whose item l holds layer
    l's rows for q[l]. Each pass reads each item once: its keys for
    the logits, then its values for the outputs. A layer's logits past
    its own rows, up to the block's widest layer, are -inf.

    The logits and weights @ V are float32 matmuls on the blocks as
    given, so no key or value row is copied to float64. Masking,
    max-subtraction, exp and normalisation run in float64, in place on
    one (..., rows, keys) buffer.
    """
    Q = np.asarray(q, dtype=np.float32)
    if Q.ndim < 2:
        raise DimMismatch(f"queries shaped {Q.shape}, want (..., rows, d)")
    ks, vs = _blocks(k), _blocks(v)
    if any(b.shape[:1] != Q.shape[:-2][:1]
           for b in ks + vs if isinstance(b, Gathered)):
        raise DimMismatch(f"gathered layers for queries shaped {Q.shape}")
    # rows per block: one count per layer for a Gathered block
    sizes, v_sizes = ([getattr(b, "sizes", b.shape[-2:-1]) for b in bs]
                      for bs in (ks, vs))
    if sizes != v_sizes:
        raise DimMismatch(f"key blocks of {sizes} rows, value blocks of "
                          f"{v_sizes}")
    # keys per layer in Python ints (numpy calls cost more here): a plain
    # block's one count repeats for every layer of a Gathered block
    layers = max(map(len, sizes), default=1)
    if min(map(sum, zip(*(s * (layers // len(s)) for s in sizes))),
           default=0) == 0:
        raise EmptyInput("attention over zero keys")
    # Python ints: numpy-integer slice bounds cost more per block
    widths = [b.shape[-2] for b in ks]
    n = sum(widths)
    starts = list(accumulate(widths, initial=0))
    w = np.empty((*Q.shape[:-1], n))
    for K, at, width in zip(ks, starts, widths):
        if isinstance(K, np.ndarray):
            w[..., at:at + width] = Q @ K.swapaxes(-1, -2)
            continue
        # K[l] is a temporary: one layer's gathered keys at a time
        for l, used in enumerate(K.sizes):
            w[l, ..., at:at + used] = Q[l] @ K[l].swapaxes(-1, -2)
            if used < width:
                w[l, ..., at + used:at + width] = -np.inf
    w /= sqrt(Q.shape[-1])
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    # one elementwise cast for every block: the same bits as one per block
    w = w.astype(np.float32)
    out = np.zeros((*Q.shape[:-1], vs[0].shape[-1]))
    for V, at in zip(vs, starts):
        if isinstance(V, np.ndarray):
            out += w[..., at:at + V.shape[-2]] @ V
            continue
        for l, used in enumerate(V.sizes):
            out[l] += w[l, ..., at:at + used] @ V[l]
    return out


def _blocks(x) -> list:
    """One array or a list of blocks, as float32 (a float32 block is not
    copied); a Gathered block is kept as it is."""
    return [b if isinstance(b, Gathered) else np.asarray(b, dtype=np.float32)
            for b in ([x] if isinstance(x, np.ndarray) else x)]


class Engine:
    """Stateful run over one trace; not reusable across traces."""

    def __init__(self, config: EngineConfig,
                 task_queries: np.ndarray | None = None):
        self.config = config
        L, H = config.layers, config.heads
        self.cache = LayerCache(dim=(L, H, config.d_head),
                                n_sink=config.n_sink, n_local=config.n_local,
                                chunk=config.chunk,
                                key_norms=config.rep_mode == "max-score")
        self.stats = [StreamingStats((H, config.d_head)) for _ in range(L)]
        if task_queries is not None:
            task_queries = np.asarray(task_queries, dtype=np.float32)
            want = (L, H, *task_queries.shape[2:3], config.d_head)
            if task_queries.ndim != 4 or tuple(task_queries.shape) != want:
                raise ConfigError(f"task queries shape "
                                  f"{task_queries.shape}, want {want}")
        self.task_queries = task_queries
        self.steps: list[StepRecord] = []

    # -- stage steps --------------------------------------------------

    def _probe_for(self, layer: int, queries: np.ndarray) -> ProbeQuery:
        """One (heads, d_head) probe from (heads, rows, d_head) queries."""
        if self.config.probe_mode == "act":
            try:
                bias = activation_bias(queries, self.stats[layer])
                return build_probe(queries, bias)
            except StatsUndefined:
                pass
        bias = uniform_bias(*queries.shape[-2:])
        return build_probe(queries, bias)

    def _attend(self, q: np.ndarray, view: CacheView, scores: np.ndarray,
                thetas, budgets, window_k: np.ndarray | None = None,
                window_sums: np.ndarray | None = None
                ) -> tuple[LayerStepRecord, ...]:
        """Select every layer's chunks under its budget in one call, then
        attend every layer's and head's query row over sinks, its
        retrieved chunks, the local tail and (pre-fill) the window in
        one call. The value blocks are the cache's values, each row's
        value sum, so the output is (layers, heads, 1, 1).

        q has shape (layers, heads, 1, d_head); window_k is (layers,
        heads, window rows, d_head) and window_sums (layers, heads,
        window rows, 1); scores is (layers, n), thetas its (layers,)
        densities and budgets one int per layer.
        """
        selections = recall_layer(scores, budgets, view.candidate_rows)
        rows = selected_rows(selections, view)
        retrieved = Gathered(view.keys, rows)
        # the cache is token-major; attention reads
        # (layers, heads, pairs, d_head)
        k_blocks = [view.sink_keys.transpose(1, 2, 0, 3), retrieved,
                    view.local_keys.transpose(1, 2, 0, 3)]
        v_blocks = [view.sink_values.transpose(1, 2, 0, 3),
                    Gathered(view.values, rows),
                    view.local_values.transpose(1, 2, 0, 3)]
        if window_k is not None:
            k_blocks.append(window_k)
            v_blocks.append(window_sums)
        out = reference_attention(q, k_blocks, v_blocks)
        # every layer attends the sinks, the tail and the window
        shared = sum(b.shape[-2] for b in k_blocks if b is not retrieved)
        candidates = range(scores.shape[1])
        # Python floats, one conversion per array
        checksums = out.reshape(len(out), -1).sum(axis=1).tolist()
        return tuple(
            LayerStepRecord(
                layer=l,
                candidate_ids=candidates,
                scores=scores[l],
                theta=theta,
                budget_pairs=budget,
                selected=sel.selected,
                pairs_used=sel.pairs_used,
                attended_pairs=shared + retrieved.sizes[l],
                attn_checksum=checksum,
            )
            for l, (sel, theta, budget, checksum) in enumerate(zip(
                selections, thetas.tolist(), budgets, checksums)))

    def prefill_step(self, window: StepBlock, index: int) -> StepRecord:
        """window is (layers, heads, 3, rows, d_head), read one layer at a
        time by window.layer(l)."""
        cfg = self.config
        L, H, dh = cfg.layers, cfg.heads, cfg.d_head
        view = self.cache.snapshot()
        # the key rows this window's append commits and staged values;
        # token-major, so a layer's keys are keys[:, l], (rows, heads, d)
        keys, values = self.cache.staged(cfg.window)
        probes = np.empty((L, H, dh), dtype=np.float32)
        last_q = np.empty((L, H, 1, dh), dtype=np.float32)
        # one layer at a time, so a probe's float64 copies of the window
        # stay one layer's size and a streamed window is read one layer
        # at a time
        for l in range(L):
            slab = window.layer(l)
            if slab.shape != (H, 3, cfg.window, dh):
                raise DimMismatch(f"window layer shaped {slab.shape}, want "
                                  f"{(H, 3, cfg.window, dh)}")
            q_eff = slab[:, 0]
            last_q[l] = q_eff[:, -1:]
            if self.task_queries is not None:
                q_eff = np.concatenate([q_eff, self.task_queries[l]], axis=1)
            self.stats[l].update(q_eff)
            probes[l] = self._probe_for(l, q_eff).vector
            keys[:, l] = slab[:, 1].swapaxes(0, 1)
            values[:, l] = slab[:, 2].swapaxes(0, 1)
        # committed before attention, which reads the window's value sums
        # from the cache; the snapshot's slices stop at the old total
        self.cache.append(keys, values)
        scores = score_chunks_across_heads(probes, view, mode=cfg.rep_mode)
        recs = self._attend(last_q, view, scores, layer_density(scores),
                            [cfg.budget] * L,
                            keys.transpose(1, 2, 0, 3),
                            self.cache.values[view.total_pairs:]
                            .transpose(1, 2, 0, 3))
        step = StepRecord(stage="pre-filling", index=index, layers=recs)
        self.steps.append(step)
        return step

    def decode_step(self, token: StepBlock, index: int) -> StepRecord:
        """token is (layers, heads, 3, 1, d_head)."""
        cfg = self.config
        probe = decoding_probe(token.q[:, :, 0]).vector
        # the cache is token-major: (rows, layers, heads, d_head)
        self.cache.append(token.k.transpose(2, 0, 1, 3),
                          token.v.transpose(2, 0, 1, 3))
        view = self.cache.snapshot()
        scores = score_chunks_across_heads(probe, view, mode=cfg.rep_mode)
        thetas = layer_density(scores)
        if cfg.cutoff_mode == "dynamic":
            budgets = allocate(thetas, cfg.total_budget,
                               chunk_size=cfg.chunk).budgets
        else:
            budgets = [cfg.budget] * cfg.layers
        recs = self._attend(token.q, view, scores, thetas, budgets)
        step = StepRecord(stage="decoding", index=index, layers=recs)
        self.steps.append(step)
        return step

    # -- drivers ------------------------------------------------------

    def run(self, trace: TraceData | TraceReader) -> RunResult:
        """Replay every step block of trace, read from a TraceReader as
        it goes (a window one layer at a time) or taken from a TraceData
        in memory; the same steps serve both."""
        h = trace.header
        cfg = self.config
        if (h.d, h.layers, h.heads) != (cfg.d, cfg.layers, cfg.heads):
            raise ConfigError(
                f"trace is d={h.d} layers={h.layers} heads={h.heads}; engine "
                f"configured d={cfg.d} layers={cfg.layers} heads={cfg.heads}")
        if h.window != cfg.window:
            raise ConfigError(f"trace window {h.window} != configured "
                              f"{cfg.window}")
        # presized, so no append regrows a buffer (a regrowth briefly
        # holds the old and the new copy of a stream)
        rows = h.num_windows * h.window + h.num_decode_steps
        self.cache.reserve(rows)
        seconds: dict[str, list[float]] = {"pre-filling": [], "decoding": []}
        for blk in trace.blocks():
            step = (self.prefill_step if blk.stage == "pre-filling"
                    else self.decode_step)
            started = time.perf_counter()
            step(blk, index=blk.index)
            seconds[blk.stage].append(time.perf_counter() - started)
            # dropped before the next read, so a reader never holds two
            # tokens and frees its window buffer before the first one
            del blk
        return RunResult(config=cfg, steps=tuple(self.steps), header=h,
                         step_seconds=seconds)


def run_trace(trace: TraceData | TraceReader,
              config: EngineConfig) -> RunResult:
    engine = Engine(config, task_queries=trace.task_queries)
    return engine.run(trace)
