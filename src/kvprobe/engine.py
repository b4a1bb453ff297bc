"""Retrieval engine: probes, chunk scoring, budget split, attention.

Two stages over a trace:

pre-filling
    Windows arrive a block of rows at a time. Each layer folds the
    window's queries (plus any task queries) into its running
    statistics, builds one (heads, d_head) probe, scores the
    retrievable chunks, greedily selects up to the layer budget, and
    runs reference attention over [sinks, retrieved, local tail, window]
    with a causal mask on the window rows, one head per call so the
    float64 (rows, keys) weights stay one head's size. The window's
    keys and values enter the cache only after attention.

decoding
    One token at a time, two phases. The token's key/value pair enters
    the cache first, so the local tail covers the token itself, and
    each layer takes one snapshot that serves both phases. First every
    layer scores its candidates with the raw query and reports the
    entropy of the score distribution; then the shared budget
    (layers x budget) is split across layers, evenly in fixed mode or
    entropy-proportional in dynamic mode, and each layer retrieves
    under its share. The attended set is exactly sinks + retrieved +
    local, and all heads attend it in one call per layer.

Attention reads the sink and local tiers as head-major views of the
cache's float32 rows; only the retrieved chunks are gathered.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt
from typing import Iterable

import numpy as np

from .cache import CacheView, LayerCache
from .cutoff import allocate, layer_density, recall_layer
from .linalg import DimMismatch, EmptyInput
from .probe import (ProbeQuery, StatsUndefined, StreamingStats,
                    activation_bias, build_probe, decoding_probe,
                    uniform_bias)
from .retrieval import materialize, score_chunks_across_heads
from .tracefile import TraceData, TraceHeader, TraceReader

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


@dataclass(frozen=True)
class LayerStepRecord:
    layer: int
    candidate_ids: tuple[int, ...]
    scores: tuple[float, ...]
    theta: float
    budget_pairs: int
    selected: tuple[int, ...]
    pairs_used: int
    attended_pairs: int
    attn_checksum: float

    def to_json(self) -> dict:
        return asdict(self)


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

    def layer_records(self, stage: str | None = None
                      ) -> Iterable[tuple[StepRecord, LayerStepRecord]]:
        for step in self.steps:
            if stage is not None and step.stage != stage:
                continue
            for rec in step.layers:
                yield step, rec


def reference_attention(q, k, v, causal: bool = True) -> np.ndarray:
    """Scaled dot-product attention of q (..., rows, d_head) over keys
    and values given as one array or an ordered list of blocks, each
    (..., n_i, d_head) with leading axes that broadcast against q's;
    returns float64 (..., rows, d_head).

    The logits and weights @ V are float32 matmuls on the blocks as
    given, so no key or value row is copied to float64. Masking,
    max-subtraction, exp and normalisation run in float64, in place on
    one (..., rows, keys) buffer.

    With causal=True the trailing `rows` keys are treated as the
    queries' own positions: query i may attend key j iff
    j <= (keys - rows) + i. History keys (everything before the
    trailing block) are visible to every query.
    """
    Q = np.asarray(q, dtype=np.float32)
    if Q.ndim < 2:
        raise DimMismatch(f"queries shaped {Q.shape}, want (..., rows, d)")
    rows, d = Q.shape[-2:]
    ks, vs = _blocks(k), _blocks(v)
    sizes = [b.shape[-2] for b in ks]
    if sizes != [b.shape[-2] for b in vs]:
        raise DimMismatch(f"key blocks of {sizes} rows, value blocks of "
                          f"{[b.shape[-2] for b in vs]}")
    n = sum(sizes)
    if n == 0:
        raise EmptyInput("attention over zero keys")
    n_hist = n - rows
    if causal and n_hist < 0:
        raise EmptyInput("more queries than keys under a causal mask")
    starts = np.cumsum([0, *sizes])
    w = np.empty((*Q.shape[:-1], n))
    for K, at in zip(ks, starts):
        w[..., at:at + K.shape[-2]] = Q @ K.swapaxes(-1, -2)
    w /= sqrt(d)
    if causal:
        np.copyto(w[..., n_hist:], -np.inf, where=~np.tri(rows, dtype=bool))
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = np.zeros((*Q.shape[:-1], vs[0].shape[-1]))
    for V, at in zip(vs, starts):
        out += w[..., at:at + V.shape[-2]].astype(np.float32) @ V
    return out


def _blocks(x) -> list[np.ndarray]:
    """One array or a list of blocks, as float32 (a float32 block is not
    copied)."""
    return [np.asarray(b, dtype=np.float32)
            for b in ([x] if isinstance(x, np.ndarray) else x)]


class Engine:
    """Stateful run over one trace; not reusable across traces."""

    def __init__(self, config: EngineConfig,
                 task_queries: np.ndarray | None = None):
        self.config = config
        L, H = config.layers, config.heads
        rows = (H, config.d_head)
        self.caches = [LayerCache(dim=rows, n_sink=config.n_sink,
                                  n_local=config.n_local, chunk=config.chunk)
                       for _ in range(L)]
        self.stats = [StreamingStats(rows) for _ in range(L)]
        if task_queries is not None:
            task_queries = np.asarray(task_queries, dtype=np.float32)
            want = (L, H, task_queries.shape[2], config.d_head)
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

    def _attend_and_record(self, l: int, q: np.ndarray, view: CacheView,
                           scores: np.ndarray, theta: float, budget: int,
                           window_k: np.ndarray | None = None,
                           window_v: np.ndarray | None = None
                           ) -> LayerStepRecord:
        """Select layer l's chunks under budget and attend every head over
        sinks, retrieved chunks, the local tail and (pre-fill) the window.

        q has shape (heads, rows, d_head); window_k/window_v likewise.
        """
        selection = recall_layer(scores, budget, view.candidate_rows)
        keys_sel, vals_sel = materialize(selection, view)
        # the cache is token-major; attention reads (heads, pairs, d_head)
        k_blocks = [a.transpose(1, 0, 2) for a in
                    (view.sink_keys, keys_sel, view.local_keys)]
        v_blocks = [a.transpose(1, 0, 2) for a in
                    (view.sink_values, vals_sel, view.local_values)]
        if window_k is not None:
            k_blocks.append(window_k)
            v_blocks.append(window_v)
        # a pre-fill window goes head by head, so the float64 (rows, keys)
        # weights stay one head's size; a decode token takes every head
        rows, heads = q.shape[1], self.config.heads
        step = 1 if rows > 1 else heads
        checksum = 0.0
        for h in range(0, heads, step):
            hs = slice(h, h + step)
            out = reference_attention(q[hs], [b[hs] for b in k_blocks],
                                      [b[hs] for b in v_blocks], causal=True)
            checksum += float(out.sum())
        return LayerStepRecord(
            layer=l,
            candidate_ids=tuple(range(len(scores))),
            scores=tuple(scores.tolist()),
            theta=float(theta),
            budget_pairs=int(budget),
            selected=selection.selected,
            pairs_used=selection.pairs_used,
            attended_pairs=sum(b.shape[1] for b in k_blocks),
            attn_checksum=checksum,
        )

    def prefill_step(self, window_q: np.ndarray, window_k: np.ndarray,
                     window_v: np.ndarray, index: int) -> StepRecord:
        """window_* have shape (layers, heads, rows, d_head)."""
        cfg = self.config
        recs = []
        for l in range(cfg.layers):
            q_eff = window_q[l]
            if self.task_queries is not None:
                q_eff = np.concatenate([q_eff, self.task_queries[l]], axis=1)
            self.stats[l].update(q_eff)
            view = self.caches[l].snapshot()
            probe = self._probe_for(l, q_eff).vector
            scores = score_chunks_across_heads(probe, view, mode=cfg.rep_mode)
            recs.append(self._attend_and_record(
                l, window_q[l], view, scores, layer_density(scores),
                cfg.budget, window_k[l], window_v[l]))
            # the cache is token-major: (rows, heads, d_head)
            self.caches[l].append(window_k[l].transpose(1, 0, 2),
                                  window_v[l].transpose(1, 0, 2))
        step = StepRecord(stage="pre-filling", index=index, layers=tuple(recs))
        self.steps.append(step)
        return step

    def decode_step(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    index: int) -> StepRecord:
        """q, k, v have shape (layers, heads, 1, d_head)."""
        cfg = self.config
        per_layer: list[tuple[CacheView, np.ndarray]] = []
        thetas: list[float] = []
        for l in range(cfg.layers):
            probe = decoding_probe(q[l, :, 0]).vector
            self.caches[l].append(k[l].transpose(1, 0, 2),
                                  v[l].transpose(1, 0, 2))
            view = self.caches[l].snapshot()
            scores = score_chunks_across_heads(probe, view, mode=cfg.rep_mode)
            per_layer.append((view, scores))
            thetas.append(layer_density(scores))
        if cfg.cutoff_mode == "dynamic":
            budgets = allocate(thetas, cfg.total_budget,
                               chunk_size=cfg.chunk).budgets
        else:
            budgets = tuple(cfg.budget for _ in range(cfg.layers))
        recs = [self._attend_and_record(l, q[l], view, scores, thetas[l],
                                        budgets[l])
                for l, (view, scores) in enumerate(per_layer)]
        step = StepRecord(stage="decoding", index=index, layers=tuple(recs))
        self.steps.append(step)
        return step

    # -- drivers ------------------------------------------------------

    def run(self, trace: TraceData | TraceReader) -> RunResult:
        """Replay every step block of trace, read one at a time from a
        TraceReader or taken from a TraceData in memory."""
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
        for cache in self.caches:
            cache.reserve(rows)
        for blk in trace.blocks():
            if blk.stage == "pre-filling":
                self.prefill_step(blk.q, blk.k, blk.v, blk.index)
            else:
                self.decode_step(blk.q, blk.k, blk.v, blk.index)
            del blk  # a reader's next block is not read while this one is held
        return RunResult(config=cfg, steps=tuple(self.steps), header=h)


def run_trace(trace: TraceData | TraceReader,
              config: EngineConfig) -> RunResult:
    engine = Engine(config, task_queries=trace.task_queries)
    return engine.run(trace)
