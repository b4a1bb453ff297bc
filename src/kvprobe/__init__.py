"""Trace-driven KV-cache retrieval with activation-aware probes and an
entropy-guided dynamic budget cut-off."""

from .cache import CacheView, KVChunk, LayerCache, rep_key_of
from .cutoff import BudgetAllocation, allocate, layer_density, recall_layer
from .engine import (ConfigError, Engine, EngineConfig, RunResult,
                     StepRecord, reference_attention, run_trace)
from .linalg import (DimMismatch, EmptyInput, NonFinite, NotNormalized,
                     entropy, softmax)
from .metrics import (ConfigMismatch, EmptyTruth, build_report, compare_runs,
                      recall_at_budget, report_to_csv)
from .probe import (ActivationBias, ProbeQuery, StatsUndefined,
                    StreamingStats, activation_bias, build_probe,
                    decoding_probe, uniform_bias)
from .retrieval import (SelectionResult, UnknownChunk, materialize,
                        score_chunks_across_heads, select_topk)
from .tracefile import (PlantedSpec, SpecOutOfRange, SyntheticConfig,
                        TraceData, TraceFormatError, TraceHeader,
                        generate_synthetic, read_trace, write_trace)

__version__ = "0.1.0"

__all__ = [
    "ActivationBias", "BudgetAllocation", "CacheView", "ConfigError",
    "ConfigMismatch", "DimMismatch", "EmptyInput", "EmptyTruth", "Engine",
    "EngineConfig", "KVChunk", "LayerCache", "NonFinite", "NotNormalized",
    "PlantedSpec", "ProbeQuery", "RunResult", "SelectionResult",
    "SpecOutOfRange", "StatsUndefined", "StepRecord", "StreamingStats",
    "SyntheticConfig", "TraceData", "TraceFormatError", "TraceHeader",
    "UnknownChunk", "activation_bias", "allocate", "build_probe",
    "build_report", "compare_runs", "decoding_probe", "entropy",
    "generate_synthetic", "layer_density", "materialize", "read_trace",
    "recall_at_budget", "recall_layer",
    "reference_attention", "rep_key_of", "report_to_csv", "run_trace",
    "score_chunks_across_heads", "select_topk",
    "softmax", "uniform_bias", "write_trace",
]
