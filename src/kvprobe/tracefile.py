"""Trace container format and synthetic trace generation.

File layout (version 1, all integers little-endian):

    bytes 0..3    magic "AKVT"
    bytes 4..7    u32 version
    bytes 8..11   u32 header JSON length
    header JSON   shape/flag fields, including payload_bytes so the
                  ground-truth footer can be located without parsing
                  tensors
    payload       f32le, three sections in order: the optional task
                  block (L, H, task_rows, d_head); the windows
                  (T, L, H, 3, window, d_head); the decode steps
                  (S, L, H, 3, 1, d_head), where the axis of length 3
                  holds Q, K, V
    footer        ground-truth JSON document (when flagged)

In memory a trace keeps this layout: ``TraceData`` holds the two step
sections and a ``StepBlock`` one (L, H, 3, rows, d_head) block, which
it gives one head's queries, keys or values at a time. The payload is
read in one place, ``TraceReader.blocks()``, in file order. A decode
token is read whole. A window is read one (layer, head, Q/K/V) block
at a time, each one contiguous (window, d_head) range of the file,
into one reused (window, d_head) buffer: the replay converts a head's
queries to float64 once for its probe, copies its keys into the
cache's next key rows and sums its values into the next value-sum
rows. Every read is checked for NaN and infinity, so a replay holds
its cache, the task block and one block, never a whole window or the
payload.
``_footer`` builds a generated trace's footer, and ``check_footer``
checks every footer, generated or read alike.

Synthetic traces draw background tensors i.i.d. standard normal and
then plant a relevance structure for each decode step: the step's
query direction u is mixed into the keys of its target chunks
(k = s*u + (1-s)*noise), and a later "probe window" gets a planted
chunk of its own plus a small fraction of anchor query rows pointing
along u at amplified magnitude. Background *queries* additionally
share one constant offset direction per layer/head (drift_scale
knob), standing in for the correlated structure ordinary tokens
carry: without it the mean of the non-anchor rows nearly vanishes
and plain mean pooling already isolates the anchors, leaving nothing
for activation weighting to improve on. A constant offset cancels
out of the deviation statistics, so it burdens only the pooled
probe, exactly the failure mode activation weighting targets.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import BinaryIO, Iterator

import numpy as np

from .cache import CHUNK, N_LOCAL, N_SINK, sealed_chunks, tail_start_of

MAGIC = b"AKVT"
VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header json length

GT_VERSION = 1


class TraceFormatError(ValueError):
    """Base for malformed trace containers."""


class BadMagic(TraceFormatError):
    pass


class VersionUnsupported(TraceFormatError):
    pass


class TruncatedFile(TraceFormatError):
    def __init__(self, offset: int, what: str = ""):
        self.offset = offset
        super().__init__(f"trace truncated at byte {offset}" +
                         (f" ({what})" if what else ""))


class SpecOutOfRange(ValueError):
    """Synthetic trace geometry or planted-relevance spec rejected."""


@dataclass(frozen=True)
class TraceHeader:
    d: int
    layers: int
    heads: int
    window: int
    num_windows: int
    num_decode_steps: int
    dtype: str = "f32le"
    has_task_block: bool = False
    has_ground_truth: bool = False
    task_rows: int = 0

    def __post_init__(self):
        for f in fields(self):  # exactly int, bool or str: 64.0 or 1 fail
            if type(getattr(self, f.name)).__name__ != f.type:
                raise TraceFormatError(f"{f.name} must be {f.type}")
        if min(self.d, self.layers, self.heads, self.window) < 1:
            raise TraceFormatError("all dimensions must be positive")
        if min(self.num_windows, self.num_decode_steps, self.task_rows) < 0:
            raise TraceFormatError("negative block counts or task rows")
        if self.d % self.heads != 0:
            raise TraceFormatError(
                f"d={self.d} not divisible by heads={self.heads}")
        if self.dtype != "f32le":
            raise TraceFormatError(f"unsupported dtype tag {self.dtype!r}")
        if self.has_task_block != (self.task_rows > 0):
            raise TraceFormatError("task_rows inconsistent with task flag")

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    def task_bytes(self) -> int:
        return self.layers * self.heads * self.task_rows * self.d_head * 4

    def sections(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """(stage, block count, block shape) of the two step sections, in
        file order."""
        return tuple((stage, count, (self.layers, self.heads, 3, rows,
                                     self.d_head))
                     for stage, count, rows in (
                         ("pre-filling", self.num_windows, self.window),
                         ("decoding", self.num_decode_steps, 1)))

    def payload_bytes(self) -> int:
        return self.task_bytes() + 4 * sum(
            count * math.prod(shape) for _, count, shape in self.sections())


@dataclass(frozen=True)
class StepBlock:
    """One window or decode token as the file stores it: the whole
    block in qkv, or, for a window that ``TraceReader`` streams, the
    file it reads its blocks from."""

    stage: str  # "pre-filling" | "decoding"
    index: int
    qkv: np.ndarray | None = None  # (layers, heads, 3, rows, d_head)
    file: _WindowFile | None = None

    def queries(self, l: int, h: int) -> np.ndarray:
        """Layer l's head h's (rows, d_head) queries: a view of qkv, or a
        streamed read into the window's one buffer, which the next
        read overwrites; keys(l, h) and values(l, h) likewise."""
        return self._part(l, h, 0)

    def keys(self, l: int, h: int) -> np.ndarray:
        return self._part(l, h, 1)

    def values(self, l: int, h: int) -> np.ndarray:
        return self._part(l, h, 2)

    def _part(self, l: int, h: int, i: int) -> np.ndarray:
        if self.file is None:
            return self.qkv[l, h, i]
        return self.file.read(l, h, i)

    @property
    def q(self) -> np.ndarray:
        """(layers, heads, rows, d_head) view; likewise k and v."""
        return self.qkv[:, :, 0]

    @property
    def k(self) -> np.ndarray:
        return self.qkv[:, :, 1]

    @property
    def v(self) -> np.ndarray:
        return self.qkv[:, :, 2]


@dataclass(frozen=True)
class _WindowFile:
    """Where a streamed window's blocks are read from, and the buffer
    that every window of a reader reuses."""

    fh: BinaryIO
    start: int  # the window's first byte
    index: int
    heads: int
    block: np.ndarray  # (window, d_head)

    def read(self, l: int, h: int, i: int) -> np.ndarray:
        """Block (l, h, i) of the window, i = 0, 1, 2 for Q, K, V, one
        contiguous range of the file, read into block."""
        self.fh.seek(self.start + ((l * self.heads + h) * 3 + i)
                     * self.block.nbytes)
        return _read_block(self.fh, self.block,
                           f"pre-filling block {self.index}, layer {l}, "
                           f"head {h}, {'QKV'[i]}")


@dataclass
class TraceData:
    """Trace contents held in memory in the file's layout: generated, or
    read by ``TraceReader.load``. Every array has the header's shape."""

    header: TraceHeader
    windows: np.ndarray  # (T, L, H, 3, window, d_head)
    decode: np.ndarray  # (S, L, H, 3, 1, d_head)
    task_queries: np.ndarray | None = None  # (L, H, task_rows, d_head)
    ground_truth: dict | None = None

    def __post_init__(self):
        h = self.header
        for (stage, count, shape), got in zip(h.sections(),
                                              (self.windows, self.decode)):
            if tuple(got.shape) != (count, *shape):
                raise TraceFormatError(f"{stage} section shape {got.shape}, "
                                       f"header says {(count, *shape)}")
        if h.has_task_block:
            want = (h.layers, h.heads, h.task_rows, h.d_head)
            if (self.task_queries is None
                    or tuple(self.task_queries.shape) != want):
                raise TraceFormatError(f"task block shape must be {want}")
        if h.has_ground_truth and self.ground_truth is None:
            raise TraceFormatError("header flags ground truth but none given")

    def blocks(self) -> Iterator[StepBlock]:
        for t, qkv in enumerate(self.windows):
            yield StepBlock("pre-filling", t, qkv=qkv)
        for s, qkv in enumerate(self.decode):
            yield StepBlock("decoding", s, qkv=qkv)


def _header_json(header: TraceHeader) -> bytes:
    doc = asdict(header)
    doc["payload_bytes"] = header.payload_bytes()
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def write_trace(path, trace: TraceData) -> None:
    h = trace.header
    hdr = _header_json(h)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(hdr)))
        fh.write(hdr)
        if h.has_task_block:
            np.ascontiguousarray(trace.task_queries, dtype="<f4").tofile(fh)
        for section in (trace.windows, trace.decode):
            np.ascontiguousarray(section, dtype="<f4").tofile(fh)
        if h.has_ground_truth:
            fh.write(json.dumps(trace.ground_truth, sort_keys=True,
                                separators=(",", ":")).encode())


class TraceReader:
    """Access to one trace file whose header has been validated.

    Nothing but the header is read up front: ``ground_truth()``,
    ``task_queries`` and ``blocks()`` each read their part of the file
    when called.
    """

    def __init__(self, path, header: TraceHeader, payload_start: int):
        self.path = path
        self.header = header
        self._payload_start = payload_start

    def ground_truth(self) -> dict | None:
        h = self.header
        if not h.has_ground_truth:
            return None
        at = self._payload_start + h.payload_bytes()
        with open(self.path, "rb") as fh:
            fh.seek(at)
            raw = fh.read()
        if not raw:
            raise TruncatedFile(at, "ground-truth footer")
        try:
            gt = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise TraceFormatError(f"ground-truth footer not valid JSON: {e}")
        check_footer(gt, h)
        return gt

    @property
    def task_queries(self) -> np.ndarray | None:
        """The task block (L, H, task_rows, d_head), read on each access."""
        h = self.header
        if not h.has_task_block:
            return None
        with open(self.path, "rb") as fh:
            fh.seek(self._payload_start)
            return _read_block(fh, np.empty((h.layers, h.heads, h.task_rows,
                                             h.d_head), dtype="<f4"),
                               "task block")

    def blocks(self) -> Iterator[StepBlock]:
        """Every window, then every decode token, in file order. A decode
        token is read whole. A window is read one (layer, head, Q/K/V)
        block at a time by ``StepBlock.queries``, ``keys`` and
        ``values``, each seeking to its own contiguous range of the
        file and reading into one (window, d_head) buffer. Every window
        reuses it, and it is freed after the last one."""
        h = self.header
        size = os.path.getsize(self.path)
        if size < self._payload_start + h.payload_bytes():
            raise TruncatedFile(size, "tensor payload")
        (_, windows, shape), (stage, tokens, token) = h.sections()
        at = self._payload_start + h.task_bytes()
        window_bytes = 4 * math.prod(shape)
        with open(self.path, "rb") as fh:
            block = np.empty((h.window, h.d_head), dtype="<f4")
            for t in range(windows):
                yield StepBlock("pre-filling", t, file=_WindowFile(
                    fh, at + t * window_bytes, t, h.heads, block))
            del block  # no decode step needs the window's buffer
            fh.seek(at + windows * window_bytes)
            for s in range(tokens):
                # no local keeps the token, so once the caller drops it
                # the next read does not hold two
                yield StepBlock(stage, s, qkv=_read_block(
                    fh, np.empty(token, dtype="<f4"), f"{stage} block {s}"))

    def load(self) -> TraceData:
        """The whole trace in memory, copied from ``blocks()``."""
        h = self.header
        win, dec = (np.empty((count, *shape), dtype="<f4")
                    for _, count, shape in h.sections())
        gt = self.ground_truth()
        task = self.task_queries
        for blk in self.blocks():
            out = (win if blk.stage == "pre-filling" else dec)[blk.index]
            for l in range(h.layers):
                for hd in range(h.heads):
                    out[l, hd, 0] = blk.queries(l, hd)
                    out[l, hd, 1] = blk.keys(l, hd)
                    out[l, hd, 2] = blk.values(l, hd)
        return TraceData(header=h, windows=win, decode=dec,
                         task_queries=task, ground_truth=gt)


def _read_block(fh, out: np.ndarray, what: str) -> np.ndarray:
    """The next f32le block of the payload at fh's position, read into
    out and returned: the one place payload bytes become arrays."""
    at = fh.tell()
    got = fh.readinto(out)
    if got < out.nbytes:
        raise TruncatedFile(at + got, f"tensor payload, {what}")
    if not np.isfinite(out).all():
        raise TraceFormatError(f"trace payload holds NaN or infinity "
                               f"({what})")
    return out


def check_footer(gt, h: TraceHeader) -> None:
    """Raise TraceFormatError unless gt is a ground-truth footer that
    fits header h: the documented shape and version, one layer list per
    trace layer in every entry, every decode step one the header
    declares and named by one entry at most, every probe window one the
    header declares, a probe window for every entry that plants chunks,
    and every chunk id one that the pre-fill windows seal under the
    footer's geometry."""

    def bad(what: str) -> TraceFormatError:
        return TraceFormatError(f"ground-truth footer: {what}")

    if not isinstance(gt, dict):
        raise bad("not a JSON object")
    for key in ("version", "n_sink", "chunk", "n_local"):
        if type(gt.get(key)) is not int:
            raise bad(f"{key} is not an int")
    if gt["version"] != GT_VERSION:
        raise bad(f"version {gt['version']} unsupported")
    if gt["chunk"] < 1 or gt["n_sink"] < 0 or gt["n_local"] < 0:
        raise bad("chunk must be positive, n_sink and n_local non-negative")
    entries = gt.get("entries")
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) for e in entries)):
        raise bad("entries is not a list of objects")
    n_chunks = sealed_chunks(h.num_windows * h.window, gt["n_sink"],
                             gt["chunk"])
    steps: set[int] = set()
    for i, e in enumerate(entries):
        window = e.get("probe_window")
        layers = e.get("layers")
        ok = (type(e.get("decode_step")) is int
              and "probe_window" in e and type(window) in (int, type(None))
              and isinstance(layers, list)
              and all(isinstance(ids, list)
                      and all(type(j) is int for j in ids) for ids in layers))
        if not ok:
            raise bad(f"entry {i} needs an int decode_step, an int or null "
                      "probe_window and layers as lists of ints")
        if len(layers) != h.layers:
            raise bad(f"entry {i} lists {len(layers)} layers; the trace "
                      f"has {h.layers}")
        if not 0 <= e["decode_step"] < h.num_decode_steps:
            raise bad(f"entry {i} names decode step {e['decode_step']}; the "
                      f"trace has {h.num_decode_steps}")
        if e["decode_step"] in steps:
            raise bad(f"entry {i} repeats decode step {e['decode_step']}")
        steps.add(e["decode_step"])
        if window is None and any(layers):
            raise bad(f"entry {i} plants chunks but names no probe window")
        if window is not None and not 0 <= window < h.num_windows:
            raise bad(f"entry {i} names probe window {window}; the trace "
                      f"has {h.num_windows}")
        out = [j for ids in layers for j in ids if not 0 <= j < n_chunks]
        if out:
            raise bad(f"entry {i} names chunk {out[0]}; pre-fill seals "
                      f"{n_chunks}")


def read_trace(path) -> tuple[TraceHeader, TraceReader]:
    with open(path, "rb") as fh:
        head = fh.read(_PREFIX.size)
        if len(head) < _PREFIX.size:
            raise TruncatedFile(len(head), "container prefix")
        magic, version, hlen = _PREFIX.unpack(head)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if version != VERSION:
            raise VersionUnsupported(f"trace version {version} unsupported")
        raw = fh.read(hlen)
        if len(raw) < hlen:
            raise TruncatedFile(_PREFIX.size + len(raw), "header JSON")
    try:
        doc = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TraceFormatError(f"header not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise TraceFormatError("header JSON is not an object")
    declared = doc.pop("payload_bytes", None)
    try:
        header = TraceHeader(**doc)
    except TypeError as e:
        raise TraceFormatError(f"header fields invalid: {e}")
    if declared is not None and declared != header.payload_bytes():
        raise TraceFormatError(
            f"declared payload {declared} bytes, shapes imply "
            f"{header.payload_bytes()}")
    return header, TraceReader(path, header, _PREFIX.size + hlen)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape of a generated trace plus the cache geometry its ground
    truth chunk ids assume."""

    d: int = 64
    layers: int = 4
    heads: int = 1
    window: int = 256
    num_windows: int = 8
    num_decode_steps: int = 16
    n_sink: int = N_SINK
    chunk: int = CHUNK
    n_local: int = N_LOCAL
    task_rows: int = 0

    def __post_init__(self):
        if self.chunk < 1 or min(self.n_sink, self.n_local) < 0:
            raise SpecOutOfRange("chunk must be positive, n_sink and n_local "
                                 "non-negative")
        try:  # the trace's own shape rules
            self.header(has_ground_truth=False)
        except TraceFormatError as e:
            raise SpecOutOfRange(str(e)) from None

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    def header(self, has_ground_truth: bool) -> TraceHeader:
        return TraceHeader(d=self.d, layers=self.layers, heads=self.heads,
                           window=self.window, num_windows=self.num_windows,
                           num_decode_steps=self.num_decode_steps,
                           has_task_block=self.task_rows > 0,
                           has_ground_truth=has_ground_truth,
                           task_rows=self.task_rows)

    def retrievable_at_window(self, w: int) -> int:
        """Chunks fully outside the local tail when window w pre-fills."""
        tail = tail_start_of(w * self.window, self.n_sink, self.n_local)
        return sealed_chunks(tail, self.n_sink, self.chunk)

    def chunk_window(self, chunk_id: int) -> tuple[int, int]:
        """Windows containing the first and last pair of a chunk."""
        start = self.n_sink + chunk_id * self.chunk
        end = start + self.chunk - 1
        return start // self.window, end // self.window


@dataclass(frozen=True)
class PlantedSpec:
    """Relevance structure for a synthetic trace.

    targets[i] lists the early chunks correlated with decode step i's
    query direction; probe_windows[i] names the later window that gets
    both a planted chunk of its own and step i's anchor query rows.
    """

    targets: tuple[tuple[int, ...], ...]
    probe_windows: tuple[int, ...]
    signal: float = 0.8
    anchor_fraction: float = 0.10
    anchor_scale: float = 3.0
    drift_scale: float = 1.0

    @classmethod
    def auto(cls, cfg: SyntheticConfig, per_step: int = 1,
             **knobs) -> "PlantedSpec":
        """Deterministic placement: spread steps over the latest windows
        whose chunks stay retrievable at decode time. Each step takes
        the highest free chunk ids retrievable at its probe window, so
        steps probing from early windows (small candidate pools) keep
        the low ids only they can use. knobs are the magnitude fields
        (signal, anchor_fraction, ...), passed on as they are."""
        if per_step < 0:
            raise SpecOutOfRange(f"negative planted count {per_step}")
        steps = cfg.num_decode_steps
        # window w's own chunks must leave the tail by the first decode step
        tail_windows = math.ceil(cfg.n_local / cfg.window)
        w_hi = cfg.num_windows - 1 - tail_windows
        w_lo = next((w for w in range(1, cfg.num_windows)
                     if cfg.retrievable_at_window(w) >= max(per_step, 1)), None)
        if steps == 0 or per_step == 0:
            return cls(targets=tuple(() for _ in range(steps)),
                       probe_windows=tuple(-1 for _ in range(steps)), **knobs)
        if w_lo is None or w_lo > w_hi:
            raise SpecOutOfRange("no window is late enough to probe from and "
                                 "early chunks are too few to plant")
        windows = list(range(w_hi, w_lo - 1, -1))
        probe_windows = [windows[i % len(windows)] for i in range(steps)]
        used: set[int] = set()
        targets = []
        for i in range(steps):
            pool = [j for j in range(cfg.retrievable_at_window(probe_windows[i]))
                    if j not in used]
            if len(pool) < per_step:
                raise SpecOutOfRange(
                    f"step {i}: {len(pool)} free retrievable chunks at window "
                    f"{probe_windows[i]}, need {per_step}")
            picked = pool[-per_step:]
            used.update(picked)
            targets.append(tuple(picked))
        # reserve one chunk inside each probe window for its step
        for i in range(steps):
            w = probe_windows[i]
            first = math.ceil(max(0, w * cfg.window - cfg.n_sink) / cfg.chunk)
            last = ((w + 1) * cfg.window - cfg.n_sink) // cfg.chunk - 1
            cand = [j for j in range(first, last + 1) if j not in used]
            if not cand:
                raise SpecOutOfRange(f"no free chunk inside probe window {w}")
            used.add(cand[0])
            targets[i] = targets[i] + (cand[0],)
        return cls(targets=tuple(targets), probe_windows=tuple(probe_windows),
                   **knobs)


def _validate_planted(cfg: SyntheticConfig, spec: PlantedSpec) -> None:
    """The spec's rules that its footer cannot state: magnitudes in
    range, one target set and probe window per decode step, no chunk
    planted twice, and no chunk generated after its probe window."""
    if not (0.0 <= spec.signal <= 1.0):
        raise SpecOutOfRange(f"signal {spec.signal} outside [0, 1]")
    if not (0.0 <= spec.anchor_fraction <= 1.0):
        raise SpecOutOfRange("anchor fraction outside [0, 1]")
    for name in ("anchor_scale", "drift_scale"):
        value = getattr(spec, name)
        if not 0 <= value < math.inf:  # NaN fails both comparisons
            raise SpecOutOfRange(f"{name} {value} is negative or not finite")
    if len(spec.targets) != cfg.num_decode_steps:
        raise SpecOutOfRange(f"{len(spec.targets)} target sets for "
                             f"{cfg.num_decode_steps} decode steps")
    if len(spec.probe_windows) != cfg.num_decode_steps:
        raise SpecOutOfRange("probe_windows length mismatch")
    seen: set[int] = set()
    for i, (ids, w) in enumerate(zip(spec.targets, spec.probe_windows)):
        for j in ids:
            if j in seen:
                raise SpecOutOfRange(f"chunk {j} planted for two steps")
            seen.add(j)
            if cfg.chunk_window(j)[0] > w:
                raise SpecOutOfRange(f"step {i}: chunk {j} is generated after "
                                     f"probe window {w}")


def _footer(cfg: SyntheticConfig, spec: PlantedSpec) -> dict:
    """The ground-truth footer of a trace planted by spec: per decode
    step, its probe window and, for every layer, its sorted chunk ids."""
    entries = []
    for i, (ids, w) in enumerate(zip(spec.targets, spec.probe_windows)):
        layer = sorted(int(j) for j in ids)
        entries.append({"decode_step": i,
                        "probe_window": int(w) if ids else None,
                        "layers": [layer[:] for _ in range(cfg.layers)]})
    return {"version": GT_VERSION, "n_sink": cfg.n_sink, "chunk": cfg.chunk,
            "n_local": cfg.n_local, "signal": spec.signal,
            "entries": entries}


def generate_synthetic(cfg: SyntheticConfig, planted: PlantedSpec | None,
                       seed: int) -> TraceData:
    """Build a synthetic trace; ``write_trace`` writes it.

    Output is a pure function of (cfg, planted, seed).
    """
    if seed < 0:
        raise SpecOutOfRange(f"seed {seed} is negative")
    header = cfg.header(has_ground_truth=planted is not None)
    gt = None
    if planted is not None:
        gt = _footer(cfg, planted)
        try:  # probe windows and chunk ids the trace has
            check_footer(gt, header)
        except TraceFormatError as e:
            raise SpecOutOfRange(str(e)) from None
        _validate_planted(cfg, planted)
    rng = np.random.default_rng(seed)
    L, H, m, dh = cfg.layers, cfg.heads, cfg.window, cfg.d_head
    windows, decode = (np.empty((count, *shape), dtype=np.float32)
                       for _, count, shape in header.sections())
    # drawn in float64 in the order window Q, K, V, decode Q, K, V, one
    # step block at a time (the same stream as one draw per tensor), so
    # a float64 draw is one block's size
    for section in (windows, decode):
        for i in range(3):
            for blk in section:
                blk[:, :, i] = rng.standard_normal(blk.shape[:2] +
                                                   blk.shape[3:])
    wq, wk = windows[:, :, :, 0], windows[:, :, :, 1]  # (T, L, H, m, dh)
    dq = decode[:, :, :, 0]  # (S, L, H, 1, dh)
    task = (rng.standard_normal((L, H, cfg.task_rows, dh)).astype(np.float32)
            if cfg.task_rows > 0 else None)

    if planted is not None:
        scale = math.sqrt(dh)
        if planted.drift_scale > 0:
            # one offset direction per layer/head, constant over windows
            # and rows: correlated background that a pooled probe keeps
            # but deviation statistics cancel
            g = rng.standard_normal((L, H, dh))
            g /= np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-12)
            wq += (planted.drift_scale * scale * g[None, :, :, None, :]
                   ).astype(np.float32)
        # unit query direction per (step, layer, head)
        u = dq[:, :, :, 0, :].astype(np.float64).copy()
        norms = np.linalg.norm(u, axis=-1, keepdims=True)
        u /= np.maximum(norms, 1e-12)

        s = planted.signal
        for i, ids in enumerate(planted.targets):
            for j in ids:
                start = cfg.n_sink + j * cfg.chunk
                # (window, row) per position: a chunk may cross windows
                t, r = np.divmod(np.arange(start, start + cfg.chunk), m)
                # the same stream as one (L, H, dh) draw per row
                noise = rng.standard_normal((cfg.chunk, L, H, dh))
                # index arrays split by slices put their axis first, so
                # wk[t, :, :, r, :] is (chunk, L, H, dh)
                wk[t, :, :, r, :] = (s * u[i] + (1 - s) * noise
                                     ).astype(np.float32)

        # anchor query rows inside each probe window, split when several
        # steps share one window
        by_window: dict[int, list[int]] = {}
        for i, w in enumerate(planted.probe_windows):
            if planted.targets[i]:
                by_window.setdefault(w, []).append(i)
        for w, steps in by_window.items():
            n_anchor = int(round(planted.anchor_fraction * m))
            rows = rng.choice(m, size=min(n_anchor, m), replace=False)
            shares = np.array_split(rows, len(steps))
            for i, rset in zip(steps, shares):
                anchor = (planted.anchor_scale * scale * u[i]
                          ).astype(np.float32)  # (L, H, dh)
                wq[w][:, :, rset, :] = anchor[:, :, None, :]

    return TraceData(header=header, windows=windows, decode=decode,
                     task_queries=task, ground_truth=gt)
