"""Versioned binary attention-trace files and offline replay of a method's decision.

A trace stores, for every layer and head, the last attention row of the
prefill pass (the only row ``decide`` reads). The on-disk format is
fixed and little-endian so golden files round-trip bit-exactly across
platforms:

    magic "PLPT" | u32 version=1 | u32 N | u32 H | u32 S
    u32 segment_count | (u32 kind, u32 length) per segment   kind: 0=text, 1=image
    N * H * S float64 rows in (layer, head, position) order

Loading checks the declared sizes against the file size before reading the
body, then validates the header, the segment lengths against S, that the
layout ends in text, and that each stored row sums to 1 within 1e-6.

Replay counts RR, KV and every per-(layer, head) row from each layer's
allocation, ``baselines.allocate``: how many rows each head keeps is fixed
there, so no row is selected (``replay_report``). ``replay`` also returns
``decide``'s decisions.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .baselines import FastVConfig, VTWConfig, allocate, decide
# build_sequence and decide_layer (pruning's alias of decide_layers) stay bound
# here for perfbench/tracer.py, which rebinds them under this module's name;
# replay lays out a trace with ``_layout``, decides through ``decide`` and
# counts through ``allocate``.
from .layout import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence  # noqa: F401
from .metrics import MetricsReport, report_from_counts
from .pruning import LayerDecision, PruningConfig, decide_layer  # noqa: F401

MAGIC = b"PLPT"
VERSION = 1
_KIND_CODE = {TEXT: 0, IMAGE: 1}
_CODE_KIND = {0: TEXT, 1: IMAGE}

__all__ = ["MAGIC", "VERSION", "TraceFormatError", "AttentionTrace",
           "write_trace", "read_trace", "trace_from_run", "replay_report", "replay"]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or fails validation."""


@dataclass
class AttentionTrace:
    num_layers: int
    num_heads: int
    seq_len: int
    segments: tuple[Segment, ...]
    rows: np.ndarray  # N x H x S float64

    def validate(self) -> None:
        n, h, s = self.num_layers, self.num_heads, self.seq_len
        if min(n, h) < 1:
            raise TraceFormatError(f"trace needs at least one layer and head, got N={n}, H={h}")
        if self.rows.shape != (n, h, s):
            raise TraceFormatError(f"row block shape {self.rows.shape} != ({n}, {h}, {s})")
        if sum(seg.length for seg in self.segments) != s:
            raise TraceFormatError("segment lengths do not sum to the sequence length")
        if not self.segments or self.segments[-1].kind != TEXT:
            raise TraceFormatError("final segment must be text (the last row is a text query)")
        # a NaN or infinite entry makes its row's sum NaN or infinite, so one
        # pass over the rows refuses non-finite values too
        with np.errstate(over="ignore", invalid="ignore"):
            sums = self.rows.sum(axis=2)
        bad = ~(np.abs(sums - 1.0) <= 1e-6)
        if bad.any():
            l, h_idx = np.argwhere(bad)[0]
            where = f"attention row (layer {l + 1}, head {h_idx + 1})"
            if not np.all(np.isfinite(self.rows[l, h_idx])):
                raise TraceFormatError(f"{where} contains non-finite values")
            raise TraceFormatError(f"{where} sums to {sums[l, h_idx]}, not 1")


def write_trace(path, trace: AttentionTrace) -> None:
    trace.validate()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIII", VERSION, trace.num_layers, trace.num_heads, trace.seq_len))
        f.write(struct.pack("<I", len(trace.segments)))
        for seg in trace.segments:
            f.write(struct.pack("<II", _KIND_CODE[seg.kind], seg.length))
        f.write(np.ascontiguousarray(trace.rows, dtype="<f8").tobytes())


def _read_exact(f, size: int) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated trace file: wanted {size} bytes, got {len(data)}")
    return data


def read_trace(path) -> AttentionTrace:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise TraceFormatError("bad magic bytes (not a PLPT trace)")
        version, n, h, s = struct.unpack("<IIII", _read_exact(f, 16))
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        (seg_count,) = struct.unpack("<I", _read_exact(f, 4))
        declared = 24 + 8 * seg_count + 8 * n * h * s
        actual = os.fstat(f.fileno()).st_size
        if declared != actual:
            raise TraceFormatError(f"header declares {declared} bytes, file has {actual}")
        segments = []
        for _ in range(seg_count):
            kind_code, length = struct.unpack("<II", _read_exact(f, 8))
            if kind_code not in _CODE_KIND or length < 1:
                raise TraceFormatError(f"bad segment: kind code {kind_code}, length {length}")
            segments.append(Segment(_CODE_KIND[kind_code], length))
        rows = np.empty(n * h * s, dtype="<f8")
        got = f.readinto(rows)
        if got != rows.nbytes:
            raise TraceFormatError(f"truncated trace file: wanted {rows.nbytes} bytes, got {got}")
    rows = rows.reshape(n, h, s)
    trace = AttentionTrace(num_layers=n, num_heads=h, seq_len=s,
                           segments=tuple(segments), rows=rows)
    trace.validate()
    return trace


def trace_from_run(attn_last_rows: np.ndarray, seq: MultimodalSequence) -> AttentionTrace:
    """Package the rows a traced prefill recorded into a trace object."""
    n, h, s = attn_last_rows.shape
    return AttentionTrace(num_layers=n, num_heads=h, seq_len=s,
                          segments=seq.segments, rows=np.asarray(attn_last_rows, dtype=np.float64))


def _layout(trace: AttentionTrace) -> MultimodalSequence:
    """The trace's prompt layout. No decision reads a token id, so each is 0."""
    return MultimodalSequence(trace.segments, np.zeros(trace.seq_len, dtype=np.int64))


def replay_report(trace: AttentionTrace,
                  cfg: PruningConfig | FastVConfig | VTWConfig | None) -> MetricsReport:
    """RR, KV and the per-(layer, head) rows of method ``cfg`` (None: no pruning)
    on ``trace``, counted from each layer's allocation; no row is selected.

    ``trace`` must be valid (``AttentionTrace.validate``): ``read_trace``,
    the gate for trace files, returns only validated traces. An exempt
    layer's heads keep every row; a pruned layer's heads keep every text row
    and as many vision rows as its allocation counts. No model execution.
    """
    return _count_report(trace, cfg, _layout(trace))


def _count_report(trace: AttentionTrace, cfg: PruningConfig | FastVConfig | VTWConfig | None,
                  seq: MultimodalSequence) -> MetricsReport:
    s, v = trace.seq_len, seq.vision_union.size
    allocations = allocate(cfg, trace.rows, seq)
    kept = [v] * trace.num_layers if allocations is None else \
        [v if a.kept is None else a.kept for a in allocations]
    kept_vision = np.repeat(np.array(kept, dtype=np.int64)[:, None], trace.num_heads, axis=1)
    return report_from_counts(kept_vision + (s - v), kept_vision, s, v, allocations)


def replay(trace: AttentionTrace, cfg: PruningConfig | FastVConfig | VTWConfig | None
           ) -> tuple[list[LayerDecision] | None, MetricsReport]:
    """Every pruning decision offline, and ``replay_report``'s report.

    The decisions are ``decide``'s over the trace's rows, the ones ``run``
    prunes by, bit for bit. ``trace`` must be valid, as for ``replay_report``.
    """
    seq = _layout(trace)
    return decide(cfg, trace.rows, seq), _count_report(trace, cfg, seq)
