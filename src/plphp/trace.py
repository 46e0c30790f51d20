"""Versioned binary attention-trace files and offline replay through ``decide``.

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
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .baselines import FastVConfig, VTWConfig, decide
from .layout import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence
from .metrics import MetricsReport, report_from_counts
# decide_layer stays bound here for perfbench/tracer.py, which rebinds it
# under this module's name; replay decides through ``decide``.
from .pruning import LayerDecision, PruningConfig, decide_layer  # noqa: F401

MAGIC = b"PLPT"
VERSION = 1
_KIND_CODE = {TEXT: 0, IMAGE: 1}
_CODE_KIND = {0: TEXT, 1: IMAGE}

__all__ = ["MAGIC", "VERSION", "TraceFormatError", "AttentionTrace",
           "write_trace", "read_trace", "trace_from_run", "replay"]


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


def replay(trace: AttentionTrace, cfg: PruningConfig | FastVConfig | VTWConfig | None
           ) -> tuple[list[LayerDecision] | None, MetricsReport]:
    """Recompute every pruning decision offline, plus RR/KV accounting.

    ``trace`` must be valid (``AttentionTrace.validate``): ``read_trace``,
    the gate for trace files, returns only validated traces. ``cfg`` names
    the method (None: no pruning). The decisions are ``decide``'s over the
    trace's rows, the ones ``run`` prunes by, bit for bit; RR/KV are counted
    from them. No model execution.
    """
    seq = build_sequence(trace.segments, seed=0)
    n, h, s = trace.num_layers, trace.num_heads, trace.seq_len
    v = seq.vision_union.size
    kept_vision = np.full((n, h), v)
    decisions = decide(cfg, trace.rows, seq)
    for l, dec in enumerate(decisions or ()):
        if not dec.exempt:  # every head of a layer keeps equally many rows per image
            kept_vision[l] = dec.head_kept_vision(0)
    return decisions, report_from_counts(kept_vision + (s - v), kept_vision, s, v, decisions)
