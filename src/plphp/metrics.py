"""Efficiency accounting and reporting.

Definitions (prefill-resident rows only; decode-appended rows are excluded):

    RR = sum over layers l, heads h of retained vision rows(l, h) / (N * H * V)
    KV = sum over layers l, heads h of cache length(l, h)        / (N * H * S)

where V is the number of vision positions and S the prompt length. Exempt
layers are included, so KV is a whole-model fraction. Decode latency is
wall clock per generated token, median over steps.

Reports serialize to JSON, and to CSV with the fixed column schema
``layer,gamma,class,retention,head,kept_rows``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .layout import MultimodalSequence, vision_index_union
from .model import DecoderState

CSV_COLUMNS = ["layer", "gamma", "class", "retention", "head", "kept_rows"]

__all__ = ["CSV_COLUMNS", "MetricsReport", "account", "report_from_counts", "latency_probe",
           "report_to_json", "write_report_csv"]


@dataclass
class MetricsReport:
    retention_rate: float
    kv_fraction: float
    decode_latency_ms: float | None
    per_layer: list[dict]  # one entry per (layer, head): the CSV row contents


def account(state: DecoderState, seq: MultimodalSequence,
            decisions: list | None = None) -> MetricsReport:
    """Recount every head cache against the prompt layout.

    ``decisions`` (one per layer, as ``PrefillReport.decisions``) fill the
    gamma, class and retention columns; without them those stay None.
    """
    s = seq.total_length
    vision = vision_index_union(seq)
    resident = [[c.positions[c.positions < s] for c in layer] for layer in state.caches]
    kept_rows = np.array([[r.size for r in layer] for layer in resident])
    kept_vision = np.array([[np.isin(r, vision).sum() for r in layer] for layer in resident])
    return report_from_counts(kept_rows, kept_vision, s, vision.size, decisions)


def report_from_counts(kept_rows: np.ndarray, kept_vision: np.ndarray, seq_len: int,
                       num_vision: int, decisions: list | None) -> MetricsReport:
    """RR, KV and the per-(layer, head) rows from N x H counts of kept prompt rows.

    The one accounting both ``account`` (counting live caches) and trace
    replay (counting decisions) go through.
    """
    n, h = kept_rows.shape
    per_layer = [{
        "layer": l + 1,
        "gamma": getattr(dec, "gamma", None),
        "class": getattr(dec, "layer_class", None),
        "retention": getattr(dec, "retention", None),
        "head": head + 1,
        "kept_rows": int(kept_rows[l, head]),
    } for l, dec in enumerate(decisions or [None] * n) for head in range(h)]
    rr = int(kept_vision.sum()) / (n * h * num_vision) if num_vision > 0 else 1.0
    kv = int(kept_rows.sum()) / (n * h * seq_len)
    return MetricsReport(retention_rate=rr, kv_fraction=kv,
                         decode_latency_ms=None, per_layer=per_layer)


def latency_probe(step_fn: Callable[[], None], steps: int) -> float | None:
    """Call ``step_fn`` ``steps`` times; the median wall-clock ms per call.

    Below 16 steps the median means little, so every step still runs but the
    result is None. Repeated runs on one machine agree only within
    measurement noise (about 20%).
    """
    samples = np.empty(steps)
    for i in range(steps):
        t0 = time.perf_counter()
        step_fn()
        samples[i] = time.perf_counter() - t0
    return float(np.median(samples) * 1000.0) if steps >= 16 else None


def report_to_json(report: MetricsReport) -> str:
    """Deterministic JSON rendering (sorted keys, no timestamps)."""
    payload = {
        "retention_rate": report.retention_rate,
        "kv_fraction": report.kv_fraction,
        "decode_latency_ms": report.decode_latency_ms,
        "per_layer": report.per_layer,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in report.per_layer:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in CSV_COLUMNS})
