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
import math
import operator
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .layout import MultimodalSequence
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

    ``decisions`` (one per layer, as ``decide`` returns them) fill the
    gamma, class and retention columns; without them those stay None.
    """
    s = seq.total_length
    vision = seq.vision_union
    resident = [[c.positions[c.positions < s] for c in layer] for layer in state.caches]
    kept_rows = np.array([[r.size for r in layer] for layer in resident])
    kept_vision = np.array([[np.isin(r, vision).sum() for r in layer] for layer in resident])
    return report_from_counts(kept_rows, kept_vision, s, vision.size, decisions)


def report_from_counts(kept_rows: np.ndarray, kept_vision: np.ndarray, seq_len: int,
                       num_vision: int, decisions: list | None) -> MetricsReport:
    """RR, KV and the per-(layer, head) rows from N x H counts of kept prompt rows.

    The one accounting both ``account`` (counting live caches) and trace
    replay (counting each layer's allocation) go through; ``decisions`` may
    be any per-layer records with ``gamma``, ``layer_class`` and
    ``retention``, such as ``pruning.LayerAllocation``.
    """
    n, h = kept_rows.shape
    per_layer = []
    for layer, (dec, kept) in enumerate(zip(decisions or [None] * n, kept_rows.tolist(),
                                            strict=True), start=1):
        gamma, layer_class, retention = (getattr(dec, "gamma", None),
                                         getattr(dec, "layer_class", None),
                                         getattr(dec, "retention", None))
        per_layer += [{"layer": layer, "gamma": gamma, "class": layer_class,
                       "retention": retention, "head": head, "kept_rows": rows}
                      for head, rows in enumerate(kept, start=1)]
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


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` spells it (``ensure_ascii``, ``allow_nan``)."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# a per_layer row as json.dumps(..., sort_keys=True, indent=2) writes it: the
# text around its six cells, keys in _ROW_KEYS order
_ROW_KEYS = sorted(CSV_COLUMNS)
_ROW_VALUES = operator.itemgetter(*_ROW_KEYS)
_ROW_TEXT = ("    {\n" + ",\n".join(f'      "{key}": %s' for key in _ROW_KEYS)
             + "\n    }").split("%s")
_CSV_VALUES = operator.itemgetter(*CSV_COLUMNS)


def _same_objects(cells, last) -> bool:
    """Whether ``cells`` are the very objects of ``last``; never ``==``, under
    which 0.0 and -0.0, or 1 and True, would share one spelling."""
    return all(map(operator.is_, cells, last))


def report_to_json(report: MetricsReport) -> str:
    """Deterministic JSON rendering (sorted keys, no timestamps).

    The bytes of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``
    over the four report fields, each ``per_layer`` row by its
    ``CSV_COLUMNS`` keys; the fixed shape is written here, because json's
    indenting encoder is pure Python and took most of a replay's report
    time. Scalars are spelled as json spells them, NaN and infinities
    included. A layer's rows share their class, gamma, layer and retention
    objects (``report_from_counts``), so those four are spelled once while
    the next row holds the same objects; equal but distinct objects (0.0 and
    -0.0, 1 and True) are spelled again.
    """
    t = _ROW_TEXT
    rows, last = [], (object(),) * 4
    for row in report.per_layer:
        cls, gamma, head, kept, layer, retention = _ROW_VALUES(row)
        shared = (cls, gamma, layer, retention)
        if not _same_objects(shared, last):
            last = shared
            before = f"{t[0]}{_json_scalar(cls)}{t[1]}{_json_scalar(gamma)}{t[2]}"
            after = f"{t[4]}{_json_scalar(layer)}{t[5]}{_json_scalar(retention)}{t[6]}"
        rows.append(f"{before}{_json_scalar(head)}{t[3]}{_json_scalar(kept)}{after}")
    per_layer = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (f'{{\n  "decode_latency_ms": {_json_scalar(report.decode_latency_ms)},\n'
            f'  "kv_fraction": {_json_scalar(report.kv_fraction)},\n'
            f'  "per_layer": {per_layer},\n'
            f'  "retention_rate": {_json_scalar(report.retention_rate)}\n}}\n')


def write_report_csv(path, report: MetricsReport) -> None:
    """One line per (layer, head) in ``CSV_COLUMNS`` order; None is an empty cell.

    The bytes ``csv.DictWriter`` writes, built as one string and written
    once. A layer's four shared cells lead each of its lines and are spelled
    once, by the same identity rule as ``report_to_json``.
    """
    # writerow returns what the file's write returns: here the line, cut
    # before its "\r\n". The writer keeps that terminator, because csv quotes
    # a cell holding any of its characters.
    spell = csv.writer(SimpleNamespace(write=lambda line: line[:-2])).writerow
    lines, last = [spell(CSV_COLUMNS) + "\r\n"], (object(),) * 4
    for row in report.per_layer:
        *shared, head, kept = _CSV_VALUES(row)  # layer, gamma, class, retention lead
        if not _same_objects(shared, last):
            last = shared
            before = spell(shared)
        if type(head) is int and type(kept) is int:
            lines.append(f"{before},{head},{kept}\r\n")
        else:
            lines.append(f"{before},{spell((head, kept))}\r\n")
    with open(path, "w", newline="") as f:
        f.write("".join(lines))
