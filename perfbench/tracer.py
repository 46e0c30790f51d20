"""Timing wrappers for the benchmark's traced run.

The tracer rebinds plphp's public functions under the module-level names the
program calls them by (``plphp.model.matmul``, ``plphp.cli.read_trace``, ...),
records one span per call and restores the originals afterwards. Nothing in
plphp is edited; with no tracer installed the program runs untouched.

A span is (name, phase, start, end, parent span, operation id). Spans stay in
memory and are written once the run ends. A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). One span name may be bound under several
# modules, because ``from x import f`` gives each importer its own binding.
TARGETS = [
    ("plphp.model", "init_model", "model.init_model"),
    ("plphp.model", "prefill", "model.prefill"),
    ("plphp.model", "decode_step", "model.decode_step"),
    ("plphp.model", "matmul", "tensor_core.matmul"),
    ("plphp.model", "masked_row_softmax", "tensor_core.masked_row_softmax"),
    ("plphp.pruning", "argtopk", "tensor_core.argtopk"),
    ("plphp.baselines", "argtopk", "tensor_core.argtopk"),
    ("plphp.pruning", "plphp_hook", "pruning.hook"),
    ("plphp.pruning", "decide_layer", "pruning.decide_layer"),
    ("plphp.trace", "decide_layer", "pruning.decide_layer"),
    ("plphp.pruning", "prune_head_cache", "pruning.prune_head_cache"),
    ("plphp.baselines", "prune_head_cache", "pruning.prune_head_cache"),
    ("plphp.baselines", "fastv_hook", "baselines.fastv_hook"),
    ("plphp.baselines", "vtw_hook", "baselines.vtw_hook"),
    ("plphp.metrics", "account", "metrics.account"),
    ("plphp.cli", "report_to_json", "metrics.report_writes"),
    ("plphp.cli", "write_report_csv", "metrics.report_writes"),
    ("plphp.layout", "build_sequence", "layout.build_sequence"),
    ("plphp.trace", "build_sequence", "layout.build_sequence"),
    ("plphp.trace", "write_trace", "trace.write_trace"),
    ("plphp.trace", "read_trace", "trace.read_trace"),
    ("plphp.cli", "read_trace", "trace.read_trace"),
    ("plphp.trace", "replay", "trace.replay"),
    ("plphp.cli", "replay", "trace.replay"),
    ("plphp.cli", "main", "cli.main"),
]

# Phase of a top-level span; nested spans inherit their parent's phase unless
# their operand shapes name one (matmul, softmax).
_ROOT_PHASE = {"model.prefill": "prefill", "model.decode_step": "decode",
               "cli.main": "replay"}

MATMUL_KINDS = {"prefill": ("qkv", "scores", "value_mix", "out_proj", "mlp"),
                "decode": ("qkv", "scores", "value_mix", "out_proj", "mlp", "unembed")}


def installed_wrappers() -> list[str]:
    """Names of TARGETS currently bound to a tracer wrapper."""
    return [f"{mod}.{attr}" for mod, attr, _ in TARGETS
            if hasattr(getattr(importlib.import_module(mod), attr), "_plphp_span")]


def trace_bytes(trace) -> int:
    """PLPT file size computed from the header layout and the row array size."""
    return 24 + 8 * len(trace.segments) + trace.rows.nbytes


class Tracer:
    """Span recorder for one traced run; ``install`` / ``restore`` bracket it."""

    def __init__(self, model_dim: int, head_dim: int, vocab_size: int):
        self.d, self.dk, self.vocab = model_dim, head_dim, vocab_size
        self.spans: list[tuple] = []  # (id, name, phase, start, end, parent, op)
        # counts per pass: the part of an operation id before "/"
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = "setup"
        self._stack: list[tuple[int, str]] = []  # (span id, phase)
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        observe = {"tensor_core.matmul": self._matmul,
                   "tensor_core.masked_row_softmax": self._softmax,
                   "tensor_core.argtopk": self._argtopk,
                   "pruning.prune_head_cache": self._prune,
                   "model.prefill": self._prefill,
                   "trace.read_trace": self._read_trace,
                   "trace.write_trace": self._write_trace}.get(span)
        by_shape = span in ("tensor_core.matmul", "tensor_core.masked_row_softmax")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_shape:  # a single query row is a decode step
                phase = "decode" if args[0].shape[0] == 1 else "prefill"
                if span == "tensor_core.matmul":
                    phase += "." + self.matmul_kind(args[0], args[1])
            elif self._stack:
                phase = self._stack[-1][1]
            else:
                phase = _ROOT_PHASE.get(span, "setup" if self.op == "setup" else "request")
            parent = self._stack[-1][0] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id so children number after it
            self._stack.append((sid, phase))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, span, phase, start, end, parent, self.op)
            if observe is not None:
                observe(self.counts[self.op.split("/")[0]], phase, args, result)
            return result

        wrapper._plphp_span = span
        return wrapper

    # -- per-call counts (computed from operand sizes) -----------------------

    def matmul_kind(self, a, b) -> str:
        d, dk = self.d, self.dk
        if b.shape == (d, dk):
            return "qkv"
        if b.shape == (d, d):
            return "out_proj"
        if b.shape in ((d, 4 * d), (4 * d, d)):
            return "mlp"
        if b.shape == (d, self.vocab):
            return "unembed"
        if a.shape[1] == dk and b.shape[0] == dk:
            return "scores"
        if b.shape[1] == dk and b.shape[0] == a.shape[1]:
            return "value_mix"
        raise ValueError(f"unclassified matmul operands {a.shape} x {b.shape}")

    @staticmethod
    def _matmul(counts, phase, args, out):
        a, b = args[0], args[1]
        step = phase.split(".")[0]
        counts["tensor_core.matmul.calls"] += 1
        counts[f"tensor_core.matmul.{step}.inner_steps"] += a.shape[1]
        counts[f"tensor_core.matmul.{step}.flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        if phase == "decode.value_mix":
            counts["model.decode_rows_attended"] += b.shape[0]

    @staticmethod
    def _softmax(counts, phase, args, out):
        counts[f"tensor_core.masked_row_softmax.{phase}.elements"] += args[0].size

    @staticmethod
    def _argtopk(counts, phase, args, out):
        counts["tensor_core.argtopk.calls"] += 1

    @staticmethod
    def _prune(counts, phase, args, out):
        counts["pruning.prune_head_cache.rows_in"] += len(args[0])
        counts["pruning.prune_head_cache.rows_out"] += len(out)

    @staticmethod
    def _prefill(counts, phase, args, out):
        for layer in out[0].caches:
            for c in layer:
                counts["model.cache_rows_resident"] += len(c)
                counts["model.cache_bytes_resident"] += (
                    c.keys.nbytes + c.values.nbytes + c.positions.nbytes)

    @staticmethod
    def _read_trace(counts, phase, args, out):
        counts["trace.read_trace.bytes"] += trace_bytes(out)

    @staticmethod
    def _write_trace(counts, phase, args, out):
        counts["trace.write_trace.bytes"] += trace_bytes(args[1])

    # -- aggregation ----------------------------------------------------------

    def _selected(self, passes):
        """(span, self seconds) for spans whose operation id is in ``passes``."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for span in self.spans:
            if span[6].split("/")[0] in passes:
                yield span, span[4] - span[3] - child_time[span[0]]

    def by_function(self, passes) -> dict[tuple[str, str], list]:
        """(span name, phase) -> [calls, busy s, self s]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name, phase, start, end, _, _), self_s in self._selected(passes):
            row = out[name, phase]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

    def by_layer(self, passes) -> list[tuple[str, str, int, float, float]]:
        """Rows (layer, phase, calls, busy s, self s); a layer is a plphp module.

        A layer's busy time counts only spans whose parent lies in another
        layer, so nested calls within one module are not counted twice.
        """
        layer_of = {span[0]: span[1].split(".")[0] for span in self.spans}
        rows: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (sid, name, phase, start, end, parent, _), self_s in self._selected(passes):
            row = rows[layer_of[sid], phase.split(".")[0]]
            row[0] += 1
            if parent is None or layer_of[parent] != layer_of[sid]:
                row[1] += end - start
            row[2] += self_s
        return [(layer, phase, *vals) for (layer, phase), vals in sorted(rows.items())]

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "name", "phase", "start_s", "end_s", "parent", "op"])
            t0 = self.spans[0][3] if self.spans else 0.0
            for sid, name, phase, start, end, parent, op in self.spans:
                writer.writerow([sid, name, phase, f"{start - t0:.9f}", f"{end - t0:.9f}",
                                 "" if parent is None else parent, op])
