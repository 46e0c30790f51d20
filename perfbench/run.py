#!/usr/bin/env python3
"""plphp benchmark: three closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload long_prompt --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --record-goldens

One client in one thread sends the next operation only after the previous
one returned. Inputs (weights, prompts, synthetic traces, decode start token)
come from ``--seed`` alone. Every operation's output is checked; a raise, a
non-zero exit or a failed check counts the operation as failed.

``--trace 0`` measures end-to-end metrics with no wrapper installed, for at
most ``--seconds`` after the first operation: another operation starts only
while one of average length still fits. Its ``setup_s`` and
``op_norm_ms_p50`` are normalised to a reference host speed by
``speedgauge.py``, which samples fixed kernels between the timed pieces of
every operation; the raw times are printed beside them.

``--trace 1`` runs a fixed amount of work three times: twice under the timing
wrappers of ``tracer.py``, then once untraced. It reports per-layer metrics
from the second traced pass, requires the count metrics of both traced passes
to agree exactly, and requires traced outputs to equal the untraced ones bit
for bit. The overhead ratio compares one traced pass with one untraced pass,
so on a shared machine it is as noisy as a single operation's latency.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
statistics with sample counts precede it, and the full result (and, when
traced, every span) is written under ``perfbench/out/``.

The program is imported from ``src/`` of the checkout; without it the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 31

HEAD_DIM = 4
VOCAB = 64
METHODS = ("none", "plphp", "fastv", "vtw")

# Shapes of the three workloads; the rationale for each is in BENCHMARK.json
# and perfbench/baseline.json.
LONG_PROMPT = {"layers": 6, "heads": 2, "segments": "T:64,I:4000,T:32",
               "methods": ("plphp",), "steps": 32, "record_trace": True}
LONG_DECODE = {"layers": 6, "heads": 2, "segments": "T:32,I:480,T:16,I:480,T:16",
               "methods": METHODS, "steps": 100, "record_trace": False}
REPLAY_GRID = {"layers": 12, "heads": 8,
               "segments": "T:32,I:576,T:16,I:576,T:16,I:576,T:32", "traces": 3,
               "grid": {"r": (0.3, 0.4, 0.5), "dr": (0.1, 0.2),
                        "alpha": (0.25, 0.35), "beta": (0.05, 0.1)},
               # per-layer head-averaged vision mass, cycled over layers: one
               # target inside each class for every grid point's alpha and beta
               "gamma_targets": (0.6, 0.18, 0.02), "gamma_jitter": 0.015}

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import plphp
    from plphp import baselines, cli, layout, metrics, model, pruning, trace
    if not Path(plphp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"found plphp at {plphp.__file__}, outside this checkout")
except ImportError as exc:
    print(f"cannot import the plphp program from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

import tracer as tracing  # noqa: E402  (perfbench/tracer.py, beside this file)
from speedgauge import SpeedGauge  # noqa: E402


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# model workloads: long_prompt and long_decode
# ---------------------------------------------------------------------------

@dataclass
class ModelCtx:
    spec: dict
    cfg: Any
    weights: Any
    seq: Any
    start_token: int
    trace_path: Path
    gauge: SpeedGauge = field(default_factory=lambda: SpeedGauge(enabled=False))


@dataclass
class Request:
    method: str
    prefill_s: float
    step_s: list[float]
    tokens: list[int]
    logits: Any
    rr: float
    kv: float
    state: Any = field(repr=False)
    report: Any = field(repr=False)


def model_setup(spec: dict, seed: int, name: str) -> ModelCtx:
    segments = cli.parse_segments(spec["segments"])
    s = sum(seg.length for seg in segments)
    cfg = model.ModelConfig(num_layers=spec["layers"], num_heads=spec["heads"],
                            model_dim=spec["heads"] * HEAD_DIM, head_dim=HEAD_DIM,
                            vocab_size=VOCAB, max_positions=s + spec["steps"])
    return ModelCtx(spec=spec, cfg=cfg, weights=model.init_model(cfg, seed),
                    seq=layout.build_sequence(segments, seed=seed, vocab_size=VOCAB),
                    start_token=seed % VOCAB, trace_path=OUT / f"{name}.plpt")


def method_hook(method: str, num_layers: int):
    """Each method at its CLI default setting."""
    if method == "none":
        return None
    if method == "plphp":
        return pruning.make_hook(pruning.PruningConfig(), num_layers)
    if method == "fastv":
        return baselines.make_fastv_hook(baselines.FastVConfig(k_layer=3, prune_ratio=0.5),
                                         num_layers)
    return baselines.make_vtw_hook(baselines.VTWConfig(k_layer=4), num_layers)


def request(ctx: ModelCtx, method: str, record_trace: bool) -> Request:
    """Prefill under one method, then greedy decode; the unit users wait on."""
    gauge = ctx.gauge
    sampled, t0 = gauge.sampled_s, time.perf_counter()
    state, report = model.prefill(ctx.weights, ctx.cfg, ctx.seq,
                                  hook=gauge.interleave(method_hook(method, ctx.cfg.num_layers)),
                                  record_trace=record_trace)
    prefill_s = time.perf_counter() - t0 - (gauge.sampled_s - sampled)
    if record_trace:
        trace.write_trace(ctx.trace_path, trace.trace_from_run(report.attn_last_rows, ctx.seq))
    token, tokens, step_s, logits = ctx.start_token, [], [], None
    for _ in range(ctx.spec["steps"]):
        gauge.sample("interp")  # a decode step is interpreter-bound at head_dim 4
        t1 = time.perf_counter()
        logits, state = model.decode_step(ctx.weights, ctx.cfg, state, token)
        token = int(np.argmax(logits))
        step_s.append(time.perf_counter() - t1)
        tokens.append(token)
    gauge.sample("mixed")
    acc = metrics.account(state, ctx.seq)
    return Request(method, prefill_s, step_s, tokens, logits,
                   acc.retention_rate, acc.kv_fraction, state, report)


def model_run(ctx: ModelCtx, i: int) -> list[Request]:
    return [request(ctx, m, ctx.spec["record_trace"]) for m in ctx.spec["methods"]]


def recount(state, seq) -> tuple[float, float]:
    """RR and KV recounted from cache positions, independently of plphp.metrics."""
    s = seq.total_length
    is_vision = np.zeros(s, dtype=bool)
    pos = 0
    for seg in seq.segments:
        is_vision[pos:pos + seg.length] = seg.kind == layout.IMAGE
        pos += seg.length
    v = int(is_vision.sum())
    kept = kept_vision = 0
    for layer in state.caches:
        for cache in layer:
            resident = cache.positions[cache.positions < s]
            kept += resident.size
            kept_vision += int(is_vision[resident].sum())
    n, h = len(state.caches), len(state.caches[0])
    return (kept_vision / (n * h * v) if v else 1.0), kept / (n * h * s)


def same_decision(live, offline) -> bool:
    if (live.layer, live.gamma, live.layer_class, live.exempt, live.retention) != \
            (offline.layer, offline.gamma, offline.layer_class, offline.exempt, offline.retention):
        return False
    if live.exempt:
        return True
    return all(np.array_equal(a, b)
               for lh, oh in zip(live.per_head_retained, offline.per_head_retained, strict=True)
               for a, b in zip(lh, oh, strict=True))


def model_check(ctx: ModelCtx, i: int, reqs: list[Request], golden: dict | None) -> None:
    for req in reqs:
        tag = f"{req.method}:"
        require((req.rr, req.kv) == recount(req.state, ctx.seq),
                f"{tag} account() RR/KV {req.rr, req.kv} != recount {recount(req.state, ctx.seq)}")
        if ctx.spec["record_trace"]:
            decisions, offline = trace.replay(trace.read_trace(ctx.trace_path),
                                              pruning.PruningConfig())
            require(len(decisions) == len(req.report.decisions)
                    and all(map(same_decision, req.report.decisions, decisions)),
                    f"{tag} replayed decisions differ from the live ones")
            require((offline.retention_rate, offline.kv_fraction) == (req.rr, req.kv),
                    f"{tag} replay RR/KV {offline.retention_rate, offline.kv_fraction} "
                    f"!= live {req.rr, req.kv}")
        if golden is not None:
            g = golden[req.method]
            require(req.tokens == g["tokens"], f"{tag} greedy tokens differ from the goldens")
            want = np.array([float.fromhex(x) for x in g["logits"]])
            err = float(np.max(np.abs(req.logits - want)))
            require(err <= 1e-9, f"{tag} final logits off the goldens by {err:.3e}")
            require((req.rr, req.kv) == (g["rr"], g["kv"]), f"{tag} RR/KV differ from the goldens")


def model_golden(ctx: ModelCtx, i: int, reqs: list[Request]) -> dict:
    return {r.method: {"tokens": r.tokens, "logits": [float(x).hex() for x in r.logits],
                       "rr": r.rr, "kv": r.kv} for r in reqs}


def model_same(a: list[Request], b: list[Request]) -> bool:
    return all(x.tokens == y.tokens and np.array_equal(x.logits, y.logits)
               and (x.rr, x.kv) == (y.rr, y.kv) for x, y in zip(a, b, strict=True))


# ---------------------------------------------------------------------------
# replay_grid: offline replay of synthetic traces through the CLI
# ---------------------------------------------------------------------------

@dataclass
class GridCtx:
    paths: list[Path]
    points: list[dict]
    seq_len: int
    rows_per_trace: int  # N * H * S
    gauge: SpeedGauge = field(default_factory=lambda: SpeedGauge(enabled=False))


@dataclass
class ReplayResult:
    rc: int
    report_json: str
    csv_rows: list[dict]


def synthetic_trace(rng, segments, spec: dict):
    """Last attention rows whose layer gammas cycle through the three classes."""
    n, h = spec["layers"], spec["heads"]
    is_vision = np.concatenate([np.full(seg.length, seg.kind == layout.IMAGE)
                                for seg in segments])
    s = is_vision.size
    targets = np.resize(np.array(spec["gamma_targets"]), n)[:, None]
    gamma = targets + rng.uniform(-spec["gamma_jitter"], spec["gamma_jitter"], (n, h))
    raw = rng.random((n, h, s)) ** 3  # peaked, so each head ranks its own rows
    vis_mass = np.where(is_vision, raw, 0.0).sum(axis=2, keepdims=True)
    txt_mass = np.where(is_vision, 0.0, raw).sum(axis=2, keepdims=True)
    rows = np.where(is_vision, raw * (gamma[..., None] / vis_mass),
                    raw * ((1.0 - gamma[..., None]) / txt_mass))
    return trace.AttentionTrace(num_layers=n, num_heads=h, seq_len=s,
                                segments=tuple(segments), rows=rows)


def grid_setup(spec: dict, seed: int, name: str) -> GridCtx:
    segments = cli.parse_segments(spec["segments"])
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = []
    for t in range(spec["traces"]):
        path = OUT / f"{name}_{t}.plpt"
        trace.write_trace(path, synthetic_trace(rng, segments, spec))
        paths.append(path)
    keys = list(spec["grid"])
    points = [dict(zip(keys, combo)) for combo in itertools.product(*spec["grid"].values())]
    s = sum(seg.length for seg in segments)
    return GridCtx(paths, points, s, spec["layers"] * spec["heads"] * s)


def grid_cell(ctx: GridCtx, i: int) -> tuple[int, int]:
    """Operation i replays trace t at grid point p, walking every point per trace."""
    return (i // len(ctx.points)) % len(ctx.paths), i % len(ctx.points)


def grid_run(ctx: GridCtx, i: int) -> ReplayResult:
    t, p = grid_cell(ctx, i)
    report = OUT / "replay_grid_report.json"
    report.unlink(missing_ok=True)
    report.with_suffix(".csv").unlink(missing_ok=True)
    argv = ["replay", "--trace", str(ctx.paths[t]), "--report-out", str(report)]
    for key, value in ctx.points[p].items():
        argv += [f"--{key}", repr(value)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        return ReplayResult(rc, "", [])
    with open(report.with_suffix(".csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    return ReplayResult(rc, report.read_text(), rows)


def grid_check(ctx: GridCtx, i: int, res: ReplayResult, golden: dict | None) -> None:
    require(res.rc == 0, f"plphp replay exited with {res.rc}")
    rep = json.loads(res.report_json)
    kept = sum(int(row["kept_rows"]) for row in res.csv_rows)
    require(rep["kv_fraction"] == kept / ctx.rows_per_trace,
            f"report KV {rep['kv_fraction']} != CSV kept rows {kept} / {ctx.rows_per_trace}")
    classes = {row["class"] for row in res.csv_rows}
    require(classes == {pruning.VISION_ATTENTIVE, pruning.VISION_BALANCED,
                        pruning.VISION_INDIFFERENT},
            f"synthetic trace did not reach all three layer classes: {sorted(classes)}")
    if golden is not None:
        t, p = grid_cell(ctx, i)
        want = golden[f"{t},{p}"]
        require([rep["retention_rate"], rep["kv_fraction"]] == want,
                f"trace {t} point {p}: RR/KV {rep['retention_rate'], rep['kv_fraction']} "
                f"differ from the goldens {want}")


def grid_golden(ctx: GridCtx, i: int, res: ReplayResult) -> dict:
    rep = json.loads(res.report_json)
    t, p = grid_cell(ctx, i)
    return {f"{t},{p}": [rep["retention_rate"], rep["kv_fraction"]]}


# ---------------------------------------------------------------------------
# workload table and the measurement loops
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    spec: dict
    setup: Callable   # (spec, seed, name) -> ctx
    run: Callable     # (ctx, i) -> output of operation i; the timed part
    check: Callable   # (ctx, i, output, golden or None) -> raises CheckFailed
    golden: Callable  # (ctx, i, output) -> this operation's entries in goldens.json
    same: Callable    # (untraced output, traced output) -> bool
    pass_ops: Callable  # ctx -> operations in one traced pass


WORKLOADS = {
    "long_prompt": Workload("long_prompt", LONG_PROMPT, model_setup, model_run,
                            model_check, model_golden, model_same, lambda ctx: 1),
    "long_decode": Workload("long_decode", LONG_DECODE, model_setup, model_run,
                            model_check, model_golden, model_same, lambda ctx: 1),
    "replay_grid": Workload("replay_grid", REPLAY_GRID, grid_setup, grid_run,
                            grid_check, grid_golden, lambda a, b: a == b,
                            lambda ctx: len(ctx.paths) * len(ctx.points)),
}


def load_golden(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDENS.read_text())[name]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def attempt(self, wl: Workload, ctx, i: int, golden, on_op=None):
        """Run and check operation i; returns (output or None, op seconds).

        The seconds include reference samples; ``ctx.gauge`` times the
        operation without them.
        """
        self.attempted += 1
        gc.collect()
        try:
            ctx.gauge.sample()
            t0 = time.perf_counter()
            ctx.gauge.start(i)
            out = wl.run(ctx, i)
            ctx.gauge.stop()
            op_s = time.perf_counter() - t0
            if on_op is not None:
                on_op()
            wl.check(ctx, i, out, golden)
            return out, op_s
        except Exception:  # the benchmark keeps going; the op counts as failed
            self.failed += 1
            print(f"{wl.name} op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def stat_line(label: str, values, scale: float, unit: str) -> str:
    """Median, plus p90 when at least ten samples lie beyond it."""
    line = f"  {label:<22} p50 {quantile(values, 50) * scale:12.4f} {unit}"
    if len(values) >= 100:
        line += f"   p90 {quantile(values, 90) * scale:12.4f} {unit}"
    return line + f"   (n={len(values)})"


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    if tracing.installed_wrappers():
        raise RuntimeError(f"wrappers installed in the untraced run: {tracing.installed_wrappers()}")
    golden = load_golden(wl.name, seed)
    gauge, ctx = SpeedGauge(), None
    for r in range(SETUP_REPEATS):
        ctx = None  # each set-up starts from the same heap, not beside the last one's
        gc.collect()
        gauge.sample()
        gauge.start(("setup", r))
        ctx = wl.setup(wl.spec, seed, wl.name)
        gauge.stop()
    ctx.gauge = gauge

    tally, done, reqs = Tally(), [], []
    start = time.perf_counter()
    i = 0
    # start another operation only if one more of average length still fits
    while i == 0 or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        out, _ = tally.attempt(wl, ctx, i, golden)
        if out is not None:
            done.append(i)
            if isinstance(ctx, ModelCtx):
                reqs.extend((r.method, r.prefill_s, r.step_s) for r in out)
        del out  # held across the next operation, it would raise the peak RSS
        i += 1
    gauge.sample()  # the last piece's scale needs samples after it too
    if tracing.installed_wrappers():
        raise RuntimeError("a wrapper appeared during the untraced run")
    if not done:
        raise RuntimeError("every operation failed; no latency to report")
    setup_raw, setup_s = gauge.totals([("setup", r) for r in range(SETUP_REPEATS)])
    op_raw, op_s = gauge.totals(done)

    lines = [f"{wl.name} seed={seed}: {tally.attempted} operations, {tally.failed} failed; "
             f"times marked norm are scaled to the reference host speed "
             f"({len(gauge.samples['mixed'])} reference samples, median " + ", ".join(
                 f"{k} {statistics.median(v) * 1e3:.4f} ms" for k, v in gauge.samples.items())
             + ")",
             stat_line("setup_s norm", setup_s, 1.0, "s"),
             stat_line("setup_s raw", setup_raw, 1.0, "s"),
             stat_line("op_ms norm", op_s, 1e3, "ms"),
             stat_line("op_ms raw", op_raw, 1e3, "ms")]
    detail = {"setup_s": setup_s, "setup_raw_s": setup_raw, "op_s": op_s, "op_raw_s": op_raw,
              "reference_samples_s": gauge.samples}
    for kind in gauge.samples:
        detail[f"op_raw_s.{kind}"], detail[f"op_s.{kind}"] = gauge.totals(done, kind)
    if isinstance(ctx, ModelCtx):
        detail["prefill_s"] = [prefill_s for _, prefill_s, _ in reqs]
        lines.append(stat_line("prefill_s raw", detail["prefill_s"], 1.0, "s"))
        for m in wl.spec["methods"]:
            steps = [s for method, _, step_s in reqs if method == m for s in step_s]
            detail[f"decode_s.{m}"] = steps
            lines.append(stat_line(f"decode_ms.{m} raw", steps, 1e3, "ms"))
        n_tokens = sum(len(step_s) for _, _, step_s in reqs)
        detail["tokens_per_s"] = n_tokens / sum(sum(step_s) for _, _, step_s in reqs)
        lines.append(f"  {'tokens_per_s raw':<22} {detail['tokens_per_s']:.4f} (tokens={n_tokens})")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    lines.append(f"  {'peak_rss_mb':<22} {peak_mb:.4f} MB")
    print("\n".join(lines))
    return {"tally": tally, "detail": detail, "metrics": {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_norm_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }}


def traced(wl: Workload, seed: int) -> dict:
    """Two traced passes of fixed work, then one untraced pass for reference.

    The first traced pass absorbs cold-start costs; per-layer metrics and the
    overhead ratio come from the second, which runs as warm as the untraced
    pass after it.
    """
    golden = load_golden(wl.name, seed)
    tally = Tally()
    tr = tracing.Tracer(model_dim=wl.spec["heads"] * HEAD_DIM, head_dim=HEAD_DIM,
                        vocab_size=VOCAB)
    outputs: dict[str, list] = {}
    wall: dict[str, float] = {}

    def run_pass(name, ctx, n_ops, on_op=None):
        outputs[name], wall[name] = [], 0.0
        for i in range(n_ops):
            tr.op = f"{name}/{i}"
            out, took = tally.attempt(wl, ctx, i, golden, on_op=on_op)
            outputs[name].append(out)
            wall[name] += took or 0.0

    def to_check():  # spans of the benchmark's own output checks
        tr.op = "check"

    tr.install()
    try:
        ctx = wl.setup(wl.spec, seed, wl.name)
        n_ops = wl.pass_ops(ctx)
        run_pass("pass1", ctx, n_ops, to_check)
        run_pass("pass2", ctx, n_ops, to_check)
    finally:
        tr.restore()
    problems = []
    if tracing.installed_wrappers():
        problems.append(f"wrappers left installed: {tracing.installed_wrappers()}")
    run_pass("untraced", ctx, n_ops)
    for name in ("pass1", "pass2"):
        for i, (ref, out) in enumerate(zip(outputs["untraced"], outputs[name])):
            if ref is not None and out is not None and not wl.same(ref, out):
                problems.append(f"{name} op {i}: traced output differs from untraced")
    c1, c2 = dict(tr.counts["pass1"]), dict(tr.counts["pass2"])
    if c1 != c2:
        diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
        problems.append(f"count metrics differ between traced passes: {diff}")
    for p in problems:
        print(f"{wl.name}: {p}", file=sys.stderr)

    passes = ("setup", "pass2")
    fn = tr.by_function(passes)
    counts = dict(tr.counts["setup"])
    for k, v in c2.items():
        counts[k] = counts.get(k, 0) + v
    overhead = wall["pass2"] / wall["untraced"] if wall["untraced"] else 0.0

    def busy(name, phase=None):
        return float(sum(v[1] for (n, ph), v in fn.items() if n == name and phase in (None, ph)))

    def self_time(name):
        return float(sum(v[2] for (n, _), v in fn.items() if n == name))

    m: dict[str, tuple[float, str]] = {
        "bench.untraced_wall_s": (wall["untraced"], "s"),
        "bench.traced_wall_s": (wall["pass2"], "s"),
        "bench.trace_overhead_ratio": (overhead, "ratio"),
        "tensor_core.matmul.calls": (counts.get("tensor_core.matmul.calls", 0), "count"),
    }
    for phase, kinds in tracing.MATMUL_KINDS.items():
        for kind in kinds:
            m[f"tensor_core.matmul.{phase}.{kind}.busy_s"] = (
                busy("tensor_core.matmul", f"{phase}.{kind}"), "s")
        m[f"tensor_core.matmul.{phase}.inner_steps"] = (
            counts.get(f"tensor_core.matmul.{phase}.inner_steps", 0), "count")
        m[f"tensor_core.masked_row_softmax.{phase}.busy_s"] = (
            busy("tensor_core.masked_row_softmax", phase), "s")
    m["tensor_core.matmul.prefill.flops"] = (
        counts.get("tensor_core.matmul.prefill.flops", 0), "flop")
    m["tensor_core.masked_row_softmax.prefill.elements"] = (
        counts.get("tensor_core.masked_row_softmax.prefill.elements", 0), "count")
    for name in ("model.decode_rows_attended", "model.cache_rows_resident",
                 "pruning.prune_head_cache.rows_in", "pruning.prune_head_cache.rows_out",
                 "tensor_core.argtopk.calls"):
        m[name] = (counts.get(name, 0), "count")
    m["model.cache_bytes_resident"] = (counts.get("model.cache_bytes_resident", 0),
                                       "bytes_computed")
    rows_in = counts.get("pruning.prune_head_cache.rows_in", 0)
    m["pruning.prune_head_cache.kept_ratio"] = (
        counts.get("pruning.prune_head_cache.rows_out", 0) / rows_in if rows_in else 0.0, "ratio")
    for name in ("model.prefill", "model.decode_step"):
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.self_s"] = (self_time(name), "s")
    for name in ("pruning.hook", "baselines.fastv_hook", "baselines.vtw_hook",
                 "pruning.prune_head_cache", "tensor_core.argtopk", "pruning.decide_layer",
                 "trace.read_trace", "trace.replay", "metrics.report_writes",
                 "trace.write_trace", "metrics.account", "layout.build_sequence"):
        m[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("trace.read_trace", "trace.write_trace"):
        m[f"{name}.bytes"] = (counts.get(f"{name}.bytes", 0), "bytes_computed")
    m["cli.main.self_s"] = (self_time("cli.main"), "s")

    print(f"{wl.name} seed={seed} traced: {n_ops} operations per pass; wall "
          f"{wall['untraced']:.4f} s untraced, {wall['pass2']:.4f} s traced "
          f"(overhead ratio {overhead:.4f}); layer x phase table of the traced pass:")
    print(f"  {'layer':<12} {'phase':<8} {'calls':>8} {'busy_s':>12} {'self_s':>12}")
    for layer, phase, calls, busy_s, self_s in tr.by_layer(passes):
        print(f"  {layer:<12} {phase:<8} {calls:>8} {busy_s:12.6f} {self_s:12.6f}")
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"spans-{wl.name}-seed{seed}.csv")
    return {"tally": tally, "problems": problems, "detail": {}, "metrics": m}


def record_goldens() -> None:
    OUT.mkdir(exist_ok=True)
    goldens = {}
    for wl in WORKLOADS.values():
        ctx = wl.setup(wl.spec, DEFAULT_SEED, wl.name)
        goldens[wl.name] = {}
        for i in range(wl.pass_ops(ctx)):
            out = wl.run(ctx, i)
            wl.check(ctx, i, out, None)
            goldens[wl.name].update(wl.golden(ctx, i, out))
        print(f"recorded {wl.name}", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true",
                   help="rewrite goldens.json from the default seed and exit")
    args = p.parse_args(argv)
    if args.record_goldens:
        record_goldens()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not GOLDENS.is_file():
        print(f"missing {GOLDENS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    res = traced(wl, args.seed) if args.trace else end_to_end(wl, args.seed, args.seconds)
    tally = res["tally"]
    result = {
        "correct": tally.failed == 0 and not res.get("problems"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "failed_ratio": tally.failed / tally.attempted, **result, **res["detail"]}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
