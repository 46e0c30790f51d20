"""Experiment runner.

Subcommands:

    run     build a synthetic workload, prefill + greedy decode under a
            pruning method, write a JSON report and a per-layer CSV
    sweep   run a grid of hyperparameter points, write one CSV row each
    replay  apply a pruning method's rule offline to a recorded trace file
            (``--method``, default plphp) and count RR/KV from its decisions

Every flag has a config-file equivalent: the file is flat ``key = value``
text, keys matching the long flag names with underscores (``method = plphp``,
``model_layers = 12``). Explicit flags override file values.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import FastVConfig, VTWConfig, make_fastv_hook, make_vtw_hook
from .layout import IMAGE, TEXT, Segment, build_sequence
from .metrics import MetricsReport, account, latency_probe, report_to_json, write_report_csv
from .model import ModelConfig, decode_step, init_model, prefill
from .pruning import PruningConfig, make_hook
from .trace import TraceFormatError, read_trace, replay, trace_from_run, write_trace

# Every config key once, as key: (type, default). Each key is also the flag
# --key-with-dashes and a config-file key; the sweep CSV records the method keys.
_METHOD_KEYS = {"method": (str, "none"), "r": (float, 0.4), "dr": (float, 0.3),
                "alpha": (float, 0.25), "beta": (float, 0.1), "fastv_k": (int, 3),
                "fastv_ratio": (float, 0.5), "vtw_k": (int, 4)}
_KEYS = {"model_layers": (int, 8), "model_heads": (int, 4), "model_dim": (int, 32),
         "head_dim": (int, 8), "vocab_size": (int, 256), "max_positions": (int, 4608),
         "segments": (str, "T:8,I:92,T:4"), **_METHOD_KEYS, "seed": (int, 0),
         "steps": (int, 16), "trace_out": (str, None), "report_out": (str, None)}
_FLAG_EXTRAS = {"segments": {"help": 'layout, e.g. "T:8,I:92,T:4"'},
                "method": {"choices": ["none", "plphp", "fastv", "vtw"]}}

SWEEP_CSV_VERSION = 1
SWEEP_COLUMNS = [*_METHOD_KEYS, "RR", "KV", "latency_ms", "status"]


class ConfigError(ValueError):
    pass


def parse_segments(spec: str) -> list[Segment]:
    """Parse a layout like ``T:8,I:92,T:4`` into segments."""
    kinds = {"T": TEXT, "I": IMAGE}
    segments = []
    for part in spec.split(","):
        part = part.strip()
        if ":" not in part:
            raise ConfigError(f"bad segment {part!r}, expected KIND:LENGTH")
        kind, _, length = part.partition(":")
        if kind not in kinds:
            raise ConfigError(f"segment kind must be T or I, got {kind!r}")
        try:
            segments.append(Segment(kinds[kind], int(length)))
        except ValueError as e:
            raise ConfigError(f"bad segment {part!r}: {e}") from e
    return segments


def load_config_file(path) -> dict:
    """Flat key = value lines; blank lines and # comments ignored."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key][0](raw.strip())
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    return values


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    for key, (kind, _) in _KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       **_FLAG_EXTRAS.get(key, {}))


def resolve_config(args: argparse.Namespace, **defaults) -> dict:
    """Table defaults, overridden by ``defaults`` < config file < explicit flags."""
    cfg = {key: default for key, (_, default) in _KEYS.items()} | defaults
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def method_config(cfg: dict) -> PruningConfig | FastVConfig | VTWConfig | None:
    """The pruning method ``cfg`` names, configured; None for no pruning."""
    method = cfg["method"]
    if method == "none":
        return None
    if method == "plphp":
        return PruningConfig(r=cfg["r"], delta_r=cfg["dr"], alpha=cfg["alpha"], beta=cfg["beta"])
    if method == "fastv":
        return FastVConfig(k_layer=cfg["fastv_k"], prune_ratio=cfg["fastv_ratio"])
    if method == "vtw":
        return VTWConfig(k_layer=cfg["vtw_k"])
    raise ConfigError(f"unknown method {method!r}")


_HOOK_FACTORIES = {PruningConfig: make_hook, FastVConfig: make_fastv_hook,
                   VTWConfig: make_vtw_hook}


def execute_experiment(cfg: dict) -> tuple[MetricsReport, "np.ndarray | None", object]:
    """Run one full pipeline; returns (report, trace rows or None, sequence)."""
    model_cfg = ModelConfig(num_layers=cfg["model_layers"], num_heads=cfg["model_heads"],
                            model_dim=cfg["model_dim"], head_dim=cfg["head_dim"],
                            vocab_size=cfg["vocab_size"], max_positions=cfg["max_positions"])
    seq = build_sequence(parse_segments(cfg["segments"]), seed=cfg["seed"],
                         vocab_size=cfg["vocab_size"])
    weights = init_model(model_cfg, seed=cfg["seed"])
    pruning = method_config(cfg)
    hook = None if pruning is None else _HOOK_FACTORIES[type(pruning)](pruning,
                                                                       model_cfg.num_layers)
    state, prefill_report = prefill(weights, model_cfg, seq, hook=hook,
                                    record_trace=cfg["trace_out"] is not None)

    report = account(state, seq, prefill_report.decisions)  # decode rows never count
    token = 0

    def step():
        nonlocal token
        logits, _ = decode_step(weights, model_cfg, state, token)
        token = int(np.argmax(logits))

    if cfg["steps"] >= 16:
        report.decode_latency_ms = latency_probe(step, cfg["steps"])
    else:
        for _ in range(cfg["steps"]):
            step()
    return report, prefill_report.attn_last_rows, seq


def _write_reports(cfg: dict, report: MetricsReport) -> None:
    if cfg["report_out"]:
        out = Path(cfg["report_out"])
        out.write_text(report_to_json(report))
        write_report_csv(out.with_suffix(".csv"), report)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    report, trace_rows, seq = execute_experiment(cfg)
    if cfg["trace_out"]:
        write_trace(cfg["trace_out"], trace_from_run(trace_rows, seq))
    _write_reports(cfg, report)
    print(f"RR={report.retention_rate:.6f} KV={report.kv_fraction:.6f} "
          f"latency_ms={report.decode_latency_ms}")
    return 0


def parse_grid(spec: str) -> list[dict]:
    """``r=0.3|0.4|0.5,dr=0.3`` -> one dict per point, cartesian product."""
    keys, value_lists = [], []
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"bad grid entry {part!r}, expected key=v1|v2|...")
        key, _, raw = part.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"unknown grid key {key!r}")
        keys.append(key)
        value_lists.append([_KEYS[key][0](v) for v in raw.split("|")])
    points = [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]
    if not points:
        raise ConfigError("empty parameter grid")
    return points


def _sweep_point(cfg: dict, point: dict) -> dict:
    row = {col: "" for col in SWEEP_COLUMNS}
    merged = dict(cfg)
    merged.update(point)
    merged["trace_out"] = None
    row.update({key: merged[key] for key in _METHOD_KEYS})
    try:
        report, _, _ = execute_experiment(merged)
    except (ValueError, ConfigError) as e:
        row["status"] = f"failed: {e}"
        return row
    row.update(RR=f"{report.retention_rate:.6f}", KV=f"{report.kv_fraction:.6f}",
               latency_ms="" if report.decode_latency_ms is None
               else f"{report.decode_latency_ms:.3f}",
               status="ok")
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    points = parse_grid(args.grid)
    workers = max(1, int(os.environ.get("PLPHP_THREADS", "1")))
    if workers == 1:
        rows = [_sweep_point(cfg, p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda p: _sweep_point(cfg, p), points))
    out = cfg["report_out"] or "sweep.csv"
    with open(out, "w", newline="") as f:
        f.write(f"# sweep csv v{SWEEP_CSV_VERSION}\n")
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, method="plphp")
    trace = read_trace(args.trace)
    _, report = replay(trace, method_config(cfg))
    _write_reports(cfg, report)
    print(f"replayed {trace.num_layers} layers: "
          f"RR={report.retention_rate:.6f} KV={report.kv_fraction:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plphp",
                                     description="vision-token KV-cache pruning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("run", cmd_run), ("sweep", cmd_sweep), ("replay", cmd_replay)]:
        p = sub.add_parser(name)
        _add_common_flags(p)
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--grid", required=True,
                           help='parameter grid, e.g. "r=0.3|0.4|0.5,dr=0.3"')
        if name == "replay":
            p.add_argument("--trace", required=True, help="PLPT trace file to replay")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TraceFormatError as e:
        print(f"trace error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # invariant violations and anything unforeseen
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
