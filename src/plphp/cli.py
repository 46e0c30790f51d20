"""Experiment runner.

Subcommands:

    run     build a synthetic workload; prefill, decide and prune under a
            method, greedy decode; write a JSON report and a per-layer CSV
    sweep   run a grid of hyperparameter points, write one CSV row each
    replay  make a method's ``decide`` call offline on a recorded trace
            (``--method``, default plphp) and count RR/KV from its decisions

Every flag has a config-file equivalent: the file is flat ``key = value``
text, keys matching the long flag names with underscores (``method = plphp``,
``model_layers = 12``). Explicit flags override file values. A subcommand
offers only the flags it reads: ``replay`` the method keys and
``--report-out``, ``sweep`` every key but ``--trace-out``. A config file may
hold any key, so one file serves every subcommand.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 internal error (printed
with its traceback). A config file is read as UTF-8, at most MAX_CONFIG_BYTES
of it; a larger or undecodable file exits 2. Every subcommand exits 2 before
any work when two of its files (``--config``, the input trace,
``--trace-out``, the report JSON and its CSV, the sweep CSV) are one file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import re
import sys
import traceback
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .baselines import FastVConfig, VTWConfig, check_depth, decide
from .layout import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence
from .metrics import MetricsReport, account, latency_probe, report_to_json, write_report_csv
from .model import ModelConfig, decode_step, init_model, prefill, weight_shapes
from .pruning import PruningConfig, prune
from .trace import TraceFormatError, read_trace, replay, trace_from_run, write_trace

# Every method once, as name: (config class, {config key: the class's field}).
_METHODS = {"none": (None, {}),
            "plphp": (PruningConfig, {"r": "r", "dr": "delta_r", "alpha": "alpha", "beta": "beta"}),
            "fastv": (FastVConfig, {"fastv_k": "k_layer", "fastv_ratio": "prune_ratio"}),
            "vtw": (VTWConfig, {"vtw_k": "k_layer"})}
# Every config key once, as key: (type, default); a method key takes both from
# its field. Each key is also the flag --key-with-dashes and a config-file key;
# the sweep CSV records the method keys and the grid's other keys.
_METHOD_KEYS = {"method": (str, "none"),
                **{key: (get_type_hints(cls)[field], getattr(cls(), field))
                   for cls, fields in _METHODS.values() for key, field in fields.items()}}
_KEYS = {"model_layers": (int, 8), "model_heads": (int, 4), "head_dim": (int, 8),
         "vocab_size": (int, 256), "max_positions": (int, 4608),
         "segments": (str, "T:8,I:92,T:4"), **_METHOD_KEYS, "seed": (int, 0),
         "steps": (int, 16), "trace_out": (str, None), "report_out": (str, None)}
_FLAG_EXTRAS = {"segments": {"help": 'layout, e.g. "T:8,I:92,T:4"'},
                "method": {"choices": [*_METHODS]}}
# The keys each subcommand reads, and so offers as flags (a config file may
# hold any key).
_SUBCOMMAND_KEYS = {"run": [*_KEYS], "sweep": [key for key in _KEYS if key != "trace_out"],
                    "replay": [*_METHOD_KEYS, "report_out"]}

SWEEP_CSV_VERSION = 1
# Largest config file: 18 key = value lines take well under 1 KiB, so the
# rest is room for comments.
MAX_CONFIG_BYTES = 64 * 1024
# Largest sweep grid: each point is one full run, so a bigger grid is a typo.
MAX_GRID_POINTS = 10_000
# Most weight floats a run may draw: 2**27 float64 is 1 GiB. It also bounds
# max_positions, and with it each layer's cache store, to 2**27 / model_dim rows.
MAX_WEIGHT_FLOATS = 2**27


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
    """Flat key = value lines of UTF-8; blank lines and # comments ignored.

    At most MAX_CONFIG_BYTES + 1 bytes are read, so an endless file is
    refused without being read to its end.
    """
    with open(path, "rb") as f:
        data = f.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: config file is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: config file is not UTF-8: {e}") from e
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEYS[key][0],
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


def method_config(cfg: dict, num_layers: int) -> PruningConfig | FastVConfig | VTWConfig | None:
    """The pruning method ``cfg`` names, checked against the model depth; None for no pruning."""
    if cfg["method"] not in _METHODS:
        raise ConfigError(f"unknown method {cfg['method']!r}")
    config_class, fields = _METHODS[cfg["method"]]
    if config_class is None:
        return None
    try:
        pruning = config_class(**{field: cfg[key] for key, field in fields.items()})
        if not isinstance(pruning, PruningConfig):  # its layer range is checked as it decides
            check_depth(pruning, num_layers)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return pruning


def experiment_inputs(cfg: dict) -> tuple[ModelConfig, MultimodalSequence]:
    """The model config and prompt ``cfg`` describes, with room for its decode steps.

    The weight count is checked from the config and the prompt length from
    the parsed segments, before anything is built, so an oversized model or
    layout allocates nothing.
    """
    segments = parse_segments(cfg["segments"])
    for key in ("steps", "seed"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    try:
        # the width is every head's columns side by side, so it is no key of its own
        model_cfg = ModelConfig(num_layers=cfg["model_layers"], num_heads=cfg["model_heads"],
                                model_dim=cfg["model_heads"] * cfg["head_dim"],
                                head_dim=cfg["head_dim"], vocab_size=cfg["vocab_size"],
                                max_positions=cfg["max_positions"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    floats = sum(math.prod(shape) for shape in weight_shapes(model_cfg).values())
    if floats > MAX_WEIGHT_FLOATS:
        raise ConfigError(f"the model has {floats} weight floats, more than {MAX_WEIGHT_FLOATS}")
    prompt = sum(seg.length for seg in segments)
    if prompt + cfg["steps"] > model_cfg.max_positions:
        raise ConfigError(f"{prompt} prompt positions plus {cfg['steps']} steps "
                          f"exceed max_positions {model_cfg.max_positions}")
    try:
        seq = build_sequence(segments, seed=cfg["seed"], vocab_size=cfg["vocab_size"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return model_cfg, seq


def execute_experiment(cfg: dict) -> tuple[MetricsReport, np.ndarray, MultimodalSequence]:
    """Run one full pipeline; returns (report, the prefill's last rows, sequence)."""
    model_cfg, seq = experiment_inputs(cfg)
    pruning = method_config(cfg, model_cfg.num_layers)
    weights = init_model(model_cfg, seed=cfg["seed"])
    state, prefilled = prefill(weights, model_cfg, seq, record_trace=True)
    decisions = decide(pruning, prefilled.attn_last_rows, seq)
    state = prune(state, seq, decisions)
    report = account(state, seq, decisions)  # decode rows never count
    token = 0

    def step():
        nonlocal token
        logits, _ = decode_step(weights, model_cfg, state, token)
        token = int(np.argmax(logits))

    report.decode_latency_ms = latency_probe(step, cfg["steps"])
    return report, prefilled.attn_last_rows, seq


def _report_files(cfg: dict) -> dict[str, Path]:
    """The report JSON and its per-layer CSV, by name; none without ``report_out``."""
    if not cfg["report_out"]:
        return {}
    out = Path(cfg["report_out"])
    return {"--report-out": out, "its CSV": out.with_suffix(".csv")}


def _check_distinct_files(files: dict[str, str | Path | None]) -> None:
    """Refuse, before any work, two of the named paths that are one file.

    An existing file is known by its device and inode, so links to it count
    as it; a path with no file yet, by its absolute form.
    """
    seen: dict[tuple, str] = {}
    for name, path in files.items():
        if not path:
            continue
        try:
            st = os.stat(path)
            key: tuple = (st.st_dev, st.st_ino)
        except OSError:
            key = (os.path.abspath(path),)
        if key in seen:
            raise ConfigError(f"{seen[key]} and {name} are one file: {path}")
        seen[key] = name


def _write_reports(cfg: dict, report: MetricsReport) -> None:
    files = _report_files(cfg)
    if files:
        files["--report-out"].write_text(report_to_json(report))
        write_report_csv(files["its CSV"], report)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _check_distinct_files({"--config": args.config, "--trace-out": cfg["trace_out"],
                           **_report_files(cfg)})
    report, trace_rows, seq = execute_experiment(cfg)
    if cfg["trace_out"]:
        write_trace(cfg["trace_out"], trace_from_run(trace_rows, seq))
    _write_reports(cfg, report)
    print(f"RR={report.retention_rate:.6f} KV={report.kv_fraction:.6f} "
          f"latency_ms={report.decode_latency_ms}")
    return 0


def parse_grid(spec: str) -> list[dict]:
    """``r=0.3|0.4|0.5,dr=0.3`` -> one dict per point, cartesian product.

    A grid of more than MAX_GRID_POINTS points is refused before the product
    is built, and so are a key given twice and the output keys, which no
    sweep point would use.
    """
    keys, value_lists = [], []
    # a comma starts a new entry only before ``key=``: a segments value holds commas
    for part in re.split(r",(?=[^,=]*=)", spec):
        if "=" not in part:
            raise ConfigError(f"bad grid entry {part!r}, expected key=v1|v2|...")
        key, _, raw = part.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"unknown grid key {key!r}")
        if key in ("trace_out", "report_out"):
            raise ConfigError(f"{key} is not a grid key; pass --report-out for the CSV")
        if key in keys:
            raise ConfigError(f"grid key {key!r} is given twice")
        keys.append(key)
        try:
            value_lists.append([_KEYS[key][0](v) for v in raw.split("|")])
        except ValueError as e:
            raise ConfigError(f"bad grid value for {key}: {e}") from e
    count = math.prod(len(values) for values in value_lists)
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid has {count} points, more than {MAX_GRID_POINTS}")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]
    if not points:
        raise ConfigError("empty parameter grid")
    return points


def _sweep_point(cfg: dict, point: dict) -> dict:
    """The point's CSV row: every method key, its other grid keys, then its results."""
    merged = cfg | point | {"trace_out": None}
    row = {key: merged[key] for key in [*_METHOD_KEYS, *point]}
    try:
        report, _, _ = execute_experiment(merged)
    except ConfigError as e:
        row["status"] = f"failed: {e}"
        return row
    row.update(RR=f"{report.retention_rate:.6f}", KV=f"{report.kv_fraction:.6f}",
               latency_ms="" if report.decode_latency_ms is None
               else f"{report.decode_latency_ms:.3f}",
               status="ok")
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg["report_out"] or "sweep.csv"
    _check_distinct_files({"--config": args.config, "the sweep CSV": out})
    points = parse_grid(args.grid)
    rows = [_sweep_point(cfg, p) for p in points]
    columns = [*_METHOD_KEYS, *(key for key in points[0] if key not in _METHOD_KEYS),
               "RR", "KV", "latency_ms", "status"]
    with open(out, "w", newline="") as f:
        f.write(f"# sweep csv v{SWEEP_CSV_VERSION}\n")
        writer = csv.DictWriter(f, fieldnames=columns)  # a failed point's results stay empty
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, method="plphp")
    _check_distinct_files({"--config": args.config, "--trace": args.trace,
                           **_report_files(cfg)})
    trace = read_trace(args.trace)
    _, report = replay(trace, method_config(cfg, trace.num_layers))
    _write_reports(cfg, report)
    print(f"replayed {trace.num_layers} layers: "
          f"RR={report.retention_rate:.6f} KV={report.kv_fraction:.6f}")
    return 0


@functools.cache  # parsing leaves a parser unchanged, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plphp",
                                     description="vision-token KV-cache pruning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("run", cmd_run), ("sweep", cmd_sweep), ("replay", cmd_replay)]:
        p = sub.add_parser(name)
        _add_config_flags(p, _SUBCOMMAND_KEYS[name])
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # invariant violations and anything unforeseen
        sys.stderr.write(traceback.format_exc())
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
