"""The benchmark's traced run rebinds the plphp names listed in
``perfbench/tracer.py``; a rename in plphp would break ``--trace 1``, and so
would a ``matmul`` operand shape its classifier does not know. Its
replay_grid workload drives the CLI, so a flag it passes must stay."""

import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from plphp import cli, model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.TARGETS and not missing


@pytest.mark.parametrize("method", ["none", "plphp", "fastv", "vtw"])
def test_tracer_classifies_every_matmul(monkeypatch, method):
    # the benchmark's model dims and method settings over a shorter prompt:
    # every operand pair of a prefill and 3 decode steps must have a kind
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer.py beside it;
    # the undo also drops the src path run.py inserts
    run = _load("run", monkeypatch)
    spec = dict(run.LONG_DECODE, segments="T:32,I:96,T:16,I:96,T:16", steps=3)
    ctx = run.model_setup(spec, seed=0, name="contract")
    cfg = ctx.cfg
    shapes = []
    real = model.matmul

    def recording(*args, **kwargs):
        # the tracer reads both operands from its positional arguments
        assert len(args) == 2 and set(kwargs) <= {"out"}, (len(args), sorted(kwargs))
        a, b = args
        shapes.append((a.shape, b.shape))
        return real(a, b, **kwargs)

    monkeypatch.setattr(model, "matmul", recording)
    state, _ = model.prefill(ctx.weights, cfg, ctx.seq,
                             hook=run.method_hook(method, cfg.num_layers))
    decode_from = len(shapes)
    for token in range(spec["steps"]):
        model.decode_step(ctx.weights, cfg, state, token)

    tracer = run.tracing.Tracer(cfg.model_dim, cfg.head_dim, cfg.vocab_size)
    kinds = [tracer.matmul_kind(np.empty(a), np.empty(b)) for a, b in shapes]
    n, h = cfg.num_layers, cfg.num_heads
    per_step = Counter(qkv=3 * n * h, scores=n * h, value_mix=n * h, out_proj=n, mlp=2 * n,
                       unembed=1)
    assert Counter(kinds[decode_from:]) == Counter({k: spec["steps"] * c
                                                    for k, c in per_step.items()})
    assert "unembed" not in kinds[:decode_from]
    # the tracer labels any 1-row left operand a decode step
    assert ctx.seq.total_length > 1 and min(a[0] for a, _ in shapes[:decode_from]) > 1


def test_replay_grid_argv_is_accepted(monkeypatch, tmp_path):
    # grid_run's own argv for every point of the workload's grid, captured at
    # cli.main and parsed by the CLI's parser
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run", monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    grid = run.REPLAY_GRID["grid"]
    points = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]
    ctx = run.GridCtx([tmp_path / "t.plpt"], points, seq_len=1, rows_per_trace=1)
    argvs = []

    def capture(argv):
        argvs.append(argv)
        return 2

    monkeypatch.setattr(run.cli, "main", capture)
    for i in range(len(points)):
        assert run.grid_run(ctx, i).rc == 2
    assert len(argvs) == len(points)
    for argv, point in zip(argvs, points):
        args = cli.build_parser().parse_args(argv)
        assert args.command == "replay"
        assert {key: getattr(args, key) for key in point} == point
