"""The benchmark's traced run rebinds the plphp names listed in
``perfbench/tracer.py``; a rename in plphp would break ``--trace 1``, and so
would a ``matmul`` operand shape its classifier does not know or a call that
goes past a rebound name. Its replay_grid workload drives the CLI, so a flag
it passes must stay."""

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
    softmax_calls = []
    softmax = model.masked_row_softmax

    def recording_softmax(*args, **kwargs):
        softmax_calls.append(args[0].shape)
        return softmax(*args, **kwargs)

    monkeypatch.setattr(model, "masked_row_softmax", recording_softmax)
    state, _ = model.prefill(ctx.weights, cfg, ctx.seq,
                             hook=run.method_hook(method, cfg.num_layers))
    decode_from = len(shapes)
    prefill_softmax = len(softmax_calls)
    for token in range(spec["steps"]):
        model.decode_step(ctx.weights, cfg, state, token)

    tracer = run.tracing.Tracer(cfg.model_dim, cfg.head_dim, cfg.vocab_size)
    kinds = [tracer.matmul_kind(np.empty(a), np.empty(b)) for a, b in shapes]
    n = cfg.num_layers
    # a decode step attends with every head at once through _head_matmul and
    # _normalise_rows, which the tracer does not bind: it sees only the
    # layers' out-projections and MLPs and the unembedding
    per_step = Counter(out_proj=n, mlp=2 * n, unembed=1)
    assert Counter(kinds[decode_from:]) == Counter({k: spec["steps"] * c
                                                    for k, c in per_step.items()})
    assert prefill_softmax > 0 and len(softmax_calls) == prefill_softmax
    assert "unembed" not in kinds[:decode_from]
    # the tracer labels any 1-row left operand a decode step
    assert ctx.seq.total_length > 1 and min(a[0] for a, _ in shapes[:decode_from]) > 1


# the tracer names a prefill reaches under each method's hook: a refactor that
# calls past one would read 0 in its per-layer metric instead of failing
PREFILL_REACHES = {"plphp.model.prefill", "plphp.model.matmul", "plphp.model.masked_row_softmax"}
HOOK_REACHES = {
    "none": set(),
    "plphp": {"plphp.pruning.plphp_hook", "plphp.pruning.decide_layer",
              "plphp.pruning.argtopk", "plphp.pruning.prune_head_cache"},
    "fastv": {"plphp.baselines.fastv_hook", "plphp.baselines.argtopk",
              "plphp.pruning.prune_head_cache"},
    # VTW's pruned layers keep (H, 0) vision rows, cut head by head like any other
    "vtw": {"plphp.baselines.vtw_hook", "plphp.pruning.prune_head_cache"},
}


@pytest.mark.parametrize("method", sorted(HOOK_REACHES))
def test_hooks_reach_the_tracer_names(monkeypatch, method):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run", monkeypatch)
    spec = dict(run.LONG_DECODE, segments="T:8,I:24,T:4,I:24,T:4", steps=0)
    ctx = run.model_setup(spec, seed=0, name="contract")
    reached = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            reached[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, _ in run.tracing.TARGETS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting(f"{module}.{attr}", getattr(mod, attr)))
    model.prefill(ctx.weights, ctx.cfg, ctx.seq, hook=run.method_hook(method, ctx.cfg.num_layers))
    assert set(reached) == PREFILL_REACHES | HOOK_REACHES[method]
    # one hook call and one decision per prefill, over every layer's rows
    assert all(n == 1 for name, n in reached.items() if name.endswith(("_hook", "decide_layer")))


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
