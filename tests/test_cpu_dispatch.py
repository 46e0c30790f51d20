"""What keeps its bits when numpy runs other CPU kernels.

numpy picks some kernels, ``np.exp`` among them, at run time from the CPU's
features, and ``NPY_DISABLE_CPU_FEATURES`` switches its dispatch targets
off. One child process per dispatch level, switching this host's targets off
from the top down, must reproduce the in-process bits of ``matmul`` in each
of its layouts, of the head-batched contraction a decode step calls
(``_head_matmul``), of ``argtopk`` and of replay reports. A
small prefill plus decode must keep its tokens, with logits within 1e-9, and
``np.exp`` must agree within 1 ULP over a fixed grid.
"""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import pruned_prefill
from plphp import (IMAGE, TEXT, FastVConfig, ModelConfig, PruningConfig, Segment, VTWConfig,
                   argtopk, build_sequence, decode_step, init_model, make_rng, matmul)
from plphp.metrics import report_to_json
from plphp.tensor_core import _head_matmul
from plphp.trace import replay, trace_from_run

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

# matmul cases (m, K, n, a's memory order), each labelled with the layout it takes
MATMUL_SHAPES = [
    (1, 50, 1, "C"),     # one element: the in-order accumulate
    (1, 37, 50, "C"),    # "...k,...kn->...n", one row (a decode projection)
    (40, 64, 300, "C"),  # "...k,...kn->...n" (prefill's scores)
    (30, 20, 10, "C"),   # "...k,...kn->...n": m > n, but a is not column-major
    (300, 8, 7, "C"),    # "...k,...kn->...n", narrow
    (300, 64, 7, "F"),   # "ki,kj->ji": column-major a, m > n (prefill's value mix)
    (300, 8, 1, "C"),    # one column: the in-order accumulate, row by row
]
# _head_matmul cases (H, K, n): "...k,...kn->...n" for n >= 2, the in-order accumulate for n = 1
HEAD_MATMUL_SHAPES = [(4, 300, 64), (4, 300, 1)]
EXP_GRID = np.linspace(-745.0, 0.0, 100_001)


def sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def active_targets() -> list[str]:
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def dispatch_levels() -> list[str]:
    """``NPY_DISABLE_CPU_FEATURES`` values: this host's top target off, then the
    top two, and so on down to the baseline."""
    targets = active_targets()
    return [" ".join(reversed(targets[i:])) for i in reversed(range(len(targets)))]


def measure() -> dict:
    """Everything the test compares, from fixed inputs, JSON-ready."""
    rng = make_rng(0)
    out = {"active": active_targets()}
    out["matmul"] = [sha256(matmul(np.asarray(rng.standard_normal((m, k)), order=order),
                                   rng.standard_normal((k, n))))
                     for m, k, n, order in MATMUL_SHAPES]
    out["heads"] = [sha256(_head_matmul(rng.standard_normal((h, k)),
                                        rng.standard_normal((h, k, n))))
                    for h, k, n in HEAD_MATMUL_SHAPES]
    values = np.round(rng.standard_normal((8, 500)), 1)  # ties past k
    out["argtopk"] = sha256(argtopk(values, 37), argtopk(rng.standard_normal(900), 100))

    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 40), Segment(TEXT, 3),
                          Segment(IMAGE, 30), Segment(TEXT, 3)], seed=0, vocab_size=32)
    n, h, s = 6, 3, seq.total_length
    # rows that sum to exactly 1: counts over a power of two
    rows = np.array([rng.multinomial(2**20, np.full(s, 1.0 / s)) for _ in range(n * h)])
    trace = trace_from_run(rows.reshape(n, h, s) / 2**20, seq)
    out["replay"] = [hashlib.sha256(report_to_json(replay(trace, cfg)[1]).encode()).hexdigest()
                     for cfg in (PruningConfig(), FastVConfig(), VTWConfig())]

    cfg = ModelConfig(num_layers=5, num_heads=2, model_dim=8, head_dim=4, vocab_size=32,
                      max_positions=s + 12)
    weights = init_model(cfg, 0)
    state, _, _ = pruned_prefill(weights, cfg, seq, PruningConfig())
    tokens, token = [], 0
    for _ in range(12):
        logits, state = decode_step(weights, cfg, state, token)
        token = int(np.argmax(logits))
        tokens.append(token)
    out["tokens"] = tokens
    out["logits"] = [float(x).hex() for x in logits]
    out["exp"] = base64.b64encode(np.exp(EXP_GRID).tobytes()).decode()
    return out


CHILD = "import json, test_cpu_dispatch; print(json.dumps(test_cpu_dispatch.measure()))"


def test_dispatch_levels_keep_bits_or_bounds():
    levels = dispatch_levels()
    if not levels:
        pytest.skip("numpy dispatches no kernel above its baseline on this host")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here), str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    children = [subprocess.Popen([sys.executable, "-c", CHILD], stdout=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": path,
                                      "NPY_DISABLE_CPU_FEATURES": level})
                for level in levels]
    results = []
    for child in children:
        stdout, _ = child.communicate(timeout=300)
        assert child.returncode == 0
        results.append(json.loads(stdout))
    want = measure()
    want_exp = np.frombuffer(base64.b64decode(want["exp"]), dtype=np.int64)
    for level, got in zip(levels, results):
        assert set(got["active"]) == set(want["active"]) - set(level.split()), level
        for key in ("matmul", "heads", "argtopk", "replay", "tokens"):
            assert got[key] == want[key], (level, key)
        logits = np.array([float.fromhex(x) for x in got["logits"]])
        want_logits = np.array([float.fromhex(x) for x in want["logits"]])
        assert np.max(np.abs(logits - want_logits)) <= 1e-9, level
        # exp of a negative number is positive, so its bits order as integers
        got_exp = np.frombuffer(base64.b64decode(got["exp"]), dtype=np.int64)
        assert np.max(np.abs(got_exp - want_exp)) <= 1, level
