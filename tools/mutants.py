#!/usr/bin/env python3
"""Mutation table: does the test suite kill each named one-line mutant of src/plphp?

    python3 tools/mutants.py                # every mutant
    python3 tools/mutants.py NAME [NAME...] # just these
    python3 tools/mutants.py --list

The checkout's ``src/`` and ``tests/``, and what the tests read (``demos/``,
``perfbench/`` without its output, ``pyproject.toml``, ``README.md``), are
copied to one temporary directory. Each mutant replaces exactly one line of a
file there, ``python -m pytest -x`` runs in that copy with a fixed Hypothesis
seed, and the file is restored before the next mutant; the checkout is never
written. The fixed seed makes every run draw the same examples, so a mutant
that a Hypothesis property kills first names the same test until the code or
the tests change. A mutant is killed when pytest fails, and survived when
every test passes. The criterion-7 latency test can fail on a busy host
whatever the code, so a mutant it fails first is run again with that test
deselected: the second run gives the result, and the report names both. One
line per mutant reports the result, the first failing test and the seconds
taken, and a Markdown table of all of them follows, under the seed.

Every mutant targets a bitwise contract, a bound on outside input or a
pruning rule. A survivor needs a test, or a note saying why the mutant is
equivalent. Runs take minutes: a survivor runs the whole suite.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml", "README.md")
HYPOTHESIS_SEED = 0
# a surviving mutant runs the whole suite (about a minute); ten is a hang
TIMEOUT_S = 600
# checks that every mutated line occurs once in the checkout: a mutant fails it
# by construction, so it is left out of the mutants' runs
TABLE_TEST = "tests/test_mutants.py"
# fails at random on a busy host, so a kill it reports first is not credited
LATENCY_TEST = "tests/test_acceptance.py::test_criterion_7_monotone_latency_trend"

# name -> (file under src/plphp, the one line replaced, its replacement)
MUTANTS = {
    "matmul-1x1-fallback": (
        "tensor_core.py", "    if m == n == 1:", "    if False:"),
    "matmul-k-innermost": (
        "tensor_core.py",
        '    return np.einsum("ik,kj->ij", a, _unit_rows(b), out=out, optimize=False)',
        '    return np.einsum("ik,kj->ij", a, np.asfortranarray(b), out=out, optimize=False)'),
    "matmul-columns-k-innermost": (
        "tensor_core.py",
        '        out_t = np.einsum("ki,kj->ji", np.asfortranarray(a).T, b, out=np.empty((n, m)),',
        '        out_t = np.einsum("ki,kj->ji", np.ascontiguousarray(a).T, b, out=np.empty((n, m)),'),
    "matmul-optimize": (
        "tensor_core.py",
        '    return np.einsum("ik,kj->ij", a, _unit_rows(b), out=out, optimize=False)',
        '    return np.einsum("ik,kj->ij", a, _unit_rows(b), out=out, optimize=True)'),
    # only a C-contiguous operand skips the stride test
    "unit-rows-flag": (
        "tensor_core.py", "    if x.flags.c_contiguous:",
        "    if x.flags.c_contiguous or x.flags.f_contiguous:"),
    "unit-rows-copy": (
        "tensor_core.py",
        "    if x.strides[-1] != x.itemsize or x.strides[-2] < x.itemsize * x.shape[-1]:",
        "    if x.strides[-2] < x.itemsize * x.shape[-1]:"),
    "rows-forward-copy": (
        "tensor_core.py",
        "    if x.strides[-1] != x.itemsize or x.strides[-2] < x.itemsize * x.shape[-1]:",
        "    if x.strides[-1] != x.itemsize or abs(x.strides[-2]) < x.itemsize * x.shape[-1]:"),
    "rows-overlap-copy": (
        "tensor_core.py",
        "    if x.strides[-1] != x.itemsize or x.strides[-2] < x.itemsize * x.shape[-1]:",
        "    if x.strides[-1] != x.itemsize or x.strides[-2] < 0:"),
    # the body that head_matmul and a decode step's q/k/v, scores and value mix share
    "head-k-innermost": (
        "tensor_core.py",
        '    return np.einsum("...k,...kn->...n", a, b, out=out, optimize=False)',
        '    return np.einsum("...k,...kn->...n", a, '
        'np.ascontiguousarray(np.swapaxes(b, -1, -2)).swapaxes(-1, -2), out=out, '
        'optimize=False)'),
    "head-optimize": (
        "tensor_core.py",
        '    return np.einsum("...k,...kn->...n", a, b, out=out, optimize=False)',
        '    return np.einsum("...k,...kn->...n", a, b, out=out, optimize=True)'),
    "head-1-column-fallback": (
        "tensor_core.py", "    if b.shape[-1] == 1:", "    if False:"),
    # the 1-column accumulate that matmul's 1 x 1 and head_matmul's n = 1 share
    "head-accumulate-axis": (
        "tensor_core.py", "    sums = np.add.accumulate(products, axis=-1)",
        "    sums = np.add.accumulate(products, axis=0)"),
    "head-accumulate-plus-zero": (
        "tensor_core.py", "    return np.add(sums[..., -1:], 0.0, out=out)",
        "    return np.add(sums[..., -1:], -0.0, out=out)"),
    # the softmax body that masked_row_softmax and head_row_softmax share
    "head-softmax-max-axis": (
        "tensor_core.py", "    x -= np.maximum.reduce(x, axis=1, keepdims=True)",
        "    x -= np.maximum.reduce(x, axis=None)"),
    "padded-row-sum-leaf": (
        "tensor_core.py", "        total = np.add.reduce(leaf, axis=1, keepdims=True)",
        "        total = np.add.reduce(x[:, lo:], axis=1, keepdims=True)"),
    "argtopk-tie-pass": (
        "tensor_core.py",
        "    if kept.size != neg.shape[0] * k or np.isnan(threshold).any():",
        "    if np.isnan(threshold).any():"),
    # the decode pass contracts its row with another layer's q/k/v slice
    "decode-qkv-layer": (
        "model.py",
        "        q, kt[:, :, n - 1], vs[:, n - 1] = _head_matmul(_rmsnorm(x), weights.w_qkv[:, l])",
        "        q, kt[:, :, n - 1], vs[:, n - 1] = _head_matmul(_rmsnorm(x), "
        "weights.w_qkv[:, (l + 1) % config.num_layers])"),
    # a decode step's one-row norm summed in another order than the rows' reduce
    "row-norm-sum-order": (
        "model.py",
        "        return x / math.sqrt(float(np.add.reduce(row * row)) / len(row) + eps)",
        "        return x / math.sqrt(math.fsum(row * row) / len(row) + eps)"),
    "read-only-rows": (
        "model.py", "        read_only.flags.writeable = False", "        pass"),
    "thread-join": (
        "model.py", "            worker.join()", "            pass"),
    # a thread that fails to start leaves those started before it unjoined
    "start-failure-join": (
        "model.py", "        for worker in started:",
        "        for worker in (started if len(started) == threads - 1 else []):"),
    "lowest-head-error": (
        "model.py", "    for exc in errors:", "    for exc in reversed(errors):"),
    # a head's exception stops the heads after it on its thread
    "run-heads-first-error": (
        "model.py", "                errors[h] = exc", "                raise"),
    "max-config-bytes": (
        "cli.py", "    if len(data) > MAX_CONFIG_BYTES:",
        "    if len(data) > MAX_CONFIG_BYTES + 1:"),
    "one-file-check": (
        "cli.py", "        if key in seen:", "        if False:"),
    "trace-size-check": (
        "trace.py", "        if declared != actual:", "        if declared < actual:"),
    "fastv-reads-rows-k": (
        "baselines.py",
        "    kept = fastv_surviving_set(rows[cfg.k_layer - 1], seq, cfg) \\",
        "    kept = fastv_surviving_set(rows[cfg.k_layer], seq, cfg) \\"),
    # the shared head average along FastV's former np.mean axis, 0: the same
    # for FastV's (H, S) rows, the layer axis for gamma's (L, H, S)
    "fastv-head-average-axis": (
        "pruning.py", "    return rows.sum(axis=-2) / rows.shape[-2]",
        "    return rows.sum(axis=0) / rows.shape[0]"),
    "decide-skips-check-depth": (
        "baselines.py", "    check_depth(cfg, len(rows))", "    pass"),
    "prune-cuts-exempt": (
        "pruning.py", "        return layer.clone()",
        "        return layer.take(np.stack([prune_head_cache(c, seq.text_union,"
        " np.empty(0, dtype=np.int64)) for c in layer]))"),
    "fastv-adapter-reranks": (
        "baselines.py", "        if layer == cfg.k_layer:", "        if layer >= cfg.k_layer:"),
    "layer-equal-rows-check": (
        "pruning.py",
        "        if kept is not None and not (isinstance(kept, np.ndarray) and kept.ndim == 2",
        "        if False and not (isinstance(kept, np.ndarray) and kept.ndim == 2"),
    "layer-cap-ignores-max-rows": (
        "model.py", "            cap = max(l1, min(2 * l1, max_rows))", "            cap = 2 * l1"),
    "prune-shares-exempt": (
        "pruning.py", "        return layer.clone()", "        return layer"),
    "exempt-ignores-array": (
        "pruning.py", "        return self.per_head_retained is None", "        return False"),
    "union-writable": (
        "layout.py", "        union.flags.writeable = False", "        pass"),
    "weight-views-writable": (
        "model.py", "        view.flags.writeable = False", "        pass"),
    "views-writable": (
        "model.py", "            view.flags.writeable = False", "            pass"),
    "report-none-spelling": (
        "metrics.py", '        return "null"', '        return "None"'),
    "report-drops-key": (
        "metrics.py", "_ROW_KEYS = sorted(CSV_COLUMNS)", "_ROW_KEYS = sorted(CSV_COLUMNS)[1:]"),
    "image-slice-end": (
        "layout.py",
        "        return tuple((hi - seg.length, hi) for seg, hi in zip(self.segments, ends)",
        "        return tuple((hi - seg.length, hi - 1) for seg, hi in zip(self.segments, ends)"),
    "image-offset": (
        "pruning.py", "            per_image.append((local + lo).reshape(len(group), num_heads, k))",
        "            per_image.append(local.reshape(len(group), num_heads, k))"),
    "image-concat-order": (
        "pruning.py", "        kept.update(zip(group, np.concatenate(per_image, axis=2)))",
        "        kept.update(zip(group, np.concatenate(per_image[::-1], axis=2)))"),
}


def mutate(text: str, old: str, new: str) -> str:
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise SystemExit(f"expected the line once, found it {len(hits)} times: {old!r}")
    lines[hits[0]] = new
    return "\n".join(lines)


def run_pytest(tree: Path, *extra: str) -> tuple[str, str]:
    """(killed | survived | timeout, first failing test or "") of one pytest run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--ignore={TABLE_TEST}", *extra]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    if done.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {done.returncode}"


def run_one(tree: Path, name: str) -> tuple[str, str, float]:
    """(killed | survived | timeout, first failing test or "", seconds).

    A mutant LATENCY_TEST fails first runs again without it; that run gives
    the result, and the test names the first run's failure after it.
    """
    rel, old, new = MUTANTS[name]
    path = tree / "src" / "plphp" / rel
    original = path.read_text()
    path.write_text(mutate(original, old, new))
    start = time.perf_counter()
    try:
        result, test = run_pytest(tree)
        if test == LATENCY_TEST:
            result, test = run_pytest(tree, f"--deselect={LATENCY_TEST}")
            test = f"{test or '-'} (first run: {LATENCY_TEST})"
    finally:
        path.write_text(original)
    return result, test, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args()
    if args.list:
        for name, (rel, old, new) in MUTANTS.items():
            print(f"{name}: src/plphp/{rel}\n  - {old.strip()}\n  + {new.strip()}")
        return 0
    unknown = set(args.names) - set(MUTANTS)
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    rows = []
    with tempfile.TemporaryDirectory(prefix="plphp-mutants-") as tmp:
        tree = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, tree / item,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy2(src, tree / item)
        for name in args.names or MUTANTS:
            result, test, seconds = run_one(tree, name)
            rows.append((name, result, test, seconds))
            print(f"{name}: {result} {test} ({seconds:.1f} s)", flush=True)
    print(f"\nHypothesis seed {HYPOTHESIS_SEED}\n\n| mutant | result | killed by | s |\n"
          "|---|---|---|---|")
    for name, result, test, seconds in rows:
        print(f"| {name} | {result} | {test or '-'} | {seconds:.1f} |")
    return 0 if all(result == "killed" for _, result, _, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
