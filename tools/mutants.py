#!/usr/bin/env python3
"""Mutation table: does the test suite kill each named one-line mutant of src/plphp?

    python3 tools/mutants.py                # every mutant
    python3 tools/mutants.py NAME [NAME...] # just these
    python3 tools/mutants.py --list

The checkout's ``src/`` and ``tests/``, and what the tests read (``demos/``,
``perfbench/`` without its output, ``pyproject.toml``), are copied to one
temporary directory. Each mutant replaces exactly one line of a file there,
``python -m pytest -x`` runs in that copy, and the file is restored before
the next mutant; the checkout is never written. A mutant is killed when
pytest fails, and survived when every test passes. The criterion-7 latency
test can fail on a busy host whatever the code, so a mutant it fails first
is run again with that test deselected: the second run gives the result,
and the report names both. One line per mutant reports the result, the
first failing test and the seconds taken, and a Markdown table of all of
them follows.

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
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")
# a surviving mutant runs the whole suite (about a minute); ten is a hang
TIMEOUT_S = 600
# checks that every mutated line occurs once in the checkout: a mutant fails it
# by construction, so it is left out of the mutants' runs
TABLE_TEST = "tests/test_mutants.py"
# fails at random on a busy host, so a kill it reports first is not credited
LATENCY_TEST = "tests/test_acceptance.py::test_criterion_7_monotone_latency_trend"

# name -> (file under src/plphp, the one line replaced, its replacement)
MUTANTS = {
    "matmul-1x1-plus-zero": (
        "tensor_core.py", "        return np.add(sums[:, -1:], 0.0, out=out)",
        "        return np.add(sums[:, -1:], -0.0, out=out)"),
    "matmul-loop-plus-zero": (
        "tensor_core.py",
        "            ci += 0.0  # the loop's 0.0 + p0: a -0.0 first product ends +0.0",
        "            pass"),
    "matmul-row-initial": (
        "tensor_core.py",
        "        return np.add.reduce(prod, axis=0, initial=0.0, keepdims=True, out=out)",
        "        return np.add.reduce(prod, axis=0, keepdims=True, out=out)"),
    "matmul-chunk-initial": (
        "tensor_core.py", "        np.add.reduce(p, axis=0, initial=0.0, out=acc)",
        "        np.add.reduce(p, axis=0, out=acc)"),
    "matmul-chunk-carry": (
        "tensor_core.py", "            np.add(acc, p[0], out=p[0])", "            pass"),
    "matmul-row-chunks": (
        "tensor_core.py", "        rows = max(1, MATMUL_BUFFER_FLOATS // n)", "        rows = m"),
    "head-reduce-axis": (
        "tensor_core.py", "    return np.add.reduce(p, axis=0, initial=0.0, out=out)",
        "    return np.add.reduce(p, axis=1, initial=0.0, out=out)"),
    "head-reduce-initial": (
        "tensor_core.py", "    return np.add.reduce(p, axis=0, initial=0.0, out=out)",
        "    return np.add.reduce(p, axis=0, out=out)"),
    "head-reduce-carry": (
        "tensor_core.py", "        np.add(carry, p[0], out=p[0])", "        pass"),
    "head-accumulate-axis": (
        "tensor_core.py", "        np.add.accumulate(p, axis=2, out=p)",
        "        np.add.accumulate(p, axis=1, out=p)"),
    "head-accumulate-carry": (
        "tensor_core.py", "            np.add(carry, p[:, :, 0], out=p[:, :, 0])",
        "            pass"),
    "head-accumulate-plus-zero": (
        "tensor_core.py", "        return np.add(p[:, :, -1], 0.0, out=out)",
        "        return np.add(p[:, :, -1], -0.0, out=out)"),
    "head-slab-rows": (
        "tensor_core.py", "    chunk = min(inner, max(1, HEAD_SLAB_FLOATS // (h * cols)))",
        "    chunk = inner"),
    "head-slab-cols": (
        "tensor_core.py", "        cols = min(n, max(2, HEAD_SLAB_FLOATS // (h * inner)))",
        "        cols = n"),
    "head-last-slab": (
        "tensor_core.py", "            j0 -= 1", "            pass"),
    "head-softmax-max-axis": (
        "tensor_core.py", "    scores -= scores.max(axis=1, keepdims=True)",
        "    scores -= scores.max()"),
    "padded-row-sum-leaf": (
        "tensor_core.py", "        total = np.add.reduce(leaf, axis=1, keepdims=True)",
        "        total = np.add.reduce(x[:, lo:], axis=1, keepdims=True)"),
    "softmax-tail-rezero": (
        "tensor_core.py", "        np.copyto(tail, 0.0, where=masked)", "        pass"),
    "argtopk-tie-pass": (
        "tensor_core.py",
        "    if kept.size != neg.shape[0] * k or np.isnan(threshold).any():",
        "    if np.isnan(threshold).any():"),
    "read-only-rows": (
        "model.py", "        read_only.flags.writeable = False", "        pass"),
    "thread-join": (
        "model.py", "        worker.join()", "        pass"),
    "lowest-head-error": (
        "model.py", "    for exc in errors:", "    for exc in reversed(errors):"),
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
               f"--ignore={TABLE_TEST}", *extra]
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
    print("\n| mutant | result | killed by | s |\n|---|---|---|---|")
    for name, result, test, seconds in rows:
        print(f"| {name} | {result} | {test or '-'} | {seconds:.1f} |")
    return 0 if all(result == "killed" for _, result, _, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
