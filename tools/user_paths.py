#!/usr/bin/env python3
"""Which statements of src/plphp does no user path run?

    python3 tools/user_paths.py

Runs a fixed set of ``plphp`` CLI calls (USER_PATHS) and the demos, one
after another in one process under the standard library's ``trace`` module,
in a temporary directory, and prints each statement of ``src/plphp`` that
none of them ran, as ``file:line: text`` (a statement's first line). Worker
threads are traced too. ``raise`` statements, the statements of a block that
ends in one, and ``except`` bodies are left out: error branches and input
bounds are the tests' to run, not a user path's. An ALLOWED entry names a
statement's first line; the unrun statements within that statement are
printed apart, with the reason they stay. Exits 1 if any other statement
is left, or if an entry covers none.

Keep the calls small: a line reached only at a larger size (a softmax row
past 128 columns) needs a larger call here, not an allowlist entry.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import os
import runpy
import sys
import tempfile
import threading
import trace
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plphp"
METHODS = ("none", "plphp", "fastv", "vtw")
# a config file for the --config run, with a comment and a blank line. Its
# prompt of 256 rows makes softmax row blocks wider than numpy's 128-column
# pairwise leaf, and the block ending at row 128 ends on a split of the sum
CONFIG = """# one config file
model_layers = 4

model_heads = 2
head_dim = 4
segments = T:8,I:244,T:4
steps = 2
method = plphp
"""
# each a ``plphp`` argv, run in the temporary directory in this order
USER_PATHS = [
    *(["run", "--method", m, "--trace-out", f"{m}.plpt", "--report-out", f"run-{m}.json"]
      for m in METHODS),
    ["run", "--config", "big.cfg", "--report-out", "big.json"],
    # a decode step's value mix and q/k/v then have one column, and a prompt
    # of 65 rows ends in a 1-row block, which joins the block before it
    ["run", "--head-dim", "1", "--model-heads", "2", "--segments", "T:8,I:53,T:4",
     "--steps", "2"],
    *(["replay", "--trace", "plphp.plpt", "--method", m, "--report-out", f"replay-{m}.json"]
      for m in METHODS),
    # plphp's r = 0.9 with dr = 0.3 fails its point, and the sweep goes on;
    # FastV's ratio 1.0 keeps no vision row
    ["sweep", "--grid", "method=plphp|fastv,r=0.3|0.9,fastv_ratio=1.0", "--steps", "2",
     "--report-out", "sweep.csv"],
    # a prompt with no image
    ["sweep", "--segments", "T:12", "--grid", "method=plphp|fastv", "--steps", "1",
     "--report-out", "text.csv"],
]
# (file under src/plphp, a statement's first line, why no user path runs it and
# the statements within it)
ALLOWED = [
    ("model.py", "    if hook is not None:",
     "prefill's hook branch: only perfbench/ passes a hook (ROADMAP item 6)"),
    ("pruning.py", "def plphp_hook(last_rows: np.ndarray, state: DecoderState, "
                   "seq: MultimodalSequence,",
     "perfbench/'s plphp prefill hook (ROADMAP item 6)"),
    ("pruning.py", "def make_hook(cfg: PruningConfig, num_layers: int):",
     "builds perfbench/'s plphp prefill hook (ROADMAP item 6)"),
    ("baselines.py", "def fastv_hook(last_rows: np.ndarray, state: DecoderState, "
                     "seq: MultimodalSequence,",
     "perfbench/'s FastV and VTW prefill hook (ROADMAP item 6)"),
    ("baselines.py", "def make_fastv_hook(cfg: FastVConfig, num_layers: int):",
     "builds perfbench/'s FastV prefill hook (ROADMAP item 6)"),
    ("baselines.py", "def make_vtw_hook(cfg: VTWConfig, num_layers: int):",
     "builds perfbench/'s VTW prefill hook (ROADMAP item 6)"),
    ("model.py", "        return len(self.positions)",
     "HeadKVCache.__len__: perfbench/tracer.py's Tracer._prefill calls len() on every "
     "head view (ROADMAP item 6)"),
    ("pruning.py", "    return VISION_BALANCED",
     "no live run has a vision-balanced layer (ROADMAP item 1)"),
    ("pruning.py", "    return cfg.r",
     "the balanced retention, r (ROADMAP item 1)"),
    ("metrics.py", "            lines.append(f\"{before},{spell((head, kept))}\\r\\n\")",
     "the CSV spelling of a head or kept cell that is no int: every live cell is one"),
    ("tensor_core.py", "    if inner == 0 or m * n == 0:",
     "input bound: no model multiplies an empty operand"),
    ("tensor_core.py", "        return np.ascontiguousarray(x)",
     "input bound: every src operand has unit-stride rows"),
    ("tensor_core.py", "    if n == 0:  # a 0 x 0 block: no row to normalise, and a max over no "
                       "columns raises",
     "input bound: a prefill block has a row"),
    ("tensor_core.py", "        kept = np.flatnonzero(_tied_topk(neg, threshold, k))",
     "argtopk's tie pass: no live attention row ties at its K-th value"),
    ("tensor_core.py", "def _tied_topk(neg: np.ndarray, threshold: np.ndarray, k: int) "
                       "-> np.ndarray:",
     "argtopk's tie pass"),
]


def _statements(tree: ast.Module) -> tuple[dict[int, int], dict[int, int], set[int]]:
    """(line -> first line of the innermost statement holding it, first line
    -> last line of each statement, first lines of the statements left out:
    raises, blocks that end in one, except bodies)."""
    owner: dict[int, int] = {}
    ends: dict[int, int] = {}
    skipped: set[int] = set()

    def visit(node: ast.AST, skip: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            block_skip = skip or field == "handlers" or \
                bool(block and isinstance(block[-1], ast.Raise))
            for child in block:
                if not isinstance(child, ast.stmt):  # an except handler or a match case
                    visit(child, block_skip)
                    continue
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                ends[first] = child.end_lineno
                for line in range(first, child.end_lineno + 1):
                    owner[line] = first  # a nested statement, visited next, takes its own
                child_skip = block_skip or isinstance(child, ast.Raise)
                if child_skip:
                    skipped.add(first)
                visit(child, child_skip)

    visit(tree, False)
    return owner, ends, skipped


def _line_starts(code: types.CodeType) -> set[int]:
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[int, int | None]]:
    """(first line, the index of its ALLOWED entry or None) of each statement
    in ``path`` with code, none of which ran; an entry covers the statements
    within it."""
    source = path.read_text()
    lines = source.split("\n")
    owner, ends, skipped = _statements(ast.parse(source))
    statements: dict[int, bool] = {}
    for line in _line_starts(compile(source, str(path), "exec")):
        first = owner.get(line)
        if first is not None and first not in skipped:
            statements[first] = statements.get(first, False) or line in ran
    spans = [(first, ends[first], i) for i, (rel, text, _) in enumerate(ALLOWED)
             if rel == path.name for first in [lines.index(text) + 1]]
    return [(first, next((i for lo, hi, i in spans if lo <= first <= hi), None))
            for first, hit in sorted(statements.items()) if not hit]


def run_user_paths(tmp: Path) -> dict[str, set[int]]:
    """Run every user path under ``trace``; returns the lines each src file ran."""
    # no ignoredirs: trace caches its ignore decision by bare module name, so an
    # ignored numpy "__init__" would hide plphp's __init__.py too
    tracer = trace.Trace(count=1, trace=0)
    sys.path.insert(0, str(ROOT / "src"))
    (tmp / "big.cfg").write_text(CONFIG)

    def everything() -> None:
        from plphp.cli import main
        for argv in USER_PATHS:
            if main(argv) != 0:
                raise SystemExit(f"plphp {' '.join(argv)} failed")
        # ``python -m plphp.cli``, which runs the module again as __main__
        sys.argv = ["plphp", "run", "--method", "plphp", "--steps", "1"]
        with contextlib.suppress(SystemExit), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # plphp.cli is imported already
            runpy.run_module("plphp.cli", run_name="__main__")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")

    cwd = os.getcwd()
    os.chdir(tmp)
    tempfile.tempdir = str(tmp)  # demo 04's mkdtemp
    threading.settrace(tracer.globaltrace)  # prefill's worker threads
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.runfunc(everything)
    finally:
        threading.settrace(None)
        tempfile.tempdir = None
        os.chdir(cwd)
    ran: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    return ran


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="plphp-user-paths-") as tmp:
        ran = run_user_paths(Path(tmp))
    unexplained, allowed, used = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().split("\n")
        for first, i in unrun_statements(path, ran.get(os.path.realpath(path), set())):
            entry = f"src/plphp/{path.name}:{first}: {lines[first - 1].strip()}"
            if i is None:
                unexplained.append(entry)
            else:
                allowed.append(f"{entry}\n    ({ALLOWED[i][2]})")
                used.add(i)
    # an entry whose statements all run now is stale
    stale = [f"src/plphp/{rel}: {text.strip()}" for i, (rel, text, _) in enumerate(ALLOWED)
             if i not in used]
    print(f"{len(unexplained)} statements no user path runs, apart from ALLOWED:",
          *unexplained, f"\n{len(allowed)} statements ALLOWED:", *allowed,
          f"\n{len(stale)} ALLOWED entries that cover no such statement:", *stale, sep="\n")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
