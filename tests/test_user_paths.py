"""The allowlist in tools/user_paths.py stays aimed at the code it names."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("user_paths", ROOT / "tools" / "user_paths.py")
user_paths = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(user_paths)


@pytest.mark.parametrize("rel, text", [entry[:2] for entry in user_paths.ALLOWED],
                         ids=[f"{rel}:{text.strip()}" for rel, text, _ in user_paths.ALLOWED])
def test_every_allowed_line_occurs_once_in_its_file(rel, text):
    # a refactor that moves or rewords a line must retarget its entry, which
    # names the first line of the statement it covers
    source = (ROOT / "src" / "plphp" / rel).read_text()
    lines = source.split("\n")
    assert lines.count(text) == 1, f"{rel}: {text!r}"
    _, ends, _ = user_paths._statements(ast.parse(source))
    assert lines.index(text) + 1 in ends, f"{rel}: {text!r} starts no statement"


def test_error_branches_are_left_out():
    # a raise, the block it ends and an except body are the tests' to run
    source = ("def f(x):\n"
              "    if x:\n"
              "        y = 1\n"
              "        raise ValueError(y)\n"
              "    try:\n"
              "        return g(\n"
              "            x)\n"
              "    except KeyError:\n"
              "        return 2\n")
    owner, ends, skipped = user_paths._statements(ast.parse(source))
    assert skipped == {3, 4, 9}
    assert owner[7] == 6 and ends[6] == 7 and ends[1] == 9
