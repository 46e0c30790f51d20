"""The mutation table in tools/mutants.py stays aimed at the code it mutates."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_every_mutated_line_occurs_once_in_its_file(name):
    # a refactor that moves or rewords a line must retarget its mutant
    rel, old, new = mutants.MUTANTS[name]
    text = (ROOT / "src" / "plphp" / rel).read_text()
    assert text.split("\n").count(old) == 1, f"{name}: {old!r}"
    assert mutants.mutate(text, old, new) != text
