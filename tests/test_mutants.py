"""The mutation table in tools/mutants.py stays aimed at the code it mutates."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_every_mutated_line_occurs_once_in_its_file(name):
    # a refactor that moves or rewords a line must retarget its mutant
    rel, old, new, *first = mutants.MUTANTS[name]
    text = (ROOT / "src" / "plphp" / rel).read_text()
    assert text.split("\n").count(old) == 1, f"{name}: {old!r}"
    assert mutants.mutate(text, old, new) != text
    for test in first:  # a test named to run first exists where it says
        file, *_, function = test.split("::")
        assert f"    def {function}(" in (ROOT / file).read_text(), test


@pytest.mark.parametrize("runs, want", [
    # (first failing test of each pytest run, "" when all pass) -> the mutant's result
    (["tests/test_x.py::test_a"], ("killed", "tests/test_x.py::test_a")),
    ([mutants.LATENCY_TEST, ""], ("survived", f"- (first run: {mutants.LATENCY_TEST})")),
    ([mutants.LATENCY_TEST, "tests/test_x.py::test_a"],
     ("killed", f"tests/test_x.py::test_a (first run: {mutants.LATENCY_TEST})")),
])
def run_faked(tmp_path, monkeypatch, name, runs):
    """``run_one(tmp_path, name)`` with ``subprocess.run`` faked: pytest run i
    reports ``runs[i]`` as its first failing test ("" when all pass). Returns
    the result, the killing test and the commands, after checking that the
    mutant was in place for each run and is gone after the last."""
    rel = mutants.MUTANTS[name][0]
    original = (ROOT / "src" / "plphp" / rel).read_text()
    path = tmp_path / "src" / "plphp" / rel
    path.parent.mkdir(parents=True)
    path.write_text(original)
    commands = []

    def fake_run(command, **kwargs):
        assert kwargs["cwd"] == tmp_path and path.read_text() != original  # the mutant is in
        commands.append(command)
        failed = runs[len(commands) - 1]
        stdout = f"FAILED {failed} - AssertionError\n" if failed else "1 passed\n"
        return subprocess.CompletedProcess(command, 1 if failed else 0, stdout=stdout)

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    result, test, _ = mutants.run_one(tmp_path, name)
    assert path.read_text() == original and len(commands) == len(runs)
    assert all(f"--hypothesis-seed={mutants.HYPOTHESIS_SEED}" in c for c in commands)
    return result, test, commands


@pytest.mark.parametrize("runs, want", [
    # (first failing test of each pytest run, "" when all pass) -> the mutant's result
    (["tests/test_x.py::test_a"], ("killed", "tests/test_x.py::test_a")),
    ([mutants.LATENCY_TEST, ""], ("survived", f"- (first run: {mutants.LATENCY_TEST})")),
    ([mutants.LATENCY_TEST, "tests/test_x.py::test_a"],
     ("killed", f"tests/test_x.py::test_a (first run: {mutants.LATENCY_TEST})")),
])
def test_a_latency_kill_is_rerun_without_the_latency_test(tmp_path, monkeypatch, runs, want):
    # criterion 7 fails at random, so a kill it reports first is decided by a
    # second run that deselects it; no pytest is started here
    result, test, commands = run_faked(tmp_path, monkeypatch, "one-file-check", runs)
    assert (result, test) == want
    assert [f"--deselect={mutants.LATENCY_TEST}" in c for c in commands] == \
        [False] + [True] * (len(runs) - 1)


THREAD_JOIN_TEST = mutants.MUTANTS["thread-join"][3]


@pytest.mark.parametrize("runs, want", [
    # the named test fails: the suite never runs
    ([THREAD_JOIN_TEST], ("killed", THREAD_JOIN_TEST)),
    # it passes: the suite decides, as for any mutant
    (["", "tests/test_x.py::test_a"], ("killed", "tests/test_x.py::test_a")),
    (["", ""], ("survived", "")),
])
def test_a_named_test_runs_alone_before_the_suite(tmp_path, monkeypatch, runs, want):
    result, test, commands = run_faked(tmp_path, monkeypatch, "thread-join", runs)
    assert (result, test) == want
    # the named test alone, then the whole suite with nothing selected or deselected
    assert commands[0][-1] == THREAD_JOIN_TEST
    assert all(c[-1].startswith("--ignore=") and not any(a.startswith("--deselect") for a in c)
               for c in commands[1:])
