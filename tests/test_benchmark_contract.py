"""The benchmark's traced run rebinds the plphp names listed in
``perfbench/tracer.py``; a rename in plphp would break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.TARGETS and not missing
