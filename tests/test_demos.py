"""Every demo script, and README's quick start, runs to completion from a
clean working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"],
                         ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    if demo.suffix == ".md":  # README's one python block, run as a script
        [block] = re.findall(r"^```python\n(.*?)^```$", demo.read_text(), re.DOTALL | re.MULTILINE)
        demo = tmp_path / "quick_start.py"
        demo.write_text(block)
    # TMPDIR too, so a demo's temporary files land in tmp_path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
