"""Smoke runs of the demo scripts (each must exit 0) and of the README's
library snippet."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["bracket_tour.py", "homology_tour.py", "moves_tour.py"])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["d1"].braid_word == namespace["d"].braid_word
