"""Every narrative demo script, and the README's library quick start, runs to completion."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stoplemma

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(stoplemma.__file__).resolve().parents[1])


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_a_list(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README has no Library quick start python block"
    proc = run_python(["-c", block[1]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    printed = ast.literal_eval(proc.stdout.strip())
    assert isinstance(printed, list) and printed
