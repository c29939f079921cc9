import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0
"""

PASSING = """
def test_passes():
    assert True
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # On a failing example the hypothesis plugin imports libcst, which warns;
    # the project's warnings-as-errors setting must not turn that into an
    # INTERNALERROR that ends the session before the other tests run.
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    (tmp_path / "test_b_plain.py").write_text(PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_a_property.py", "test_b_plain.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
