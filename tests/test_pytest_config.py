"""The repository's pytest settings report a failing property test instead of aborting."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; with every warning an error
    # that aborted the whole session (exit 3) before the example was printed
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
