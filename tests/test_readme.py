"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()


def _examples():
    """One param per ```python block, named by the README line it starts on."""
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S):
        code = match.group(1)
        line = TEXT.count("\n", 0, match.start()) + 1
        # the run_experiment example averages 50 realizations at N=12
        marks = pytest.mark.slow if "run_experiment(" in code else ()
        yield pytest.param(code, line, marks=marks, id=f"line{line}")


def test_readme_has_both_examples():
    assert len(list(_examples())) == 2


@pytest.mark.parametrize("code,line", _examples())
def test_readme_python_block_runs(code, line, capsys):
    # compiled at its README line, so a traceback points into the README
    exec(compile("\n" * line + code, str(README), "exec"), {})
    assert capsys.readouterr().out
