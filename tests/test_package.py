"""The package surface: the README quick start and the export list."""

import contextlib
import io
import math
import pathlib
import re

import persage

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "quick_start"})
    printed = out.getvalue().split()
    assert len(printed) == 1, out.getvalue()
    age = float(printed[0])
    assert math.isfinite(age) and 0.0 <= age <= 100.0


def test_all_names_resolve_once():
    names = persage.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(persage, n)] == []
