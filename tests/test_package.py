"""The package surface: the README quick start and command lines, the export
list and the source line counter."""

import contextlib
import importlib.util
import io
import math
import pathlib
import re
import shlex

import persage
from persage import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_readme_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("persage ")]
    assert {argv[0] for argv in commands} == {
        "synth", "train", "eval", "sweep", "retrieve"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits with status 2 on an unknown flag


def test_all_names_resolve_once():
    names = persage.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(persage, n)] == []


def test_src_lines_counts_code_only(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    sample = tmp_path / "sample.py"
    sample.write_text('''"""Module docstring,
over two lines."""

# a comment
X = """not a docstring:
three lines
of code"""


def f(a,
      b):
    """Function docstring."""
    return a + b  # trailing comment
''')
    # X's three lines, the def's two and the return
    assert src_lines.count(sample) == (6, 13)
