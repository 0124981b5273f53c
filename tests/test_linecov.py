"""tools/linecov.py: executable lines, the trace and the unexecuted report."""

import importlib.util
import io
import os
import sys
import textwrap

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "linecov.py")
_spec = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TOY = textwrap.dedent('''\
    """A toy module."""

    LIMIT = 3


    def clamp(x):
        """Docstring lines hold no instruction."""
        if x > LIMIT:
            x = LIMIT
            return [
                x]
        return x


    class Box:
        def size(self):
            return sum(n for n in range(2))
    ''')


def test_untraced_lines_of_a_toy_module(tmp_path):
    root = tmp_path / "src"
    root.mkdir()
    (root / "toy.py").write_text(TOY)
    assert linecov.executable_lines(str(root / "toy.py")) == {
        1, 3, 6, 8, 9, 10, 11, 12, 15, 16, 17}
    sys.path.insert(0, str(root))
    try:
        with linecov.LineTracer(str(root)) as tracer:
            import toy
            assert toy.clamp(1) == 1
        assert toy.Box().size() == 1  # after the trace: not counted
    finally:
        sys.path.remove(str(root))
        sys.modules.pop("toy", None)
    rows = linecov.report(str(root), tracer.executed)
    assert [(os.path.basename(path), lines, count) for path, lines, count in rows] \
        == [("toy.py", [9, 10, 11, 17], 11)]
    out = io.StringIO()
    linecov.print_report(rows, str(root), out)
    assert out.getvalue().splitlines() == [
        "     4     11 src/toy.py: 9-11, 17", "     4     11 total"]
