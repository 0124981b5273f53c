"""Report the lines of ``src/`` that the test suite never executes.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
following only frames whose code lives under the source directory. A file's
executable lines are the line numbers its code objects map instructions to
(``co_lines()``), over the module and every function, class and
comprehension nested in it. Code that runs only in a subprocess, such as
``python -m persage``, is not followed. Standard library and pytest only.

Run from the repository root:

    python tools/linecov.py

It runs the tier-1 suite as ``pytest -q --continue-on-collection-errors``,
prints one ``<unexecuted> <executable> <file>: <line numbers>`` row per file
and a ``total`` row, and exits with pytest's status.
"""

import os
import sys
import threading

SRC = "src"


def executable_lines(path):
    """The line numbers of a Python file that hold at least one instruction."""
    with open(path, "rb") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Records the (file, line) pairs executed in files under ``root``."""

    def __init__(self, root):
        self.root = os.path.abspath(root) + os.sep
        self.executed = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.root):
            return None
        lines = self.executed.setdefault(path, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        # restored on exit, so that a trace can run inside another
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def source_files(root):
    return sorted(os.path.abspath(os.path.join(d, name))
                  for d, _, names in os.walk(root)
                  for name in names if name.endswith(".py"))


def report(root, executed):
    """Rows ``(path, unexecuted line numbers, executable count)`` per file."""
    rows = []
    for path in source_files(root):
        lines = executable_lines(path)
        rows.append((path, sorted(lines - executed.get(path, set())), len(lines)))
    return rows


def _ranges(numbers):
    """"3-5, 9" for [3, 4, 5, 9]."""
    parts, start = [], None
    for i, n in enumerate(numbers):
        if start is None:
            start = n
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            parts.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ", ".join(parts)


def print_report(rows, root, out=sys.stdout):
    missed = executable = 0
    for path, lines, count in rows:
        missed += len(lines)
        executable += count
        name = os.path.relpath(path, os.path.dirname(os.path.abspath(root)))
        print(f"{len(lines):6d} {count:6d} {name}: {_ranges(lines)}", file=out)
    print(f"{missed:6d} {executable:6d} total", file=out)


def main():
    import pytest

    src = os.path.abspath(SRC)
    sys.path.insert(0, src)
    with LineTracer(src) as tracer:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    print_report(report(src, tracer.executed), src)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
