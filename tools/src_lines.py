"""Count the code lines of the package under ``src/``.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines do not count. A docstring is a string literal
standing alone as the first statement of a module, class or function.
Standard library only.

Run from the repository root:

    python tools/src_lines.py [SRC_DIR]

It prints one ``<code lines> <physical lines> <file>`` row per file and a
``total`` row.
"""

import ast
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(code lines, physical lines) of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = _docstring_lines(ast.parse(source, path))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP:
                continue
            lines = range(tok.start[0], tok.end[0] + 1)
            code.update(n for n in lines if n not in docstrings)
    return len(code), source.count(b"\n")


def main(argv):
    root = argv[1] if len(argv) > 1 else "src"
    paths = sorted(os.path.join(d, name) for d, _, names in os.walk(root)
                   for name in names if name.endswith(".py"))
    total_code = total_physical = 0
    for path in paths:
        code, physical = count(path)
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d} {path}")
    print(f"{total_code:6d} {total_physical:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
