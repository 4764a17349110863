"""Count the code lines of Python modules, as the size figures in CHANGES.md do.

A code line is a line that some token of code spans. The tokens of
tokenize.generate_tokens are walked per file: comments, blank lines and the
layout tokens (NL, NEWLINE, INDENT, DEDENT, ENDMARKER) are skipped, and so is
a string token that opens a statement (a docstring or a bare string
statement), i.e. one whose previous non-comment token is NEWLINE, INDENT,
DEDENT or NL, or that starts the file.

Usage: python tools/code_lines.py [PATH ...]
Each PATH is a .py file or a directory whose *.py files (not recursive) are
counted; the default is src/superbethe. Prints one "lines  code  module" row
per module and a total row.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.NL}


def count(path):
    """(lines, code lines) of one Python source file."""
    with tokenize.open(path) as fh:
        text = fh.read()
    code = set()
    previous = tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            continue
        if not (tok.type == tokenize.STRING and previous in _STATEMENT_START) and tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(text.splitlines()), len(code)


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/superbethe"]
    total_lines = total_code = 0
    for path in modules(paths):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
