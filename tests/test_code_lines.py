import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    y = (x +
         1)
    "a bare string statement"
    return f"{y}" + """a string
in an expression"""
'''


def test_counts_lines_spanned_by_code_tokens(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of y, return and its string's second line
    assert _code_lines().count(path) == (len(SOURCE.splitlines()), 6)


def test_prints_per_module_rows_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = [\n    2,\n]\n')
    assert _code_lines().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "1", str(tmp_path / "a.py")], ["4", "3", str(tmp_path / "b.py")], ["5", "4", "total"]]
