import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _SCRIPT)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
NAME = "a string assigned to a name"


def f(a, b):
    """A function docstring."""
    return max(
        a,
        b,
    )
'''


def test_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # code: NAME = ... (5), def (8), and the four lines of the call (10-13)
    assert count_lines.count(path) == (13, 6)
