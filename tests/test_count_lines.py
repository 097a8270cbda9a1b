"""The line counts that ``benchmarks/count_lines.py`` prints, on a fixed snippet."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SNIPPET = '''"""Module docstring,
on two lines."""
import math  # a trailing comment keeps its line

# a comment-only line


class Box:
    """One-line class docstring."""

    size = 2

    def area(self):
        """Function docstring,

        on three lines."""
        text = """a string that is not a docstring
# and this line is inside it"""
        return (self.size
                * math.pi)
'''


def test_counts_every_line_and_leaves_out_blanks_comments_and_docstrings():
    # code: import, class, size, def, the two lines of text, the two of return
    assert count_lines.count(SNIPPET) == (20, 8)


def test_a_file_without_a_final_newline_counts_as_wc_does():
    assert count_lines.count("x = 1\ny = 2") == (1, 2)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    count_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["lines", "code", "file"], ["20", "8", "a.py"], ["2", "1", "sub/b.py"],
                    ["22", "9", "total"]]
