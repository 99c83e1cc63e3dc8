"""The code-line counter ``tests/code_lines.py``."""

import code_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a trailing comment


# a comment-only line
def f(x):
    """One-line docstring."""
    total = (x
             + math.pi)
    return total


class C:
    """Class docstring."""

    text = """not a docstring,
    but a string on two lines"""
'''


def test_counts_statements_not_docstrings_comments_or_blanks():
    # import, def, the two lines of the assignment, return, class, and the
    # two lines of the string assignment
    assert code_lines.code_lines(SNIPPET) == 8


def test_report_compares_two_trees(tmp_path):
    for root, body in (("old", "x = 1\ny = 2\n"), ("new", "x = 1\n")):
        pkg = tmp_path / root / "src" / "ctrlstab"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text(body)
    lines = code_lines.report(str(tmp_path / "new"),
                              against=str(tmp_path / "old"))
    assert lines == ["src/ctrlstab/m.py: 2 -> 1 (-1)",
                     "src/ctrlstab/ total: 2 -> 1 (-1)",
                     "perfbench/ total: 0 -> 0 (+0)"]
