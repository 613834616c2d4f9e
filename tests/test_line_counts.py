from line_counts import code_lines, non_blank_lines

SNIPPET = '''"""A module docstring
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A one-line docstring."""
    s = """a string that is code,
on two lines"""
    return x


class C:
    """A docstring."""

    y = 1
'''


def test_line_counts_leave_out_blank_lines_comments_and_docstrings():
    assert non_blank_lines(SNIPPET) == 12
    # import, def, the two lines of s, return, class and y
    assert code_lines(SNIPPET) == 7
