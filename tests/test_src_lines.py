"""The line-kind rule of ``tests/src_lines.py``: each line counts once, as
blank, then docstring, then comment-only, then code."""

from src_lines import count_lines

FIXTURE = '''"""Module docstring.

Its blank line above counts as blank.
"""
# A comment-only line.
import os  # a comment after code is code


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,
        two lines."""
        # Indented comment-only line.
        text = """not a docstring
# not a comment

"""
        return text
'''


def test_each_line_counts_once_by_the_first_kind_that_fits():
    assert count_lines(FIXTURE) == {"code": 7, "docstring": 6, "comment": 2, "blank": 5}
    assert sum(count_lines(FIXTURE).values()) == FIXTURE.count("\n")
