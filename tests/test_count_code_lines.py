import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_code_lines.py"
code_lines = runpy.run_path(str(SCRIPT))["code_lines"]

SNIPPET = '''"""Module docstring,
over two lines."""
import os  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    s = "a string, not a docstring"
    return os.path.join(
        x,
        s,
    )


class C:
    """Class docstring."""
    z = """a string over
two lines"""
'''


def test_code_lines_count_lines_with_a_code_token():
    # import, def, s =, the four lines of the call, class, and the two of z
    assert code_lines(SNIPPET) == 10
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
