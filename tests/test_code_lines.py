"""tools/code_lines.py counts lines of code, not of docstrings, comments or
blank lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
on two lines."""
# a comment
text = """a string that is not a docstring,
on two lines"""

def double(x):
    return 2 * x
'''


def test_code_lines_counts_only_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    result = subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True,
                            text=True, check=True)
    assert result.stdout == "     4 sample.py\n     4 total\n"
