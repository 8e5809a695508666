"""tools/code_lines.py: code lines and wc -l lines of Python files."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring,
over two lines."""

# a comment line
def f(a,
      b):
    """A docstring."""
    return a + b  # a trailing comment
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # the continued def line counts twice and the return once: 3 code lines of 8
    (tmp_path / "snippet.py").write_text(SNIPPET)
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["3", "8", str(tmp_path / "snippet.py")], ["3", "8", "total"]]
