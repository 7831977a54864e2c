"""The README's Python examples run against the package as it is."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert blocks, "README.md has no ```python block"
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % i, "exec"), {})
    # The quick start prints the status first and orbit_in_sides last.
    lines = capsys.readouterr().out.splitlines()
    assert (lines[0], lines[-1]) == ("interior", "True")
