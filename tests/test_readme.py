"""The README's Python examples run against the package as it is."""

import json
import os
import re
from decimal import Decimal

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


def _point_example():
    """The abbreviated report README.md shows for `sf point` on
    point_weighted.json, its numbers kept as the strings shown and each
    `[...]` as None."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^sf point --input tests/corpus/point_weighted\.json\n"
                      r"```\n\nreturns \(abbreviated\)\n\n```json\n(.*?)^```$",
                      text, re.DOTALL | re.MULTILINE).group(1)
    return json.loads(block.replace("[...]", "null"), parse_float=str,
                      parse_int=str)


def _compare(shown, golden, numbers):
    """Assert that shown abbreviates golden: each object's keys appear in
    golden's in the same order, lists have golden's length, and each
    number is golden's rounded to the digits shown, which go to numbers."""
    if shown is None:
        return
    if isinstance(shown, dict):
        keys = iter(golden)
        for key in shown:
            assert key in keys, key  # consumes golden's keys up to key
            _compare(shown[key], golden[key], numbers)
    elif isinstance(shown, list):
        assert len(shown) == len(golden)
        for s, g in zip(shown, golden):
            _compare(s, g, numbers)
    elif isinstance(shown, str) and not isinstance(golden, str):
        assert Decimal(golden).quantize(Decimal(shown)) == Decimal(shown), (
            shown, golden)
        numbers.append(shown)
    else:
        assert shown == golden


def test_readme_point_example_abbreviates_the_golden_report():
    """Every key of the README's abbreviated `sf point` report appears in
    tests/corpus/expected/point_weighted.json in the same order, and each
    number shown is the golden value rounded to the digits shown."""
    golden_path = os.path.join(os.path.dirname(__file__), "corpus",
                               "expected", "point_weighted.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    numbers = []
    _compare(_point_example(), golden, numbers)
    assert numbers == ["0.387", "0.323", "0.290", "1.111", "0.75", "1.2",
                       "5.349"]
