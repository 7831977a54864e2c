import math

import pytest

from snellfagnano import serialize

DOC = {
    "s": 'say "hi" \\ back\nslash\ttab\x01 café → \U0001d70b',
    "-0": -0.0,
    "f": [1.5, 0.1, -2, True, False, None],
    "nest": {"a": [[], {}, [{"b": (1, 2.0)}]]},
}

COMPACT = ('{"s":"say \\"hi\\" \\\\ back\\nslash\\ttab\\u0001 café '
           '→ \U0001d70b","-0":0,"f":[1.5,0.10000000000000001,-2,true,'
           'false,null],"nest":{"a":[[],{},[{"b":[1,2]}]]}}')

INDENTED = """{
  "s": "say \\"hi\\" \\\\ back\\nslash\\ttab\\u0001 café → \U0001d70b",
  "-0": 0,
  "f": [
    1.5,
    0.10000000000000001,
    -2,
    true,
    false,
    null
  ],
  "nest": {
    "a": [
      [],
      {},
      [
        {
          "b": [
            1,
            2
          ]
        }
      ]
    ]
  }
}
"""


def test_dumps_pins_bytes():
    assert serialize.dumps(DOC, indent=0) == COMPACT
    assert serialize.dumps(DOC) == INDENTED


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dumps_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        serialize.dumps({"x": [bad]})
