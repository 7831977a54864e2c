import math

import pytest
from hypothesis import given, settings, strategies as st

from snellfagnano import serialize

from oracles import reference_dumps

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


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 0.1]))
ESCAPED = st.sampled_from(['"', "\\", "\n", "\t", "\x01", "\x7f", "\u2028",
                           "caf\u00e9", "\U0001d70b", ""])
SCALARS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(),
                    st.text(max_size=8), ESCAPED)
FLOAT_LISTS = st.one_of(st.lists(FLOATS, max_size=5),
                        st.lists(FLOATS, max_size=5).map(tuple))
KEYS = st.one_of(st.text(max_size=6), ESCAPED)
DOCS = st.recursive(
    st.one_of(SCALARS, FLOAT_LISTS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_dumps_matches_the_reference_serializer(doc):
    for indent in (0, 2):
        assert serialize.dumps(doc, indent=indent) == \
            reference_dumps(doc, indent=indent)


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS, max_size=4), st.integers(0, 4),
       st.sampled_from([math.inf, -math.inf, math.nan]), st.booleans())
def test_non_finite_in_a_float_list_raises_as_the_reference(
        values, at, bad, as_tuple):
    values.insert(min(at, len(values)), bad)
    doc = {"v": tuple(values) if as_tuple else values}
    for indent in (0, 2):
        with pytest.raises(ValueError) as ours:
            serialize.dumps(doc, indent=indent)
        with pytest.raises(ValueError) as ref:
            reference_dumps(doc, indent=indent)
        assert str(ours.value) == str(ref.value)
