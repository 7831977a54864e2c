"""Deterministic JSON emission for reports.

The stdlib encoder uses repr() for floats, whose output is already
deterministic, but we want a single fixed rule (17 significant digits,
no negative zero, no NaN/inf) so that identical computations always
serialize to identical bytes regardless of interpreter details.  Keys
keep insertion order; callers build documents with a fixed field layout.
"""

from __future__ import annotations

import math
from functools import lru_cache
from json.encoder import encode_basestring as _escape
from typing import Any


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError("non-finite value in report: %r" % x)
    if x == 0.0:
        return "0"
    return "%.17g" % x


@lru_cache(maxsize=256)
def _float_list_format(n: int, sep: str) -> str:
    return sep.join(("%.17g",) * n)


_FLOAT = frozenset((float,))


def _encode(value: Any, indent: str, pad: str) -> str:
    """The text of value, its container lines starting with pad (a newline
    and the current indentation, or "" in the compact form)."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _escape(value)
    inner = pad + indent
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Nonzero floats whose sum is finite are all finite and print as
        # "%.17g"; zero and non-finite values take format_float's path.
        if (_FLOAT.issuperset(map(type, value)) and 0.0 not in value
                and math.isfinite(sum(value))):
            body = _float_list_format(len(value), sep) % tuple(value)
        else:
            # A loop, not a comprehension, so that each level of nesting
            # takes one frame: echoed input may nest as deep as JSON allows.
            items = []
            for v in value:
                items.append(_encode(v, indent, inner))
            body = sep.join(items)
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        colon = ": " if indent else ":"
        items = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError("non-string key: %r" % (k,))
            items.append(_escape(k) + colon + _encode(v, indent, inner))
        return "{" + inner + sep.join(items) + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    raise TypeError("cannot serialize %r" % type(value))


def dumps(doc: Any, indent: int = 2) -> str:
    """Serialize a document; indent=0 gives the compact one-line form."""
    if indent:
        return _encode(doc, " " * indent, "\n") + "\n"
    return _encode(doc, "", "")
