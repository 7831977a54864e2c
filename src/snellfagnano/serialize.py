"""Deterministic JSON emission for reports.

Every float, alone or in a list, is written by one rule, `format_float`:
17 significant digits (`%.17g`), zero of either sign as `0`, and a NaN or
an infinity refused with ValueError.  The stdlib encoder writes floats by
repr() and takes no such rule, so it lends only its string escaping.  Keys
keep insertion order and callers build documents with a fixed field
layout, so identical computations serialize to identical bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring as _escape


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError("non-finite value in report: %r" % x)
    if x == 0.0:
        return "0"
    return "%.17g" % x


def _encode(value: object, indent: str, pad: str) -> str:
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
        # A loop, not a comprehension, so that each level of nesting takes
        # one frame: echoed input may nest as deep as JSON allows.
        items = []
        for v in value:
            items.append(_encode(v, indent, inner))
        return "[" + inner + sep.join(items) + pad + "]"
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


def dumps(doc: object, indent: int = 2) -> str:
    """Serialize a document; indent=0 gives the compact one-line form."""
    if indent:
        return _encode(doc, " " * indent, "\n") + "\n"
    return _encode(doc, "", "")
