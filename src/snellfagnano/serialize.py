"""Deterministic JSON emission for reports.

The stdlib encoder uses repr() for floats, whose output is already
deterministic, but we want a single fixed rule (17 significant digits,
no negative zero, no NaN/inf) so that identical computations always
serialize to identical bytes regardless of interpreter details.  Keys
keep insertion order; callers build documents with a fixed field layout.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring as _escape
from typing import Any


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError("non-finite value in report: %r" % x)
    if x == 0.0:
        return "0"
    return "%.17g" % x


def _emit(value: Any, parts: list, indent: str, level: int) -> None:
    pad = indent * (level + 1)
    close_pad = indent * level
    nl = "\n" if indent else ""
    sep = "," + nl
    colon = ": " if indent else ":"
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{" + nl)
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError("non-string key: %r" % (k,))
            if i:
                parts.append(sep)
            parts.append(pad + _escape(k) + colon)
            _emit(v, parts, indent, level + 1)
        parts.append(nl + close_pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            parts.append("[]")
            return
        parts.append("[" + nl)
        for i, v in enumerate(seq):
            if i:
                parts.append(sep)
            parts.append(pad)
            _emit(v, parts, indent, level + 1)
        parts.append(nl + close_pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(value))


def dumps(doc: Any, indent: int = 2) -> str:
    """Serialize a document; indent=0 gives the compact one-line form."""
    parts: list = []
    _emit(doc, parts, " " * indent if indent else "", 0)
    return "".join(parts) + ("\n" if indent else "")
