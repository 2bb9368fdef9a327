"""Canonical JSON rendering for reports.

Byte-identical output for equal inputs: keys sorted, floats in fixed
scientific notation, negative zero collapsed, LF line ending, ASCII only.
Non-finite floats are rejected; callers encode unbounded results explicitly.
A list whose items are all Python floats (a trajectory's samples, from
``ndarray.tolist``) is checked and written in one pass by the same rule;
every other value is rendered item by item.
"""

from __future__ import annotations

import json
import math

import numpy as np


def canonical_json(obj) -> str:
    parts: list[str] = []
    _render(obj, parts)
    parts.append("\n")
    return "".join(parts)


def _render(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite float has no canonical encoding")
        if x == 0.0:
            x = 0.0
        parts.append(format(x, ".12e"))
    elif isinstance(obj, (complex, np.complexfloating)):
        _render([float(obj.real), float(obj.imag)], parts)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)) and obj and all(type(item) is float for item in obj):
        # the float rule above, in one pass; x + 0.0 turns -0.0 into 0.0 and
        # leaves every other float as it is
        if not all(map(math.isfinite, obj)):
            raise ValueError("non-finite float has no canonical encoding")
        parts.append("[" + ",".join([format(x + 0.0, ".12e") for x in obj]) + "]")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _render(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key).__name__}")
            if k:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(":")
            _render(obj[key], parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} canonically")
