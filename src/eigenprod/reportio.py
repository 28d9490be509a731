"""Deterministic report serialization and atomic file output.

JSON is the source-of-truth report format: keys sorted, floats printed
with up to 17 significant digits (round-trip exact), no NaN or infinity
ever serialized.  Identical in-memory reports therefore produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

from .errors import ParameterError

__all__ = [
    "format_float",
    "canonical_json",
    "atomic_write_text",
    "atomic_write_bytes",
    "load_json",
    "diff_paths",
]


def format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ParameterError("refusing to serialize a non-finite float")
    text = format(value, ".17g")
    if "e" not in text and "E" not in text and "." not in text:
        text += ".0"  # keep the value a float on reload
    return text


def _serialize(obj, pieces: list, indent: int):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise ParameterError("report keys must be strings")
        pieces.append("{\n")
        for i, key in enumerate(keys):
            pieces.append("  " * (indent + 1))
            pieces.append(json.dumps(key, ensure_ascii=True))
            pieces.append(": ")
            _serialize(obj[key], pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append("  " * (indent + 1))
            _serialize(item, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    else:
        raise ParameterError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    pieces: list = []
    _serialize(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, blob: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-eigenprod-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def diff_paths(one, other, prefix: str = "") -> list:
    """Paths at which two JSON-like structures differ (exact comparison)."""
    if type(one) is not type(other):
        return [prefix or "<root>"]
    if isinstance(one, dict):
        out = []
        for key in sorted(set(one) | set(other)):
            if key not in one or key not in other:
                out.append(f"{prefix}.{key}")
            else:
                out.extend(diff_paths(one[key], other[key], f"{prefix}.{key}"))
        return out
    if isinstance(one, list):
        if len(one) != len(other):
            return [f"{prefix}#len"]
        out = []
        for i, (a, b) in enumerate(zip(one, other)):
            out.extend(diff_paths(a, b, f"{prefix}[{i}]"))
        return out
    return [] if one == other else [prefix or "<root>"]
