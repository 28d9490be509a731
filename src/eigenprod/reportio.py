"""Deterministic report serialization and atomic file output.

JSON is the source-of-truth report format: keys sorted, two-space
indent, floats in their shortest round-trip ``repr``, no NaN or infinity
ever serialized.  :func:`canonical_json` writes the bytes of
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` from
json's C encoder, which ``json.dumps`` itself uses only without an
indent.  Identical in-memory reports therefore produce byte-identical
files.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile

from .errors import ParameterError

__all__ = [
    "canonical_json",
    "atomic_write_text",
    "atomic_write_bytes",
    "load_json",
    "diff_paths",
]

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys and a final newline, the
    bytes of ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``.
    Raises :class:`ParameterError` on a non-finite float, a dict key that
    is not a str (which ``json.dumps`` would convert) or a value JSON
    cannot hold."""
    chunks: list = []
    try:
        _encode(obj, 0, chunks, set())
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cannot serialize the report: {exc}") from exc
    chunks.append("\n")
    return "".join(chunks)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder, writing the items of a container at ``depth`` one
    per line at depth + 1; its output lacks only the line breaks after the
    opening and before the closing bracket."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + _INDENT * (depth + 1), ": "))


def _holds_no_container(values) -> bool:
    """Whether no value is a dict, list or tuple, from their set of types."""
    kinds = set(map(type, values))
    return kinds <= _SCALARS or not any(issubclass(kind, _CONTAINERS) for kind in kinds)


def _encode(obj, depth: int, chunks: list, open_ids: set) -> None:
    """Append the JSON of ``obj``, nested ``depth`` levels deep, to
    ``chunks``.  A container of scalars, and a list of non-empty lists of
    scalars, take one C encoder call each; Python walks only the nesting
    above them."""
    encoder = _encoder(depth)
    if not isinstance(obj, _CONTAINERS):
        chunks.append(encoder.encode(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        chunks.append("{}" if is_dict else "[]")
        return
    if is_dict:
        for kind in set(map(type, obj)) - {str}:
            if not issubclass(kind, str):
                raise TypeError(f"keys must be str, not {kind.__name__}")
    inner = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth + ("}" if is_dict else "]")
    items = obj.values() if is_dict else obj
    if _holds_no_container(items):
        text = encoder.encode(obj)
        chunks += (text[0], inner, text[1:-1], close)
        return
    if not is_dict and set(map(type, obj)) <= {list, tuple} and all(map(len, obj)) \
            and _holds_no_container(itertools.chain.from_iterable(obj)):
        # rows: the C encoder puts every item at depth + 2, and only the
        # rows' own brackets need lines of their own.  "],\n<indent>[" can
        # only be a row boundary, since JSON escapes a raw newline
        deeper = "\n" + _INDENT * (depth + 2)
        text = _encoder(depth + 1).encode(obj)
        body = text[2:-2].replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
        chunks += ("[", inner, "[", deeper, body, inner, "]", close)
        return
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    separator = ("{" if is_dict else "[") + inner
    if is_dict:
        for key in sorted(obj):
            chunks += (separator, encoder.encode(key), ": ")
            _encode(obj[key], depth + 1, chunks, open_ids)
            separator = "," + inner
    else:
        for item in obj:
            chunks.append(separator)
            _encode(item, depth + 1, chunks, open_ids)
            separator = "," + inner
    chunks.append(close)
    open_ids.discard(id(obj))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, *parts) -> None:
    """Write the bytes-like ``parts`` one after another to a temporary file
    beside ``path``, then move it onto ``path``: readers see the old file
    or the whole new one, never a part."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-eigenprod-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
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
