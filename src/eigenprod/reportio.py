"""Deterministic report serialization and atomic file output.

JSON is the source-of-truth report format, written by ``json.dumps``:
keys sorted, two-space indent, floats in their shortest round-trip
``repr``, no NaN or infinity ever serialized.  Identical in-memory
reports therefore produce byte-identical files.
"""

from __future__ import annotations

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


def canonical_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys and a final newline.
    Raises :class:`ParameterError` on a non-finite float or a value JSON
    cannot hold."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cannot serialize the report: {exc}") from exc


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
