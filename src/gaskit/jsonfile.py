"""The one reader of the JSON files that fix a run (curve, Harn modulus,
scenario), from outside (`read_json`) or from ``gaskit/data`` (`read_builtin`).
It reads strict UTF-8 and refuses a file over `MAX_FILE_BYTES` before parsing
it, or one nested too deeply to parse, with a ValueError that names the file.
"""

from __future__ import annotations

import json
from importlib import resources

__all__ = ["MAX_FILE_BYTES", "read_json", "read_builtin", "json_int", "json_object", "json_str"]

MAX_FILE_BYTES = 64 * 1024  # a 2048-bit Harn modulus file takes under 2 KiB


def read_json(path) -> object:
    with open(path, "rb") as fh:
        return _parse(fh, str(path))


def read_builtin(filename: str) -> object:
    with resources.files("gaskit.data").joinpath(filename).open("rb") as fh:
        return _parse(fh, filename)


def _parse(fh, name: str) -> object:
    data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"{name}: file is larger than {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None


def json_int(value: object, name: str) -> int:
    """An integer read from a JSON file: an int, or the decimal string of one.

    The string form is what the writers emit, ``str(n)``: ASCII digits with
    an optional leading minus sign.  Anything else raises ValueError,
    including the floats and booleans that ``int()`` would silently truncate
    or coerce (``1.9`` -> 1, ``true`` -> 1).
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value[1:] if value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"{name} must be an integer or a decimal string, got {value!r}")


# The shapes around those integers.  Each raises ValueError, never the
# KeyError, TypeError or AttributeError that indexing or unpacking the
# wrong shape would.  An optional key counts as absent only when it is
# missing or null: readers test ``data.get(key) is None``.

def json_object(
    value: object, name: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """A JSON object with every key in `required` and no key outside `required`
    and `optional`: a misspelled optional key is refused, not read as absent."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} missing fields: {missing}")
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{name} has unknown fields: {unknown}")
    return value


def json_str(value: object, name: str) -> str:
    """A JSON string, such as a curve's name."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value
