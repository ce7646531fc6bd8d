"""The one way corrlab reads an input file, and a config section in it.

Whatever goes wrong becomes a data error that names the file:
``CorruptData`` when it cannot be read (missing, a directory, no
permission), is not UTF-8 text or not JSON, or lacks a key or a
well-typed value; ``UnsupportedVersion`` when its format or version tag
is foreign.  The command line exits 3 on both, and 2 on the
``ConfigError`` of a config section that breaks its rules.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

from .exceptions import (ConfigError, CorruptData, InvalidInput,
                         UnsupportedVersion)


def read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CorruptData(f"cannot read {path}: {exc.strerror}") from None


def read_text(path) -> str:
    return _decode(read_bytes(path), path)


def _decode(data: bytes, what) -> str:
    try:
        return data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise CorruptData(f"{what} is not UTF-8 text: {exc}") from None


def parse_json(data: bytes, what):
    """The JSON value in the UTF-8 ``data``; ``CorruptData`` naming
    ``what`` unless it is one."""
    try:
        return json.loads(_decode(data, what))
    except (ValueError, RecursionError) as exc:
        raise CorruptData(f"{what} is not JSON: {exc}") from None


def read_json(path, what=None):
    return parse_json(read_bytes(path), what or path)


def read_object(path, what=None, tags=None, **checks) -> dict:
    """The JSON object in the file at ``path``, checked by ``require``."""
    return require(read_json(path, what), what or path, tags, **checks)


def require(obj, what, tags=None, **checks) -> dict:
    """``obj`` when it is a JSON object holding each value of ``tags`` at
    its key and every key of ``checks`` with a value that passes the key's
    predicate.  Otherwise ``UnsupportedVersion`` for a foreign tag and
    ``CorruptData`` for the rest, naming ``what``."""
    if not isinstance(obj, dict):
        raise CorruptData(f"{what} must be a JSON object")
    for key, value in (tags or {}).items():
        if obj.get(key) != value:
            raise UnsupportedVersion(f"unsupported {what} {key} "
                                     f"{obj.get(key)!r}; this build reads "
                                     f"{value!r}")
    missing = [key for key in checks if key not in obj]
    if missing:
        raise CorruptData(f"{what} is missing {', '.join(missing)}")
    for key, check in checks.items():
        if not check(obj[key]):
            raise CorruptData(f"{what} {key} must be {check.text}, not "
                              f"{obj[key]!r}")
    return obj


def config(cls, obj, what, required=(), error=ConfigError, **lows):
    """``cls(**obj)`` checked by ``integers`` with ``lows``; ``error`` naming
    ``what`` unless ``obj`` is a JSON object holding every key of
    ``required`` and every parameter of ``cls`` without a default, no key
    ``cls`` does not take, and values that ``cls`` and ``integers`` accept."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    params = inspect.signature(cls).parameters
    needed = [key for key, p in params.items() if p.default is p.empty]
    missing = [key for key in (*required, *needed) if key not in obj]
    if missing:
        raise error(f"{what} lacks {missing}")
    unknown = sorted(set(obj) - set(params))
    if unknown:
        raise error(f"{what} holds unknown keys {unknown}")
    try:
        return integers(cls(**obj), ConfigError, **lows)
    except (ConfigError, InvalidInput) as exc:
        raise error(f"{what}: {exc}") from None


def integers(obj, error, **lows):
    """``obj``; ``error`` naming the first attribute of ``obj`` in ``lows``
    that is not an integer, or is below its low when that is not None."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not is_int(value) or (low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise error(f"{name} must be an integer{bound}, not {value!r}")
    return obj


def predicate(text, test):
    """``test``, which ``require`` names by the noun phrase ``text``."""
    test.text = text
    return test


is_int = predicate("an integer", lambda x: isinstance(x, int)
                   and not isinstance(x, bool))
is_count = predicate("an integer >= 0", lambda x: is_int(x) and x >= 0)
is_number = predicate("a number", lambda x: isinstance(x, (int, float))
                      and not isinstance(x, bool))
is_str = predicate("a string", lambda x: isinstance(x, str))
is_bool = predicate("true or false", lambda x: isinstance(x, bool))
is_object = predicate("a JSON object", lambda x: isinstance(x, dict))
is_list = predicate("a list", lambda x: isinstance(x, list))
