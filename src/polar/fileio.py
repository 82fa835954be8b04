"""File and wire I/O shared by every stage.

Writes are atomic and byte-deterministic. `dump_json` writes the bytes of
json.dumps(doc, sort_keys=True, indent=2) through its own writer, since
indent makes json fall back to its slow pure-Python encoder. Every persisted
file is read through `read_json`, `read_json_lines` or `load_json` (which
also checks the format_version and the type of the one top-level container),
so any input that is not UTF-8 JSON of the expected shape raises ParseError;
record parsers map the exceptions in `MALFORMED` to ParseError as well, and
check that their text and id fields are strings, their flags booleans and
their numbers JSON numbers (mostly through `as_text`, `as_bool`, `as_int` and
`as_float`).
`post_json` is the JSON-over-POST client of the remote encoder, on
`urllib.request`; every fault it meets raises EncoderUnavailable.
"""

from __future__ import annotations

import http.client
import json
import os
import tempfile
import urllib.error
import urllib.request
from contextlib import contextmanager

from .errors import EncoderUnavailable, ParseError

FORMAT_VERSION = 1

# What indexing, unpacking and the as_* checks raise on a JSON value of the wrong shape
# (OverflowError: float() of an integer literal too large for a float).
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError)


def as_text(value: object, optional: bool = False) -> str | None:
    """value if it is a str (or None, where optional); TypeError, one of MALFORMED, otherwise."""
    if isinstance(value, str) or (optional and value is None):
        return value
    raise TypeError(f"expected a string, got {type(value).__name__} {value!r}")


def as_bool(value: object) -> bool:
    """value if it is a JSON boolean; TypeError, one of MALFORMED, otherwise (bool() would read "false" as true)."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected a boolean, got {type(value).__name__} {value!r}")


def as_int(value: object) -> int:
    """value if it is a JSON integer; TypeError, one of MALFORMED, otherwise (int() would read "12" and 12.9)."""
    if type(value) is int:
        return value
    raise TypeError(f"expected an integer, got {type(value).__name__} {value!r}")


def as_float(value: object) -> float:
    """value as a float if it is a JSON number; TypeError, one of MALFORMED, otherwise (float() would read "0.5")."""
    if type(value) in (float, int):
        return float(value)
    raise TypeError(f"expected a number, got {type(value).__name__} {value!r}")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key: object) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _render(value: object, indent: str, out: list) -> None:
    """Append the text json.dumps(value, sort_keys=True, indent=2) gives value to
    out, with its nested lines starting at indent. The checks run in the order
    json's encoder runs them, so every value renders as it does there."""
    if isinstance(value, str):
        out.append(_ESCAPE(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if isinstance(value[0], float):  # an embedding or a position: one join, unless a NaN or inf is in it
            try:
                text = sep.join(map(float.__repr__, value))
            except TypeError:  # a value further on is not a float
                text = None
            if text is not None and "n" not in text:  # repr spells NaN and inf otherwise
                out.append(text)
                out.append("\n" + indent + "]")
                return
        for i, item in enumerate(value):
            if i:
                out.append(sep)
            _render(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, (key, item) in enumerate(sorted(value.items())):
            if i:
                out.append(sep)
            out.append(_ESCAPE(_key_text(key)) + ": ")
            _render(item, inner, out)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def render_json(doc: object) -> str:
    """json.dumps(doc, sort_keys=True, indent=2), byte for byte; TypeError, with
    json's message, on a value json cannot write."""
    out: list[str] = []
    _render(doc, "", out)
    return "".join(out)


def dump_json(path: str, doc: object) -> None:
    atomic_write_text(path, render_json(doc) + "\n")


@contextmanager
def _json_faults(line: int | None = None):
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line or exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # integer literals past the digit limit, deep nesting
        raise ParseError(f"unreadable JSON: {exc}", line) from exc


def read_json(path: str) -> object:
    """The JSON value a UTF-8 file holds."""
    with open(path, encoding="utf-8") as fh, _json_faults():
        return json.load(fh)


def read_json_lines(path: str):
    """Yield (line number, JSON value) for each non-blank line of a UTF-8 file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                with _json_faults(lineno):
                    doc = json.loads(raw.decode("utf-8"))
                yield lineno, doc


def check_version(doc: object, what: str) -> dict:
    """doc, once it is known to be an object of the current format_version."""
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported or missing {what} format_version")
    return doc


def load_json(path: str, key: str, container: type) -> dict | list:
    """The `key` container of a versioned file {"format_version": 1, key: ...}."""
    doc = check_version(read_json(path), f"{key!r} file")
    if key not in doc:
        raise ParseError(f"file has no top-level {key!r}")
    if not isinstance(doc[key], container):
        raise ParseError(f"{key!r} must be a JSON {'object' if container is dict else 'list'}")
    return doc[key]


def post_json(url: str, payload: dict, timeout_s: float) -> dict:
    """POST payload as JSON to url and return the reply object; any fault raises
    EncoderUnavailable."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:  # every non-2xx status
        raise EncoderUnavailable(f"{url} returned HTTP {exc.code}") from exc
    except (OSError, http.client.HTTPException) as exc:  # HTTPException: a reply that is not HTTP
        raise EncoderUnavailable(f"{url} unreachable: {exc}") from exc
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise EncoderUnavailable(f"{url} returned a body that is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise EncoderUnavailable(f"{url} returned {type(doc).__name__}, not a JSON object")
    return doc
