"""File and wire I/O shared by every stage.

Writes are atomic and byte-deterministic. `dump_json` writes the bytes of
json.dumps(doc, sort_keys=True, indent=2) through its own writer, since
indent makes json fall back to its slow pure-Python encoder. Every persisted
file is read through `read_json`, `read_json_lines` or `load_json` (which
also checks the format_version and the type of the one top-level container),
so any input that is not UTF-8 JSON of the expected shape raises ParseError;
loaders map the exceptions in `MALFORMED` to ParseError as well.

The record codec reads and writes every persisted record (specs, episodes,
graph nodes and edges, world objects) from its dataclass annotations:
`record_to_json` writes a record as a JSON object keyed by its field names,
and `record_from_json` reads one back. Keys a record has no field for are
ignored, and every field's key is required but one whose default is None. A
str, int, float or bool must be that JSON type (`as_text`, `as_int`,
`as_float`, which widens an int, and `as_bool`), a tuple or list a JSON list
(a fixed tuple of exactly its length), and an np.ndarray a JSON list of
numbers (`as_vector`). A value of another type raises FieldError, whose
message names the path to it (`trajectory[2].visible_object_ids: expected a
list, got str`). Each hint's reader and writer is built once; a list of
records is read a column at a time.
`post_json` is the JSON-over-POST client of the remote encoder, on
`urllib.request`; every fault it meets raises EncoderUnavailable.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import itertools
import json
import operator
import os
import tempfile
import typing
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np

from .errors import EncoderUnavailable, ParseError

FORMAT_VERSION = 1

# What indexing, unpacking and the as_* checks raise on a JSON value of the wrong shape
# (OverflowError: float() of an integer literal too large for a float).
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError)


def as_text(value: object) -> str:
    """value if it is a str; TypeError, one of MALFORMED, otherwise."""
    if isinstance(value, str):
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


def as_object(value: object) -> dict:
    """value if it is a JSON object; TypeError otherwise."""
    if type(value) is dict:
        return value
    raise TypeError(f"expected an object, got {type(value).__name__}")


def as_vector(value: object) -> np.ndarray:
    """value as a float64 vector if it is a JSON list of numbers; TypeError otherwise
    (np.asarray would read "0.5" and true as numbers, null as NaN, and a number)."""
    if type(value) is list and set(map(type, value)) <= {float, int}:
        return np.array(value, dtype=np.float64)
    got = type(value).__name__
    if type(value) is list:
        got = "a list holding " + ", ".join(sorted({t.__name__ for t in map(type, value)} - {"float", "int"}))
    raise TypeError(f"expected a list of numbers, got {got}")


# -- the record codec -------------------------------------------------------------


class FieldError(TypeError):
    """A JSON value of the wrong type; the message starts with the path to it."""


def _under(step: str | int, exc: Exception) -> FieldError:
    """exc, raised reading the value at step (a field name or a list index), with
    step put in front of its path."""
    text = str(exc)
    if not isinstance(exc, FieldError):  # the reason itself: the path ends at step
        text = ": " + text
    elif not text.startswith("["):  # a field name follows
        text = "." + text
    return FieldError((f"[{step}]" if type(step) is int else step) + text)


def record_from_json(cls, doc: object):
    """The cls (a dataclass record, or any hint a record's field has) that a JSON value
    holds; FieldError, naming the path, on a value of the wrong JSON type."""
    return _reader(cls)[0](doc)


def record_to_json(obj) -> dict:
    """The JSON object record_from_json reads obj back from."""
    return _writer(type(obj))(obj)


def _each(read, values) -> list:
    """read of each value, with the index of the one it refuses in the path."""
    items = []
    for i, value in enumerate(values):
        try:
            items.append(read(value))
        except (TypeError, OverflowError) as exc:
            raise _under(i, exc) from None
    return items


_SCALARS = {str: as_text, int: as_int, float: as_float, bool: as_bool, dict: as_object}  # read as themselves


@functools.cache
def _reader(hint) -> tuple:
    """(one, many, exact) for hint. `one` reads a JSON value. `many` reads a list of
    them a column at a time, so that a list of records costs a few passes per field;
    it may raise any of MALFORMED without a path, and the list around it then reads
    the values one by one to name it. `exact` is the JSON type of a value that reads
    as itself, if there is one."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        one = _SCALARS[hint]
        return one, lambda values: values if set(map(type, values)) <= {hint} else list(map(one, values)), hint
    if hint is np.ndarray:
        return as_vector, lambda values: list(map(as_vector, values)), None
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        read = _reader(inner)[0]
        one = lambda value: None if value is None else read(value)  # noqa: E731
        return one, lambda values: list(map(one, values)), None
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = []  # (key, get, one, many); only a key whose default is None may be absent
        for f in dataclasses.fields(hint):
            if f.init:  # a field the record computes from the others is written, not read
                get = operator.itemgetter(f.name) if f.default is not None else operator.methodcaller("get", f.name)
                fields.append((f.name, get, *_reader(hints[f.name])[:2]))

        def one(doc):
            as_object(doc)
            values = []
            for key, get, read, _ in fields:
                try:
                    values.append(read(get(doc)))
                except KeyError:
                    raise FieldError(f"{key}: missing") from None
                except (TypeError, OverflowError) as exc:
                    raise _under(key, exc) from None
            return hint(*values)

        def many(docs):  # one column per field
            return list(map(hint, *(read_many(list(map(get, docs))) for _, get, _, read_many in fields)))

        return one, many, None
    if origin is tuple and Ellipsis not in args:
        ones, _, shape = zip(*map(_reader, args))
        n, exact = len(args), set(shape)

        def one(value):
            if type(value) is list and tuple(map(type, value)) == shape:
                return tuple(value)
            if type(value) is not list or len(value) != n:
                got = f"a list of {len(value)}" if type(value) is list else type(value).__name__
                raise TypeError(f"expected a list of {n}, got {got}")
            return tuple(_each(lambda pair: pair[0](pair[1]), zip(ones, value)))

    elif origin in (list, tuple):
        n, (read_one, read_many, item) = None, _reader(args[0])
        exact = {item}

        def one(value):
            if type(value) is not list:
                raise TypeError(f"expected a list, got {type(value).__name__}")
            try:
                return origin(read_many(value))
            except MALFORMED:
                return origin(_each(read_one, value))

    else:
        raise TypeError(f"no JSON reader for {hint!r}")

    def many(values):  # a few passes over lists that each hold values of one exact type
        if None not in exact and len(exact) == 1 and set(map(type, values)) <= {list}:
            items = itertools.chain.from_iterable(values)
            if (n is None or set(map(len, values)) <= {n}) and set(map(type, items)) <= exact:
                return list(map(origin, values))
        return list(map(one, values))

    return one, many, None


@functools.cache
def _writer(hint):
    """What writes a hint's value as JSON; None where the value is its own JSON."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        names = [f.name for f in dataclasses.fields(hint)]
        converted = [(name, w) for name in names if (w := _writer(hints[name]))]

        def write(record):
            # by name: reading record.__dict__ would give each record a dict of its own,
            # which costs memory and slows every later attribute read
            doc = {name: getattr(record, name) for name in names}
            for key, w in converted:
                doc[key] = w(doc[key])
            return doc

        return write
    if hint is np.ndarray:
        return np.ndarray.tolist
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        write = _writer(inner)
        return write and (lambda value: None if value is None else write(value))
    if origin in (list, tuple):
        item = _writer(args[0]) if origin is list or Ellipsis in args else None
        return (lambda value: list(map(item, value))) if item else list
    return dict if dict in (hint, origin) else None


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
