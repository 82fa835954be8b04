import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar.errors import EncoderUnavailable, ParseError
from polar.fileio import as_float, as_int, dump_json, load_json, post_json, read_json, read_json_lines, render_json


def test_post_json_returns_reply_object(stub):
    url = stub.reply("/echo", {"ok": [1, 2]})
    assert post_json(url, {"q": "x"}, 5.0) == {"ok": [1, 2]}
    assert stub.requests == [("/echo", {"q": "x"})]


@pytest.mark.parametrize(
    "status, body",
    [
        (404, {}),
        (302, {}),  # a redirect without a Location is a non-2xx status like any other
        (200, b"\xff\xfe not utf-8"),
        (200, [1, 2]),  # JSON, but not an object
        (None, b"garbage\r\n\r\n"),  # a raw reply with no HTTP status line
    ],
)
def test_post_json_raises_callers_error(stub, status, body):
    url = stub.reply("/bad", body, status)
    with pytest.raises(EncoderUnavailable):
        post_json(url, {}, 5.0)


def test_post_json_connection_refused(refused_url):
    with pytest.raises(EncoderUnavailable, match="unreachable"):
        post_json(refused_url, {}, 5.0)


def test_post_json_times_out_on_a_silent_listener(silent_url):
    started = time.monotonic()
    with pytest.raises(EncoderUnavailable):
        post_json(silent_url, {"texts": ["a"]}, 0.2)
    assert time.monotonic() - started < 5.0


def test_cli_import_leaves_requests_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, polar.cli; sys.exit('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_readers_map_decode_faults_to_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8"):
        read_json(str(path))
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(ParseError):
        read_json(str(path))
    path.write_text('{\n  "a": 1,\n}')
    with pytest.raises(ParseError) as err:
        read_json(str(path))
    assert err.value.line == 3


def test_read_json_lines_numbers_lines_and_skips_blanks(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n[2]\n')
    assert list(read_json_lines(str(path))) == [(1, {"a": 1}), (3, [2])]
    path.write_bytes(b'{"a": 1}\n\n\xff\n')
    with pytest.raises(ParseError) as err:
        list(read_json_lines(str(path)))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format_version": 2, "specs": []}', "format_version"),
        ("[]", "format_version"),
        ('{"format_version": 1}', "'specs'"),
        ('{"format_version": 1, "specs": {}}', "'specs' must be a JSON list"),
    ],
)
def test_load_json_checks_version_key_and_container(tmp_path, text, message):
    path = tmp_path / "specs.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_json(str(path), "specs", list)


_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-7, 1e16])
_text = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(["\x00\x1f\t\n\"\\", "Zürich ☃ 𝄞"])
_scalars = (
    st.none() | st.booleans() | st.integers() | _floats | _floats.map(np.float64) | _text
)
_documents = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(_floats, min_size=1, max_size=6)  # a run of floats, the embedding shape
        | st.dictionaries(_text, children, max_size=5)
    ),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_documents)
def test_render_json_equals_sorted_indent_2_dumps(doc):
    assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "doc",
    [np.int64(3), {3, 4}, [1.0, np.int64(3)], {"a": [{"b": {1}}]}, {"k": np.float32(1.5)}, {(1, 2): 1}],
)
def test_render_json_raises_json_type_error(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        render_json(doc)
    assert str(got.value) == str(expected.value)


def test_dump_json_writes_the_rendering_and_a_newline(tmp_path):
    doc = {"b": [0.1, 2.5e-08, float("nan")], "a": {"x": (1, None, True)}, "c": "é"}
    path = tmp_path / "doc.json"
    dump_json(str(path), doc)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("value", [True, False, "12", "0.5", 12.0, 12.9, None, [1], {}])
def test_as_int_takes_only_json_integers(value):
    assert as_int(7) == 7 and type(as_int(-3)) is int
    with pytest.raises(TypeError):
        as_int(value)


@pytest.mark.parametrize("value", [True, False, "12", "0.5", None, [0.5], {}])
def test_as_float_takes_only_json_numbers(value):
    assert as_float(0.5) == 0.5
    assert as_float(3) == 3.0 and type(as_float(3)) is float
    with pytest.raises(TypeError):
        as_float(value)
