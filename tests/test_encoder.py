import math
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polar.encoder import DEFAULT_ENCODER, EncoderConfig, _hash_text, cosine, encode, encode_batch, fnv1a_64
from polar.errors import EncoderUnavailable, RejectedInput
from polar.graph import THETA_DEDUP


def test_fnv1a_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fnv1a_seed_changes_hash():
    assert fnv1a_64(b"abc", seed=1) != fnv1a_64(b"abc")


def _reference_hash_text(dim, ngram, text):
    """The per-gram loop: hash every gram with fnv1a_64, accumulate signs in text order."""
    lowered = text.lower()
    if not lowered:
        return (0.0,) * dim
    grams = [lowered] if len(lowered) < ngram else [lowered[i : i + ngram] for i in range(len(lowered) - ngram + 1)]
    vec = [0.0] * dim
    for gram in grams:
        h = fnv1a_64(gram.encode("utf-8"))
        vec[h % dim] += 1.0 if (h >> 63) == 0 else -1.0
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        vec[fnv1a_64(lowered.encode("utf-8"), seed=1) % dim] = 1.0
        norm = 1.0
    return tuple(v / norm for v in vec)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(),  # random Unicode, including characters whose lowercase is longer
        st.text(alphabet="aAbBİßΣς ", max_size=12),  # mixed case, repeated grams
        st.text(max_size=4),  # empty and shorter than n
        st.text(alphabet=string.printable, max_size=400),  # ASCII: hashed as one array
        st.text(alphabet="abAB ", max_size=6),  # short ASCII with few distinct grams
    ),
    st.sampled_from([(16, 2), (64, 3), (256, 3), (256, 5)]),
)
@example("", (64, 3))
@example("ab", (64, 3))  # shorter than n: the whole text is its one gram
@example("İstanbul café", (256, 3))
@example("ABBM", (64, 3))  # its two grams cancel: the whole-text fallback bucket
@example("find my red mug " * 40, (256, 3))
def test_hash_text_matches_per_gram_reference(text, dim_ngram):
    dim, ngram = dim_ngram
    got = np.array(_hash_text(dim, ngram, text))
    assert got.tobytes() == np.array(_reference_hash_text(dim, ngram, text)).tobytes()


def test_hash_text_falls_back_to_one_bucket_when_signs_cancel():
    want = np.zeros(64)
    want[fnv1a_64(b"abbm", seed=1) % 64] = 1.0
    assert _hash_text(64, 3, "abbm").tobytes() == want.tobytes()


def test_hash_text_caches_read_only_float64_array():
    vec = _hash_text(64, 3, "find my red mug")
    assert isinstance(vec, np.ndarray) and vec.dtype == np.float64
    assert vec.nbytes == 64 * 8
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 1.0


def test_encode_returns_writable_copy():
    cfg = EncoderConfig(dim=64)
    v = encode("find my red mug", cfg)
    want = v.copy()
    assert v.flags.writeable
    v[:] = 0.0
    assert np.array_equal(encode("find my red mug", cfg), want)


def test_encode_unit_norm_and_shape():
    v = encode("find my red mug")
    assert v.shape == (256,)
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)


def test_encode_deterministic_and_case_insensitive():
    a = encode("Find My Red MUG")
    b = encode("find my red mug")
    assert np.array_equal(a, b)
    assert np.array_equal(encode("find my red mug"), b)


def test_encode_empty_is_zero_vector():
    v = encode("")
    assert not v.any()
    assert cosine(v, encode("anything")) == 0.0


def test_encode_short_text_still_unit():
    v = encode("ab", EncoderConfig(ngram=3))
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)


def test_encode_respects_dim():
    assert encode("hello world", EncoderConfig(dim=64)).shape == (64,)


def test_similar_texts_score_higher_than_unrelated():
    mug = encode("red mug")
    mug_desk = encode("red mug on the desk")
    vase = encode("blue vase")
    assert cosine(mug, mug_desk) > cosine(mug, vase)


def test_statement_margins_around_dedup_threshold():
    # the whole memory design leans on these: same fact about a different
    # object id dedups; a changed value keeps its own node
    a = "user: color = crimson refers to mug mug_01"
    b = "user: color = crimson refers to mug mug_02"
    c = "user: color = teal refers to mug mug_01"
    assert cosine(encode(a), encode(b)) >= THETA_DEDUP
    assert cosine(encode(a), encode(c)) < THETA_DEDUP


def test_cosine_basics():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert cosine(e0, e0) == 1.0
    assert cosine(e0, e1) == 0.0
    assert cosine(e0, -e0) == -1.0
    assert cosine(e0, np.zeros(3)) == 0.0


def test_cosine_shape_mismatch_rejected():
    with pytest.raises(RejectedInput):
        cosine(np.ones(3), np.ones(4))


def test_config_validation():
    with pytest.raises(RejectedInput):
        EncoderConfig(mode="quantum")
    with pytest.raises(RejectedInput):
        EncoderConfig(dim=8)
    with pytest.raises(RejectedInput):
        EncoderConfig(ngram=1)
    with pytest.raises(RejectedInput):
        EncoderConfig(mode="remote")  # endpoint missing


def test_remote_encode_happy_path(stub):
    rows = [[1.0] + [0.0] * 15, [0.0, 1.0] + [0.0] * 14]
    cfg = EncoderConfig(mode="remote", dim=16, endpoint=stub.reply("/embed", {"embeddings": rows}))
    out = encode_batch(["a", "b"], cfg)
    assert stub.requests == [("/embed", {"texts": ["a", "b"]})]
    assert np.array_equal(out[0], np.array(rows[0]))
    assert np.array_equal(out[1], np.array(rows[1]))


@pytest.mark.parametrize(
    "resp",
    [
        (500, {"embeddings": []}),
        (200, b"no json"),
        (200, {"wrong": []}),
        (200, {"embeddings": [[1.0] * 16]}),  # 1 row for 2 texts
        (200, {"embeddings": [[1.0] * 4, [1.0] * 4]}),  # wrong dim
        (200, {"embeddings": [["a"] * 16, ["a"] * 16]}),  # rows of strings
        (200, {"embeddings": [["0.25"] * 16, ["0.25"] * 16]}),  # rows of quoted numbers
        (200, {"embeddings": [[True] + [False] * 15, [False, True] + [False] * 14]}),  # rows of booleans
        (200, {"embeddings": [[float("nan")] * 16, [float("inf")] * 16]}),  # non-finite rows
    ],
)
def test_remote_encode_bad_responses(stub, resp):
    status, body = resp
    cfg = EncoderConfig(mode="remote", dim=16, endpoint=stub.reply("/embed", body, status))
    with pytest.raises(EncoderUnavailable):
        encode_batch(["a", "b"], cfg)


def test_remote_encode_connection_error(refused_url):
    cfg = EncoderConfig(mode="remote", dim=16, endpoint=refused_url)
    with pytest.raises(EncoderUnavailable):
        encode("a", cfg)


@settings(max_examples=50, derandomize=True)
@given(st.text(min_size=1, max_size=40))
def test_encode_always_unit_norm(text):
    v = encode(text, DEFAULT_ENCODER)
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-9)


@settings(max_examples=50, derandomize=True)
@given(st.text(max_size=40), st.text(max_size=40))
def test_cosine_symmetric_and_bounded(a, b):
    va, vb = encode(a), encode(b)
    s = cosine(va, vb)
    assert -1.0 <= s <= 1.0
    assert math.isclose(s, cosine(vb, va), abs_tol=1e-12)
