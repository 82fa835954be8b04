"""Deterministic text embeddings and cosine similarity.

The builtin encoder lowercases the text, extracts character n-grams
(n=3 by default), and feature-hashes them into a fixed-width signed
vector: FNV-1a 64-bit picks the bucket (hash mod dim) and the top hash
bit picks the sign. The result is L2-normalized, so identical strings
always embed identically and unrelated strings are near-orthogonal.
Empty text maps to the zero vector, which scores 0 against everything.

An ASCII text (one byte per character) is hashed as one array: the FNV-1a
state of every gram is a uint64 lane, so each byte step is one xor and one
multiply over all grams (uint64 wraps exactly as the 64-bit mask does), and
np.bincount adds each gram's sign into its bucket. Other text hashes each
distinct gram once and adds sign * count to its bucket. Either way every
bucket holds an integer, so the sums and the squared norm are exact in any
order and the bits match a per-gram loop in text order. Each text's vector is
cached as one read-only float64 array (dim * 8 bytes).

A remote mode posts {"texts": [...]} to an HTTP endpoint and expects
{"embeddings": [[...], ...]} back, one finite vector per input text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EncoderUnavailable, RejectedInput
from .fileio import MALFORMED, as_vector, post_json

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """FNV-1a 64-bit hash; the seed is folded into the offset basis (seed 0 = canonical)."""
    h = _FNV_OFFSET ^ (seed & _MASK64)
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class EncoderConfig:
    mode: str = "builtin"  # "builtin" | "remote"
    dim: int = 256
    ngram: int = 3
    endpoint: str | None = None
    timeout_s: float = 5.0

    def __post_init__(self):
        if self.mode not in ("builtin", "remote"):
            raise RejectedInput(f"unknown encoder mode {self.mode!r}")
        if self.dim < 16:
            raise RejectedInput(f"embedding dim must be >= 16, got {self.dim}")
        if self.ngram < 2:
            raise RejectedInput(f"ngram size must be >= 2, got {self.ngram}")
        if self.mode == "remote" and not self.endpoint:
            raise RejectedInput("remote encoder mode requires an endpoint")


DEFAULT_ENCODER = EncoderConfig()


@lru_cache(maxsize=16384)
def _gram_slot(dim: int, gram: str) -> tuple[int, float]:
    """Bucket and sign of one n-gram; the same grams recur across texts."""
    h = fnv1a_64(gram.encode("utf-8"))
    return h % dim, 1.0 if (h >> 63) == 0 else -1.0


def _ascii_buckets(dim: int, width: int, data: bytes) -> np.ndarray:
    """Signed bucket sums of every width-byte gram of data: FNV-1a of all grams at
    once in uint64 (wrapping as the 64-bit mask does), summed by np.bincount."""
    raw = np.frombuffer(data, dtype=np.uint8)
    count = len(data) - width + 1
    h = np.full(count, _FNV_OFFSET, dtype=np.uint64)
    for k in range(width):
        h ^= raw[k : k + count]
        h *= _FNV_PRIME
    signs = 1.0 - 2.0 * (h >> 63).astype(np.float64)
    return np.bincount((h % dim).astype(np.intp), weights=signs, minlength=dim)


@lru_cache(maxsize=16384)
def _hash_text(dim: int, ngram: int, text: str) -> np.ndarray:
    """Read-only unit vector of text; `encode` hands out copies."""
    lowered = text.lower()
    if not lowered:
        vec = np.zeros(dim)
        vec.flags.writeable = False
        return vec
    # the whole of a text shorter than ngram is its one gram, so non-empty text has unit norm
    width = min(ngram, len(lowered))
    if lowered.isascii():
        vec = _ascii_buckets(dim, width, lowered.encode("ascii"))
    else:
        buckets = [0.0] * dim
        for gram, count in Counter(lowered[i : i + width] for i in range(len(lowered) - width + 1)).items():
            bucket, sign = _gram_slot(dim, gram)
            buckets[bucket] += sign * count
        vec = np.array(buckets)
    norm = math.sqrt(float(vec @ vec))
    if norm == 0.0:
        # Pathological exact sign cancellation across distinct grams; fall back to a
        # single whole-text bucket so non-empty text is always unit norm.
        vec[fnv1a_64(lowered.encode("utf-8"), seed=1) % dim] = 1.0
        norm = 1.0
    vec /= norm
    vec.flags.writeable = False
    return vec


def encode(text: str, config: EncoderConfig = DEFAULT_ENCODER) -> np.ndarray:
    """Embed one text. Builtin mode is pure and deterministic; remote mode may raise
    EncoderUnavailable."""
    if config.mode == "builtin":
        return _hash_text(config.dim, config.ngram, text).copy()
    return encode_batch([text], config)[0]


def encode_batch(texts: list[str], config: EncoderConfig = DEFAULT_ENCODER) -> list[np.ndarray]:
    if config.mode == "builtin":
        return [encode(t, config) for t in texts]
    doc = post_json(config.endpoint, {"texts": list(texts)}, config.timeout_s)
    rows = doc.get("embeddings")
    if not isinstance(rows, list) or len(rows) != len(texts):
        raise EncoderUnavailable(
            f"encoder returned {len(rows) if isinstance(rows, list) else 'no'} rows for {len(texts)} texts"
        )
    out = []
    for row in rows:
        try:
            arr = as_vector(row)
        except MALFORMED as exc:
            raise EncoderUnavailable(f"embedding is not numeric: {exc}") from exc
        if arr.shape[0] != config.dim:
            raise EncoderUnavailable(f"embedding dimension mismatch: got {arr.shape}, want ({config.dim},)")
        if not np.isfinite(arr).all():
            raise EncoderUnavailable("embedding holds NaN or infinity")
        out.append(arr)
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors score 0 against everything."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise RejectedInput(f"dimension mismatch: {a.shape} vs {b.shape}")
    return cosine_from_norms(a, b, float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def cosine_from_norms(a: np.ndarray, b: np.ndarray, norm_a: float, norm_b: float) -> float:
    """cosine(a, b) given both norms: dot(a, b) / (norm_a * norm_b) clamped to [-1, 1],
    and 0 when either norm is 0. Equal norms give cosine()'s bits exactly."""
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(a, b)) / (norm_a * norm_b))))
