"""Collision-resistant hashing for block identifiers.

We use BLAKE2b (from :mod:`hashlib`) truncated to 16 bytes, rendered as hex.
The paper's H(.) maps arbitrary input to a fixed-size digest; 128 bits is
ample for simulation-scale collision resistance while keeping identifiers
readable in traces.

:func:`hash_fields` is the hottest crypto primitive in the simulator: every
signature tag, threshold-share tag, block id and coin value goes through
it.  It is one single-pass encoder with no memo.  Each field becomes a
length-prefixed part of one flat list, which is joined once and hashed.
The per-field bytes are ``repr(field).encode("utf-8")`` (ints take a
byte-identical ``b"%d"`` fast path), so digests, and therefore block ids
and common-coin leader elections, are stable across versions.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

#: Modeled wire size of a digest, in bytes (we model a 32-byte digest on the
#: wire even though the in-memory hex id is truncated for readability).
DIGEST_WIRE_SIZE = 32

Digest = str

_blake2b = hashlib.blake2b


def hash_bytes(data: bytes) -> Digest:
    """Hash raw bytes to a hex digest."""
    return _blake2b(data, digest_size=16).hexdigest()


# Sequence markers, pre-encoded.  They delimit (possibly nested) tuples and
# lists so that hash_fields((1, 2), 3) != hash_fields(1, (2, 3)).
_SEQ_OPEN = (len(b"'<seq>'")).to_bytes(8, "big") + b"'<seq>'"
_SEQ_CLOSE = (len(b"'</seq>'")).to_bytes(8, "big") + b"'</seq>'"


def _append_parts(parts: list[bytes], fields: Iterable[object]) -> None:
    """Append each field's 8-byte length prefix and bytes to ``parts``."""
    append = parts.append
    for field in fields:
        kind = type(field)
        if kind is tuple or kind is list:
            append(_SEQ_OPEN)
            _append_parts(parts, field)
            append(_SEQ_CLOSE)
            continue
        encoded = b"%d" % field if kind is int else repr(field).encode("utf-8")
        append(len(encoded).to_bytes(8, "big"))
        append(encoded)


def hash_fields(*fields: object) -> Digest:
    """Hash a tuple of simple fields (ints, strings, digests, tuples).

    Fields are rendered with an unambiguous length-prefixed encoding so that
    ``hash_fields("ab", "c") != hash_fields("a", "bc")``.

    ``hash_fields_uncached`` is a compatibility alias of this function: it
    dates from a removed digest memo, and benchmark tracing still patches
    it by name.
    """
    parts: list[bytes] = []
    _append_parts(parts, fields)
    return _blake2b(b"".join(parts), digest_size=16).hexdigest()


#: Compatibility alias (see :func:`hash_fields`); nothing calls it.
hash_fields_uncached = hash_fields


def hash_cache_size() -> int:
    """Always 0: a compatibility name from the removed digest memo.

    Kept because the benchmark harness imports it to report the memo size.
    """
    return 0
