"""Unit tests for hashing."""

import hashlib

from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    hash_bytes,
    hash_cache_size,
    hash_fields,
    hash_fields_uncached,
)


def _reference_digest(*fields):
    """The generic encoder ``hash_fields`` must match byte for byte: every
    field is its length-prefixed ``repr``, and tuples and lists are wrapped
    in ``'<seq>'`` / ``'</seq>'`` markers."""

    def encode(items):
        out = b""
        for item in items:
            if type(item) in (tuple, list):
                out += encode(["<seq>"]) + encode(item) + encode(["</seq>"])
            else:
                raw = repr(item).encode("utf-8")
                out += len(raw).to_bytes(8, "big") + raw
        return out

    return hashlib.blake2b(encode(fields), digest_size=16).hexdigest()


#: fields -> digest, recorded before the digest memo was removed.  Block
#: ids and common-coin leader elections derive from these bytes, so any
#: change here reshuffles every fallback.
GOLDEN_DIGESTS = [
    ((), "cae66941d9efbd404e4d88758ea67670"),
    (((),), "9b32755522fc0aea347101d2a2099c73"),
    ((-1, -(2**70), 2**100), "43af5d79e2968abe3d9adf5f11995eda"),
    ((True, None, 1.5), "c64ea5d25146c03b79f1d426ece1cf68"),
    (("it's \"quoted\" — ünïcödé ✓",), "4811dbc1c2bae6e790040ca0202c88d5"),
    (("x" * 300,), "2f55a6f7645990896e16c70ab3151986"),
    (
        ("outer", (1, [2, ("deep", [3])]), [4, 5]),
        "15df4143e0d53900647a71923189d8b1",
    ),
    (
        (
            "repro/tshare/v1",
            10,
            0,
            ("fvote", "8e4da521afaf10bcdc66b931159d5995", 7, 2, 1, 10),
        ),
        "25a3691772d4c545cf3d098784599308",
    ),
]


def test_hash_is_deterministic():
    assert hash_fields("a", 1, (2, 3)) == hash_fields("a", 1, (2, 3))


def test_hash_differs_on_content():
    assert hash_fields("a") != hash_fields("b")


def test_hash_differs_on_field_boundaries():
    # Length-prefixing means moving a character across a boundary changes the hash.
    assert hash_fields("ab", "c") != hash_fields("a", "bc")


def test_nested_sequences_are_distinguished():
    assert hash_fields((1, 2), 3) != hash_fields(1, (2, 3))
    assert hash_fields([1, 2]) == hash_fields((1, 2))


def test_digest_is_fixed_width_hex():
    digest = hash_bytes(b"data")
    assert len(digest) == 32
    int(digest, 16)  # parses as hex


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_property_distinct_tuples_distinct_hashes(a, b):
    if a != b:
        assert hash_fields(*a) != hash_fields(*b)
    else:
        assert hash_fields(*a) == hash_fields(*b)


# ----------------------------------------------------------------------
# Pinned encoding
# ----------------------------------------------------------------------
def test_golden_digests_are_pinned():
    for fields, digest in GOLDEN_DIGESTS:
        assert hash_fields(*fields) == digest, fields
        assert _reference_digest(*fields) == digest, fields


def test_nested_lists_hash_like_tuples():
    assert hash_fields("k", [1, [2, 3]]) == hash_fields("k", (1, (2, 3)))


def test_memo_distinguishes_type_aliased_values():
    """``False == 0`` and ``1 == 1.0`` in Python, but they encode differently
    (regression: a digest memo once served a cached ``False`` digest for
    ``0``)."""
    for a, b in [(False, 0), (True, 1), (1, 1.0), (0.0, False)]:
        assert hash_fields(a) == _reference_digest(a)
        assert hash_fields(b) == _reference_digest(b)
        assert hash_fields(a) != hash_fields(b)
        # Nested occurrences must be distinguished too.
        assert hash_fields(("k", a)) != hash_fields(("k", b))


def test_compatibility_names():
    assert hash_fields_uncached is hash_fields
    hash_fields("no-memo")
    assert hash_cache_size() == 0


_SCALARS = st.one_of(
    st.integers(), st.text(max_size=12), st.booleans(), st.none(), st.floats()
)


@given(
    st.lists(
        st.recursive(
            _SCALARS,
            lambda inner: st.lists(inner, max_size=3)
            | st.lists(inner, max_size=3).map(tuple),
            max_leaves=8,
        ),
        max_size=6,
    )
)
def test_property_matches_reference_encoder(fields):
    assert hash_fields(*fields) == _reference_digest(*fields)
