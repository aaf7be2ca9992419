"""Tests for GDPR metadata and the storage envelope."""

import json

import pytest

from repro.common.errors import SerializationError
from repro.gdpr.metadata import GDPRMetadata, pack_envelope, unpack_envelope


def meta(**kwargs):
    defaults = dict(owner="alice", purposes=frozenset({"billing"}))
    defaults.update(kwargs)
    return GDPRMetadata(**defaults)


class TestValidation:
    def test_owner_required(self):
        with pytest.raises(ValueError):
            GDPRMetadata(owner="")

    def test_purpose_objection_overlap_rejected(self):
        with pytest.raises(ValueError):
            GDPRMetadata(owner="a", purposes=frozenset({"x"}),
                         objections=frozenset({"x"}))

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError):
            meta(ttl=0)
        with pytest.raises(ValueError):
            meta(ttl=-5)

    def test_none_ttl_allowed(self):
        assert meta(ttl=None).ttl is None


class TestPurposeLogic:
    def test_allows_declared_purpose(self):
        assert meta().allows_purpose("billing")

    def test_rejects_undeclared_purpose(self):
        assert not meta().allows_purpose("marketing")

    def test_objection_blocks_purpose(self):
        m = meta(purposes=frozenset({"billing", "ads"}))
        objected = m.with_objection("ads")
        assert not objected.allows_purpose("ads")
        assert objected.allows_purpose("billing")

    def test_with_objection_removes_from_whitelist(self):
        m = meta(purposes=frozenset({"a", "b"})).with_objection("a")
        assert m.purposes == frozenset({"b"})
        assert "a" in m.objections

    def test_with_objection_immutable(self):
        m = meta()
        m.with_objection("billing")
        assert m.allows_purpose("billing")

    def test_with_shared(self):
        m = meta().with_shared("partner-inc")
        assert "partner-inc" in m.shared_with


class TestExpiry:
    def test_expire_at_from_ttl(self):
        m = meta(ttl=100.0, created_at=50.0)
        assert m.expire_at() == 150.0

    def test_expire_at_none_without_ttl(self):
        assert meta().expire_at() is None


class TestSerialization:
    def test_dict_roundtrip(self):
        m = meta(ttl=60.0, objections=frozenset({"ads"}),
                 shared_with=frozenset({"partner"}),
                 allowed_regions=frozenset({"eu-west"}),
                 created_at=5.0, decision_making=True)
        assert GDPRMetadata.from_dict(m.to_dict()) == m

    def test_from_dict_missing_owner(self):
        with pytest.raises(SerializationError):
            GDPRMetadata.from_dict({"purposes": []})

    @pytest.mark.parametrize("field", ["purposes", "objections",
                                       "shared_with", "allowed_regions"])
    @pytest.mark.parametrize("bad", ["service", ["ok", 7], {"ads": 1},
                                     None, 5, [["nested"]]])
    def test_from_dict_set_fields_must_be_arrays_of_strings(self, field,
                                                            bad):
        """``frozenset("service")`` is six one-letter purposes: a header
        that carries a string (or anything but an array of strings) where
        a set belongs is malformed, not a whitelist of its characters."""
        with pytest.raises(SerializationError, match="bad metadata dict"):
            GDPRMetadata.from_dict({"owner": "a", field: bad})
        blob = json.dumps({"owner": "a", field: bad}).encode() + b"\x00v"
        with pytest.raises(SerializationError):
            unpack_envelope(blob)

    def test_from_dict_accepts_arrays_and_missing_set_fields(self):
        m = GDPRMetadata.from_dict({"owner": "a", "purposes": ["service"],
                                    "shared_with": []})
        assert m.purposes == frozenset({"service"})
        assert m.allows_purpose("service") and not m.allows_purpose("s")
        assert m.objections == m.shared_with == m.allowed_regions \
            == frozenset()

    def test_envelope_roundtrip(self):
        m = meta()
        value = bytes(range(256))
        recovered_meta, recovered_value = unpack_envelope(
            pack_envelope(m, value))
        assert recovered_meta == m
        assert recovered_value == value

    def test_envelope_empty_value(self):
        m = meta()
        _, value = unpack_envelope(pack_envelope(m, b""))
        assert value == b""

    def test_envelope_value_with_nul_bytes(self):
        m = meta()
        value = b"\x00\x00payload\x00"
        _, recovered = unpack_envelope(pack_envelope(m, value))
        assert recovered == value

    def test_unpack_garbage(self):
        with pytest.raises(SerializationError):
            unpack_envelope(b"no-separator-here")

    def test_unpack_corrupt_header(self):
        with pytest.raises(SerializationError):
            unpack_envelope(b"{not json\x00value")
