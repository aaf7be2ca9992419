"""The exception hierarchy contract: one catchable base per layer."""

import pytest

from repro.common import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_device_family(self):
        for cls in (errors.DeviceIOError, errors.CorruptionError):
            assert issubclass(cls, errors.DeviceError)

    def test_crypto_family(self):
        for cls in (errors.IntegrityError, errors.KeyNotFoundError,
                    errors.KeyErasedError):
            assert issubclass(cls, errors.CryptoError)

    def test_key_not_found_is_keyerror(self):
        assert issubclass(errors.KeyNotFoundError, KeyError)
        assert issubclass(errors.KeyErasedError, errors.KeyNotFoundError)

    def test_store_family(self):
        for cls in (errors.WrongTypeError, errors.UnknownCommandError,
                    errors.ArityError, errors.PersistenceError):
            assert issubclass(cls, errors.StoreError)

    def test_gdpr_family(self):
        for cls in (errors.AccessDeniedError, errors.PurposeViolationError,
                    errors.LocationViolationError,
                    errors.UnknownSubjectError, errors.AuditError):
            assert issubclass(cls, errors.GDPRError)
        # Retention is the record's declared TTL: nothing refuses one.
        assert not hasattr(errors, "RetentionViolationError")

    def test_protocol_is_serialization(self):
        assert issubclass(errors.ProtocolError, errors.SerializationError)

    def test_unknown_subject_is_keyerror(self):
        assert issubclass(errors.UnknownSubjectError, KeyError)

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.HandshakeError("nope")
