"""Tests for the default-deny access controller."""

import pytest

from repro.common.errors import AccessDeniedError
from repro.gdpr.access_control import (
    AccessController,
    Operation,
    Principal,
)
from repro.gdpr.metadata import GDPRMetadata

META = GDPRMetadata(owner="alice", purposes=frozenset({"billing"}))


class TestDefaultDeny:
    def test_unknown_principal_denied(self):
        acl = AccessController()
        worker = Principal("worker")
        decision = acl.decide(worker, Operation.READ, META, None, 0.0)
        assert not decision.allowed

    def test_check_raises(self):
        acl = AccessController()
        with pytest.raises(AccessDeniedError):
            acl.check(Principal("worker"), Operation.READ, META, None, 0.0)

    def test_denials_counted(self):
        acl = AccessController()
        acl.decide(Principal("w"), Operation.READ, META, None, 0.0)
        assert acl.denials == 1
        assert acl.decisions == 1


class TestBypass:
    def test_controller_allowed_everything(self):
        acl = AccessController()
        controller = Principal.controller()
        for op in Operation:
            assert acl.decide(controller, op, META, None, 0.0).allowed

    def test_subject_self_access(self):
        acl = AccessController()
        alice = Principal.subject("alice")
        assert acl.decide(alice, Operation.READ, META, None, 0.0).allowed
        assert acl.decide(alice, Operation.DELETE, META, None, 0.0).allowed
        assert acl.decide(alice, Operation.EXPORT, META, None, 0.0).allowed

    def test_subject_cannot_write_via_self_access(self):
        acl = AccessController()
        alice = Principal.subject("alice")
        assert not acl.decide(alice, Operation.WRITE, META, None,
                              0.0).allowed

    def test_subject_cannot_touch_others(self):
        acl = AccessController()
        bob = Principal.subject("bob")
        assert not acl.decide(bob, Operation.READ, META, None, 0.0).allowed


class TestGrants:
    def test_direct_grant(self):
        acl = AccessController()
        acl.grant("worker", Operation.READ)
        assert acl.decide(Principal("worker"), Operation.READ, META,
                          None, 0.0).allowed

    def test_grant_scoped_to_operation(self):
        acl = AccessController()
        acl.grant("worker", Operation.READ)
        assert not acl.decide(Principal("worker"), Operation.DELETE, META,
                              None, 0.0).allowed

    def test_role_grant(self):
        acl = AccessController()
        acl.grant("role:analyst", Operation.READ)
        analyst = Principal("dave", roles=frozenset({"analyst"}))
        outsider = Principal("eve")
        assert acl.decide(analyst, Operation.READ, META, None, 0.0).allowed
        assert not acl.decide(outsider, Operation.READ, META, None,
                              0.0).allowed

    def test_purpose_scoped_grant(self):
        acl = AccessController()
        acl.grant("worker", Operation.READ, purpose="analytics")
        worker = Principal("worker")
        assert acl.decide(worker, Operation.READ, META, "analytics",
                          0.0).allowed
        assert not acl.decide(worker, Operation.READ, META, "marketing",
                              0.0).allowed
        assert not acl.decide(worker, Operation.READ, META, None,
                              0.0).allowed

    def test_unscoped_grant_matches_any_purpose(self):
        acl = AccessController()
        acl.grant("worker", Operation.READ)
        assert acl.decide(Principal("worker"), Operation.READ, META,
                          "anything", 0.0).allowed

    def test_time_boxed_grant(self):
        acl = AccessController()
        acl.grant("worker", Operation.READ, expires_at=100.0)
        worker = Principal("worker")
        assert acl.decide(worker, Operation.READ, META, None, 99.0).allowed
        assert not acl.decide(worker, Operation.READ, META, None,
                              101.0).allowed
