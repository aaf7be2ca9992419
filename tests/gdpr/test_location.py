"""Tests for data-location management (Art. 46)."""

import pytest

from repro.common.errors import LocationViolationError
from repro.gdpr.location import BUILTIN_REGIONS, LocationManager, Region
from repro.gdpr.metadata import GDPRMetadata


def meta(regions=()):
    return GDPRMetadata(owner="alice", purposes=frozenset({"svc"}),
                        allowed_regions=frozenset(regions))


class TestPlacementChecks:
    def test_adequate_region_allowed_by_default(self):
        LocationManager().check_placement(meta(), "eu-west")

    def test_inadequate_region_blocked_by_default(self):
        manager = LocationManager()
        with pytest.raises(LocationViolationError):
            manager.check_placement(meta(), "us-east")
        assert manager.violations_blocked == 1

    def test_whitelist_overrides_adequacy(self):
        LocationManager().check_placement(meta(regions=("us-east",)),
                                          "us-east")

    def test_whitelist_excludes_other_regions(self):
        with pytest.raises(LocationViolationError):
            LocationManager().check_placement(meta(regions=("eu-west",)),
                                              "eu-central")

    def test_unknown_region_rejected(self):
        with pytest.raises(LocationViolationError):
            LocationManager().check_placement(meta(), "atlantis")

    def test_custom_region_registration(self):
        manager = LocationManager(
            regions={"ca-central": Region("ca-central", "CA", adequate=True)})
        manager.check_placement(meta(), "ca-central")


class TestNodes:
    def test_place_and_lookup(self):
        manager = LocationManager()
        manager.place_node("node-1", "eu-west")
        assert manager.has_node("node-1")

    def test_place_in_unknown_region(self):
        with pytest.raises(LocationViolationError):
            LocationManager().place_node("n", "atlantis")


class TestTracking:
    def test_record_locations(self):
        manager = LocationManager()
        manager.record_stored("k", "eu-west")
        manager.record_stored("k", "eu-central")
        assert manager.locations_of("k") == ["eu-central", "eu-west"]

    def test_erase_one_region(self):
        # An erasure removes a key from every region it was stored in;
        # there is no per-region erasure.
        manager = LocationManager()
        manager.record_stored("k", "eu-west")
        manager.record_stored("k", "eu-central")
        with pytest.raises(TypeError):
            manager.record_erased("k", "eu-west")
        manager.record_erased("k")
        assert manager.locations_of("k") == []

    def test_erase_everywhere(self):
        manager = LocationManager()
        manager.record_stored("k", "eu-west")
        manager.record_erased("k")
        assert manager.locations_of("k") == []

    def test_erase_unknown_noop(self):
        LocationManager().record_erased("ghost")

    def test_builtin_regions_sane(self):
        assert BUILTIN_REGIONS["eu-west"].adequate
        assert not BUILTIN_REGIONS["us-east"].adequate
