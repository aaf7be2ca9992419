"""Managing data location (GDPR Art. 46, Chapter V).

GDPR restricts where personal data may physically live; transfers outside
the EU need adequacy decisions or safeguards.  The model here:

* a :class:`Region` registry with an ``adequate`` flag (EU members and
  adequacy-decision countries are lawful destinations by default);
* a :class:`LocationManager` that places stores in regions, validates each
  record's ``allowed_regions`` against its node's region at write time,
  and answers "where does subject X's data live right now?" -- the
  find-and-control requirement of section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..common.errors import LocationViolationError
from .metadata import GDPRMetadata


@dataclass(frozen=True)
class Region:
    code: str                # "eu-west", "us-east", ...
    jurisdiction: str        # "EU", "US", ...
    adequate: bool           # lawful destination for EU personal data


# A small built-in map; deployments register their own.
BUILTIN_REGIONS = {
    "eu-west": Region("eu-west", "EU", adequate=True),
    "eu-central": Region("eu-central", "EU", adequate=True),
    "uk": Region("uk", "UK", adequate=True),          # adequacy decision
    "us-east": Region("us-east", "US", adequate=False),
    "us-west": Region("us-west", "US", adequate=False),
    "ap-south": Region("ap-south", "IN", adequate=False),
}


class LocationManager:
    """Tracks node placement and enforces residency constraints."""

    def __init__(self, regions: Optional[Dict[str, Region]] = None) -> None:
        self.regions: Dict[str, Region] = dict(
            regions if regions is not None else BUILTIN_REGIONS)
        self._nodes: Set[str] = set()               # placed node ids
        self._key_locations: Dict[str, Set[str]] = {}  # key -> region codes
        self.violations_blocked = 0

    # -- registry ------------------------------------------------------------------

    def place_node(self, node_id: str, region_code: str) -> None:
        if region_code not in self.regions:
            raise LocationViolationError(f"unknown region {region_code!r}")
        self._nodes.add(node_id)

    def has_node(self, node_id: str) -> bool:
        """Has ``node_id`` been placed in a region?  (The GDPR store
        uses this to avoid re-placing a pre-configured node.)"""
        return node_id in self._nodes

    # -- enforcement -----------------------------------------------------------------

    def check_placement(self, metadata: GDPRMetadata,
                        region_code: str) -> None:
        """Raise unless ``metadata`` may be stored in ``region_code``.

        Empty ``allowed_regions`` means "any adequate region".
        """
        region = self.regions.get(region_code)
        if region is None:
            raise LocationViolationError(f"unknown region {region_code!r}")
        if metadata.allowed_regions:
            if region_code not in metadata.allowed_regions:
                self.violations_blocked += 1
                raise LocationViolationError(
                    f"record owned by {metadata.owner!r} may not be "
                    f"stored in {region_code!r} (allowed: "
                    f"{sorted(metadata.allowed_regions)})")
        elif not region.adequate:
            self.violations_blocked += 1
            raise LocationViolationError(
                f"region {region_code!r} lacks an adequacy decision and "
                f"the record does not whitelist it")

    # -- tracking --------------------------------------------------------------------

    def record_stored(self, key: str, region_code: str) -> None:
        self._key_locations.setdefault(key, set()).add(region_code)

    def record_erased(self, key: str) -> None:
        self._key_locations.pop(key, None)

    def locations_of(self, key: str) -> List[str]:
        return sorted(self._key_locations.get(key, ()))
