"""Tests for the LUKS-style encrypted volume."""

from repro.common.clock import SimClock
from repro.device.block_device import SimulatedBlockDevice
from repro.device.latency import ZERO
from repro.device.luks import SECTOR_SIZE, LuksVolume


def make_volume(capacity=1 << 16):
    device = SimulatedBlockDevice(capacity, latency=ZERO)
    return LuksVolume(device), device


class TestIO:
    def test_roundtrip(self):
        volume, _ = make_volume()
        volume.write(100, b"personal data")
        assert volume.read(100, 13) == b"personal data"

    def test_cross_sector_write(self):
        volume, _ = make_volume()
        payload = b"z" * (SECTOR_SIZE * 2 + 37)
        volume.write(SECTOR_SIZE - 10, payload)
        assert volume.read(SECTOR_SIZE - 10, len(payload)) == payload

    def test_read_modify_write_preserves_neighbors(self):
        volume, _ = make_volume()
        volume.write(0, b"A" * SECTOR_SIZE)
        volume.write(10, b"BBB")
        assert volume.read(0, 10) == b"A" * 10
        assert volume.read(10, 3) == b"BBB"
        assert volume.read(13, 10) == b"A" * 10

    def test_underlying_device_holds_ciphertext(self):
        volume, device = make_volume()
        volume.write(0, b"PLAINTEXT-MARKER")
        raw = device.read(0, SECTOR_SIZE)
        assert b"PLAINTEXT-MARKER" not in raw

    def test_empty_write_and_read(self):
        volume, _ = make_volume()
        volume.write(0, b"")
        assert volume.read(0, 0) == b""

    def test_capacity_exposed(self):
        volume, device = make_volume()
        assert volume.capacity == device.capacity

    def test_crypto_charges_time(self):
        clock = SimClock()
        device = SimulatedBlockDevice(1 << 16, clock=clock, latency=ZERO)
        volume = LuksVolume(device)
        volume.write(0, b"x" * SECTOR_SIZE)
        assert clock.now() > 0.0

