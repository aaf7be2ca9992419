"""LUKS-style encrypted volume over a simulated block device.

The paper uses LUKS (dm-crypt) for at-rest encryption.  The parts that
matter to a storage experiment are reproduced here:

* a **master volume key**, drawn when the volume is created and held
  only in RAM, encrypts every sector (length-preserving, sector-tweaked
  cipher, like dm-crypt's ESSIV mode);
* every byte of I/O pays a per-byte crypto CPU cost on the volume's clock,
  which is precisely the overhead the paper's Figure 1 "LUKS + TLS" bars
  capture for the at-rest half.
"""

from __future__ import annotations

from ..common.clock import Clock
from ..common.errors import DeviceIOError
from .block_device import SimulatedBlockDevice
from ..crypto.cipher import KEY_SIZE, SectorCipher, random_bytes

SECTOR_SIZE = 512

# Per-byte cost of the software cipher.  dm-crypt with AES-NI moves
# ~1-2 GB/s per core; we charge 0.7 ns/B (~1.4 GB/s).
CRYPTO_COST_PER_BYTE = 0.7e-9


class LuksVolume:
    """An encrypting wrapper presenting the same read/write/flush interface
    as :class:`SimulatedBlockDevice`."""

    def __init__(self, device: SimulatedBlockDevice,
                 crypto_cost_per_byte: float = CRYPTO_COST_PER_BYTE) -> None:
        self._device = device
        self._clock: Clock = device.clock
        self._crypto_cost = crypto_cost_per_byte
        self._sector_cipher = SectorCipher(random_bytes(KEY_SIZE))

    # -- I/O --------------------------------------------------------------------

    def _charge_crypto(self, nbytes: int) -> None:
        self._clock.advance(nbytes * self._crypto_cost)

    def write(self, offset: int, data: bytes) -> None:
        """Read-modify-write the covered sectors through the cipher."""
        cipher = self._sector_cipher
        if not data:
            return
        first = offset // SECTOR_SIZE
        last = (offset + len(data) - 1) // SECTOR_SIZE
        span_start = first * SECTOR_SIZE
        span_len = (last - first + 1) * SECTOR_SIZE
        if span_start + span_len > self._device.capacity:
            raise DeviceIOError("write exceeds volume capacity")
        raw = self._device.read(span_start, span_len)
        self._charge_crypto(span_len)
        plain = bytearray()
        for i in range(first, last + 1):
            sector = raw[(i - first) * SECTOR_SIZE:(i - first + 1) * SECTOR_SIZE]
            plain.extend(cipher.decrypt_sector(i, sector))
        inner = offset - span_start
        plain[inner:inner + len(data)] = data
        self._charge_crypto(span_len)
        enciphered = bytearray()
        for i in range(first, last + 1):
            sector = plain[(i - first) * SECTOR_SIZE:(i - first + 1) * SECTOR_SIZE]
            enciphered.extend(cipher.encrypt_sector(i, bytes(sector)))
        self._device.write(span_start, bytes(enciphered))

    def read(self, offset: int, length: int) -> bytes:
        cipher = self._sector_cipher
        if length == 0:
            return b""
        first = offset // SECTOR_SIZE
        last = (offset + length - 1) // SECTOR_SIZE
        span_start = first * SECTOR_SIZE
        span_len = (last - first + 1) * SECTOR_SIZE
        raw = self._device.read(span_start, span_len)
        self._charge_crypto(span_len)
        plain = bytearray()
        for i in range(first, last + 1):
            sector = raw[(i - first) * SECTOR_SIZE:(i - first + 1) * SECTOR_SIZE]
            plain.extend(cipher.decrypt_sector(i, sector))
        inner = offset - span_start
        return bytes(plain[inner:inner + length])

    def flush(self) -> None:
        self._device.flush()

    @property
    def capacity(self) -> int:
        return self._device.capacity
