"""Device latency models.

Each model charges simulated time for syscalls and data movement.  The
presets are calibrated against published device characteristics so the
benchmark harness reproduces the paper's *ratios* deterministically:

* ``INTEL_750_SSD`` approximates the paper's testbed drive (Intel 750
  NVMe).  The number that matters for the AOF experiments is the cost of a
  synchronous flush: an fsync on this class of device lands in the
  0.5--1 ms range once the filesystem journal is involved.  We use 0.8 ms.
* ``LUKS_SSD`` is that drive behind dm-crypt, the paper's at-rest
  encryption: every byte moved also pays ``CRYPTO_COST_PER_BYTE``.
* ``HDD`` (7.2k RPM) and ``NVM`` (3D XPoint-like) bound the design space;
  section 5.1 of the paper points at NVM as the way to make strict logging
  affordable, and the ablation benchmarks sweep across these models.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Costs, in seconds, charged by a device for each primitive."""

    name: str
    write_syscall: float      # fixed cost of a buffered write() syscall
    read_syscall: float       # fixed cost of a read() syscall
    fsync: float              # durability barrier (flush to media)
    per_byte_write: float     # marginal cost per byte written
    per_byte_read: float      # marginal cost per byte read

    def write_cost(self, nbytes: int) -> float:
        return self.write_syscall + nbytes * self.per_byte_write

    def read_cost(self, nbytes: int) -> float:
        return self.read_syscall + nbytes * self.per_byte_read

    def scaled(self, factor: float, name: str = None) -> "LatencyModel":
        """A copy with every cost multiplied by ``factor`` (for sweeps)."""
        return LatencyModel(
            name=name or f"{self.name}x{factor:g}",
            write_syscall=self.write_syscall * factor,
            read_syscall=self.read_syscall * factor,
            fsync=self.fsync * factor,
            per_byte_write=self.per_byte_write * factor,
            per_byte_read=self.per_byte_read * factor,
        )


# Buffered syscalls: ~2 us of kernel time; sequential media bandwidth:
# ~1 GB/s write for the Intel 750 => 1e-9 s/B.
INTEL_750_SSD = LatencyModel(
    name="intel-750-ssd",
    write_syscall=2e-6,
    read_syscall=2e-6,
    fsync=800e-6,
    per_byte_write=1e-9,
    per_byte_read=0.5e-9,
)

# Per-byte cost of the software cipher.  dm-crypt with AES-NI moves
# ~1-2 GB/s per core; we charge 0.7 ns/B (~1.4 GB/s).
CRYPTO_COST_PER_BYTE = 0.7e-9

LUKS_SSD = LatencyModel(
    name="ssd+luks",
    write_syscall=INTEL_750_SSD.write_syscall,
    read_syscall=INTEL_750_SSD.read_syscall,
    fsync=INTEL_750_SSD.fsync,
    per_byte_write=INTEL_750_SSD.per_byte_write + CRYPTO_COST_PER_BYTE,
    per_byte_read=INTEL_750_SSD.per_byte_read + CRYPTO_COST_PER_BYTE,
)

# 7.2k RPM disk: fsync pays ~half a rotation plus seek, ~8 ms.
HDD = LatencyModel(
    name="hdd-7200rpm",
    write_syscall=2e-6,
    read_syscall=2e-6,
    fsync=8e-3,
    per_byte_write=8e-9,
    per_byte_read=8e-9,
)

# Byte-addressable NVM (3D XPoint-like): persistence barrier ~2 us.
NVM = LatencyModel(
    name="nvm-3dxpoint",
    write_syscall=0.5e-6,
    read_syscall=0.3e-6,
    fsync=2e-6,
    per_byte_write=0.3e-9,
    per_byte_read=0.1e-9,
)

# A free device for tests that only exercise logic, never timing.
ZERO = LatencyModel(
    name="zero",
    write_syscall=0.0,
    read_syscall=0.0,
    fsync=0.0,
    per_byte_write=0.0,
    per_byte_read=0.0,
)

PRESETS = {model.name: model for model in (INTEL_750_SSD, HDD, NVM, ZERO)}
