"""Hashing, checksums, and deterministic key hashing used across the stack.

DUMP payloads and backup parts carry CRC-32 integrity checksums; the audit
log chains SHA-256 digests; the YCSB scrambled-zipfian generator needs the
64-bit FNV-1a hash that the reference YCSB implementation uses.
"""

from __future__ import annotations

import binascii
import hashlib
import zlib

# Constants for 64-bit FNV-1a, as used by YCSB's Utils.fnvhash64.
FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer, byte by byte (YCSB-compatible).

    YCSB hashes the 8 little-endian bytes of the record number to scramble
    the zipfian distribution across the keyspace.
    """
    h = FNV_OFFSET_BASIS_64
    for octet in (value & _MASK_64).to_bytes(8, "little"):
        h = ((h ^ octet) * FNV_PRIME_64) & _MASK_64
    return h


def crc32_of(data: bytes, prior: int = 0) -> int:
    """CRC-32 checksum (zlib polynomial), chainable via ``prior``."""
    return zlib.crc32(data, prior) & 0xFFFFFFFF


def crc16_xmodem(data: bytes) -> int:
    """CRC-16/XMODEM (CCITT polynomial 0x1021, init 0) -- the checksum
    Redis Cluster feeds its key -> hash-slot mapping."""
    return binascii.crc_hqx(data, 0)


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def sha256_bytes(data: bytes) -> bytes:
    """Raw SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def chain_hash(previous_hex: str, payload: bytes) -> str:
    """Hash-chain step used by the tamper-evident audit log.

    The digest commits to both the previous record's digest and the new
    payload, so truncating, reordering, or editing any record invalidates
    every later link.
    """
    h = hashlib.sha256()
    h.update(previous_hex.encode("ascii"))
    h.update(b"|")
    h.update(payload)
    return h.hexdigest()


GENESIS_HASH = sha256_hex(b"repro-audit-genesis")
