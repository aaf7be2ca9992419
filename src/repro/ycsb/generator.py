"""Record and key generation (YCSB's CoreWorkload key/value builders)."""

from __future__ import annotations

import random
import string
from typing import Dict, Optional

from ..common.hashing import fnv1a_64

_PRINTABLE = (string.ascii_letters + string.digits).encode("ascii")

# A payload byte is ``random.choice`` over ``_PRINTABLE``: CPython draws
# ``r = getrandbits(k)``, ``k = len(_PRINTABLE).bit_length()``, until
# ``r < len(_PRINTABLE)``, and ``getrandbits(k)`` is the top k bits of one
# 32-bit Mersenne-Twister output.  The top *byte* of an output therefore
# decides the draw: ``_ACCEPTED`` maps it to the byte ``choice`` returns,
# ``_REJECTED`` lists the top bytes ``choice`` throws away.
_DRAW_BITS = len(_PRINTABLE).bit_length()
assert _DRAW_BITS <= 8, "a draw must fit the top byte of one output"
_REJECTED = bytes(top for top in range(256)
                  if top >> (8 - _DRAW_BITS) >= len(_PRINTABLE))
_ACCEPTED = bytes(0 if top in _REJECTED
                  else _PRINTABLE[top >> (8 - _DRAW_BITS)]
                  for top in range(256))


def build_key_name(keynum: int, ordered: bool = False) -> str:
    """YCSB's key naming: "user" + fnv64(keynum) (hashed insert order)."""
    if ordered:
        return f"user{keynum:019d}"
    return f"user{fnv1a_64(keynum)}"


class FieldGenerator:
    """Deterministic field payloads of fixed length.

    The payload stream is a contract (docs/architecture.md, "Input
    contract"): byte for byte, and RNG state for RNG state, what one
    ``random.choice`` over ``_PRINTABLE`` per byte yields.
    """

    def __init__(self, field_count: int = 10, field_length: int = 100,
                 seed: int = 0) -> None:
        if field_count < 1:
            raise ValueError("field_count must be at least 1")
        if field_length < 0:
            raise ValueError("field_length must not be negative")
        self.field_count = field_count
        self.field_length = field_length
        self._rng = random.Random(seed)
        self.field_names = [f"field{i}" for i in range(field_count)]

    def _draw(self, length: int) -> bytes:
        """The next ``length`` payload bytes, in one pass per top-up.

        ``getrandbits(32 * n)`` is the next n generator outputs, first
        output in the least-significant word, so every fourth byte of its
        little-endian image is one output's top byte.  Asking for exactly
        the shortfall never over-draws -- n more accepted bytes take at
        least n more outputs -- so the RNG ends where the per-byte draw
        would have left it.
        """
        out = b""
        need = length
        getrandbits = self._rng.getrandbits
        while need:
            out += getrandbits(32 * need).to_bytes(4 * need, "little")[
                3::4].translate(_ACCEPTED, _REJECTED)
            need = length - len(out)
        return out

    def build_values(self) -> Dict[str, bytes]:
        """All fields (insert path)."""
        length = self.field_length
        blob = self._draw(self.field_count * length)
        return {name: blob[i * length:(i + 1) * length]
                for i, name in enumerate(self.field_names)}

    def build_update(self) -> Dict[str, bytes]:
        """One random field (update path, YCSB writeallfields=false)."""
        name = self.field_names[self._rng.randrange(self.field_count)]
        return {name: self._draw(self.field_length)}

    def random_field(self) -> str:
        return self.field_names[self._rng.randrange(self.field_count)]
