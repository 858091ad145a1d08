"""Deterministic randomness for reproducible simulations.

Experiments must be replayable run-to-run, so every stochastic component
(dataset generator, topology builder, sketch hashing, adversary) draws
from a :class:`DeterministicRandom` seeded from a root seed plus a label.
Order-independent draws (the fault oracle's) come from
:func:`keyed_uniforms` instead: a pure function of a key and an integer
coordinate, with no stream state to advance.  Key material, by
contrast, is generated from the PRF layer (:mod:`repro.crypto.prf`),
never from here.
"""

from __future__ import annotations

import hashlib
import random
import struct

__all__ = ["DeterministicRandom", "derive_seed", "keyed_uniforms"]

#: 2**-53: scales a 53-bit integer onto a double in [0, 1).
_UNIT = 2.0**-53
#: Big-endian unpackers of 0..8 64-bit digest words, by word count.
_WORDS = [struct.Struct(f">{count}Q") for count in range(9)]


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    Uses SHA-256 over the decimal seed and the labels so that child
    streams are statistically independent and stable across Python
    versions (``hash()`` randomization would not be).
    """
    h = hashlib.sha256()
    h.update(str(root_seed).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


class DeterministicRandom(random.Random):
    """A :class:`random.Random` with labelled child-stream derivation."""

    def __init__(self, seed: int, *labels: str) -> None:
        self._root_seed = seed
        self._labels = labels
        super().__init__(derive_seed(seed, *labels))

    def child(self, *labels: str) -> "DeterministicRandom":
        """An independent stream for a sub-component."""
        return DeterministicRandom(self._root_seed, *self._labels, *labels)

    def random_bytes(self, length: int) -> bytes:
        """*length* pseudo-random bytes (simulation use only, not keys)."""
        return self.getrandbits(length * 8).to_bytes(length, "big") if length else b""


def keyed_uniforms(key: int, *coordinate: int, count: int) -> tuple[float, ...]:
    """*count* (at most 8) uniforms in [0, 1), a pure function of the inputs.

    One BLAKE2b hash of *key* (an unsigned 64-bit word) and *coordinate*
    (signed 64-bit words), all big-endian, with an ``8 * count``-byte
    digest; uniform ``i`` is the top 53 bits of digest word ``i``.  No
    stream is advanced, so a draw never depends on which draws came
    before it.
    """
    digest = hashlib.blake2b(
        struct.pack(f">Q{len(coordinate)}q", key, *coordinate), digest_size=8 * count
    ).digest()
    return tuple([(word >> 11) * _UNIT for word in _WORDS[count].unpack(digest)])
