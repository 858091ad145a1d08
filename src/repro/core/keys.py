"""Setup-phase key material and temporal derivations (paper Section IV-A).

At setup the querier generates a master key ``K`` (known to *every*
source) and per-source keys ``k_1 … k_N`` (each known only to its
source), all 20 bytes, plus the public prime ``p``.  Every epoch the
parties derive:

* ``K_t   = HM256(K, t)``  — the shared multiplier key (32 bytes);
* ``k_i,t = HM256(k_i, t)`` — source ``i``'s one-time pad key;
* ``ss_i,t = HM1(k_i, t)``  — source ``i``'s secret share (20 bytes).

``K_t`` must be invertible mod ``p``; the digest reduces to 0 with
probability ~2^-256, but the code is total: it re-derives with an
appended retry counter (documented deviation, DESIGN.md §4).

:class:`SIESKeyMaterial` is the *querier's* view (it owns everything).
Sources receive :class:`SourceKeys` — only ``(K, k_i, p)``, which is
what the attack model assumes a compromised source can leak.
"""

from __future__ import annotations

import secrets
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.crypto.prf import PRF, encode_epoch
from repro.errors import KeyMaterialError
from repro.utils.bytesops import bytes_to_int
from repro.utils.rng import DeterministicRandom
from repro.utils.validation import check_positive_int

__all__ = ["SourceKeys", "SIESKeyMaterial", "KEY_BYTES"]

#: The paper sets the key size to 20 bytes (Section IV-A).
KEY_BYTES = 20


def _temporal_int(prf: PRF, epoch: int, modulus: int, *, require_invertible: bool) -> int:
    """``PRF(t)`` as an integer; optionally re-derived until non-zero mod p."""
    value = bytes_to_int(prf.at_epoch(epoch))
    if not require_invertible:
        return value
    retry = 0
    while value % modulus == 0:  # probability ~2^-256; loop for totality
        retry += 1
        value = bytes_to_int(prf.evaluate(encode_epoch(epoch) + bytes([retry & 0xFF])))
    return value


@dataclass(frozen=True)
class SourceKeys:
    """What source ``i`` holds after setup: ``(K, k_i, p)``."""

    source_id: int
    master_key: bytes
    source_key: bytes
    p: int

    def master_prf(self) -> PRF:
        """PRF producing ``K_t`` (HM256 keyed with ``K``)."""
        return PRF(self.master_key, "sha256")

    def pad_prf(self) -> PRF:
        """PRF producing ``k_i,t`` (HM256 keyed with ``k_i``)."""
        return PRF(self.source_key, "sha256")

    def share_prf(self) -> PRF:
        """PRF producing ``ss_i,t`` (HM1 keyed with ``k_i``)."""
        return PRF(self.source_key, "sha1")


class SIESKeyMaterial:
    """The querier's complete key state for one SIES deployment."""

    def __init__(self, master_key: bytes, source_keys: list[bytes], p: int) -> None:
        if len(master_key) == 0:
            raise KeyMaterialError("master key must be non-empty")
        if not source_keys:
            raise KeyMaterialError("at least one source key is required")
        if len(set(source_keys)) != len(source_keys):
            raise KeyMaterialError("source keys must be pairwise distinct")
        self.master_key = master_key
        self.source_keys = list(source_keys)
        self.p = p
        self._master_prf = PRF(master_key, "sha256")
        self._pad_prfs = [PRF(k, "sha256") for k in source_keys]
        self._share_prfs = [PRF(k, "sha1") for k in source_keys]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        num_sources: int,
        p: int,
        *,
        key_bytes: int = KEY_BYTES,
        seed: int | None = None,
    ) -> "SIESKeyMaterial":
        """Generate fresh keys — the setup phase.

        With *seed* the keys are reproducible (simulation use); without
        it they come from the OS CSPRNG.
        """
        check_positive_int("num_sources", num_sources)
        check_positive_int("key_bytes", key_bytes)
        if seed is None:
            draw = lambda: secrets.token_bytes(key_bytes)  # noqa: E731
        else:
            rng = DeterministicRandom(seed, "sies-keys")
            draw = lambda: rng.random_bytes(key_bytes)  # noqa: E731
        master = draw()
        source_keys: list[bytes] = []
        seen = {master}
        while len(source_keys) < num_sources:
            key = draw()
            if key in seen:  # astronomically unlikely; keep keys distinct
                continue
            seen.add(key)
            source_keys.append(key)
        return cls(master, source_keys, p)

    @property
    def num_sources(self) -> int:
        return len(self.source_keys)

    def keys_for_source(self, source_id: int) -> SourceKeys:
        """The registration bundle delivered to source ``source_id``."""
        if not 0 <= source_id < self.num_sources:
            raise KeyMaterialError(f"no key material for source {source_id}")
        return SourceKeys(
            source_id=source_id,
            master_key=self.master_key,
            source_key=self.source_keys[source_id],
            p=self.p,
        )

    # ------------------------------------------------------------------
    # Temporal derivations (querier side)
    # ------------------------------------------------------------------

    def master_key_at(self, epoch: int) -> int:
        """``K_t`` as an invertible integer mod ``p`` (one HM256)."""
        return _temporal_int(self._master_prf, epoch, self.p, require_invertible=True)

    def pads_and_shares_at(
        self, epoch: int, source_ids: Iterable[int]
    ) -> Iterator[tuple[int, bytes]]:
        """``(k_i,t, ss_i,t digest)`` per source — one HM256 and one HM1 each.

        ``k_i,t`` is the HM256 digest as an integer; ``ss_i,t`` is the HM1
        digest bytes (layouts truncate as needed).  The epoch is encoded
        once for the whole subset.
        """
        encoded = encode_epoch(epoch)
        pad_prfs = self._pad_prfs
        share_prfs = self._share_prfs
        for source_id in source_ids:
            yield (
                bytes_to_int(pad_prfs[source_id].evaluate(encoded)),
                share_prfs[source_id].evaluate(encoded),
            )
