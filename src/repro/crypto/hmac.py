"""HMAC (RFC 2104 / FIPS 198-1) over the library hash interface.

The paper uses two HMAC instantiations throughout (Table I):

* ``HM1(K, m)``   — HMAC with SHA-1, 20-byte output; produces the secret
  shares ``ss_i,t`` and CMT's temporal keys, and SECOA's inflation
  certificates and temporal seeds.
* ``HM256(K, m)`` — HMAC with SHA-256, 32-byte output; produces the SIES
  temporal keys ``K_t`` and ``k_i,t``.

This module implements HMAC from its definition,
``H((K' ⊕ opad) ∥ H((K' ⊕ ipad) ∥ m))``, over any
:class:`repro.crypto.hashes.HashFunction` — including the pure-Python
backends — and is cross-validated against :mod:`hmac` in the tests.

Every one-shot HMAC in the library (:func:`digest`, and through it
:func:`hmac_digest`, :func:`HM1`, :func:`HM256` and
:meth:`repro.crypto.prf.PRF.evaluate`) dispatches on the hash backend
in one place: on ``"hashlib"`` it is OpenSSL's one-shot
:func:`hmac.digest`; on ``"pure"`` it is the :class:`HMAC` construction
over the from-scratch hashes.  Both give the same bytes — the tests
cross-check them — and neither keeps per-key hash state between calls.
"""

from __future__ import annotations

import hmac as _stdlib_hmac

from repro.crypto.hashes import HashFunction, get_hash

__all__ = ["digest", "hmac_digest", "HMAC", "HM1", "HM256"]

_IPAD = 0x36
_OPAD = 0x5C


class HMAC:
    """Incremental HMAC bound to a key and a hash function."""

    def __init__(self, key: bytes, hash_function: HashFunction, data: bytes = b"") -> None:
        self._hash = hash_function
        block_size = hash_function.block_size
        if len(key) > block_size:
            key = hash_function.digest(key)
        key = key.ljust(block_size, b"\x00")
        self._outer_key = bytes(b ^ _OPAD for b in key)
        self._inner = hash_function.new(bytes(b ^ _IPAD for b in key))
        if data:
            self._inner.update(data)

    @property
    def digest_size(self) -> int:
        return self._hash.digest_size

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def digest(self) -> bytes:
        outer = self._hash.new(self._outer_key)
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def digest(key: bytes, message: bytes, hash_function: HashFunction) -> bytes:
    """One-shot HMAC of *message* under *key* — the backend dispatch point."""
    if hash_function.backend == "hashlib":
        return _stdlib_hmac.digest(key, message, hash_function.name)
    return HMAC(key, hash_function, message).digest()


def hmac_digest(
    key: bytes,
    message: bytes,
    algorithm: str = "sha256",
    backend: str | None = None,
) -> bytes:
    """One-shot HMAC of *message* under *key*."""
    return digest(key, message, get_hash(algorithm, backend))


def HM1(key: bytes, message: bytes, backend: str | None = None) -> bytes:
    """The paper's ``HM1``: HMAC-SHA1, 20-byte digest."""
    return digest(key, message, get_hash("sha1", backend))


def HM256(key: bytes, message: bytes, backend: str | None = None) -> bytes:
    """The paper's ``HM256``: HMAC-SHA256, 32-byte digest."""
    return digest(key, message, get_hash("sha256", backend))
