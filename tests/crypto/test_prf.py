"""The HMAC-based PRF layer (epoch encoding, int outputs, expansion)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.crypto.hashes import get_default_backend, get_hash, set_default_backend
from repro.crypto.hmac import HM1, HM256, HMAC, digest
from repro.crypto.prf import PRF, encode_epoch
from repro.datasets.workload import UniformWorkload
from repro.errors import ParameterError
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator


def test_epoch_encoding_is_canonical_and_injective() -> None:
    assert encode_epoch(0) == b"\x00" * 8
    assert encode_epoch(1) == b"\x00" * 7 + b"\x01"
    assert len({encode_epoch(t) for t in range(200)}) == 200


def test_epoch_bounds() -> None:
    encode_epoch((1 << 64) - 1)
    with pytest.raises(ParameterError):
        encode_epoch(1 << 64)
    with pytest.raises(ParameterError):
        encode_epoch(-1)


def test_at_epoch_matches_paper_formula() -> None:
    key = b"\x42" * 20
    prf1 = PRF(key, "sha1")
    prf256 = PRF(key, "sha256")
    # K_t = HM256(K, t); ss_t = HM1(k, t) — exactly the paper's derivations.
    assert prf256.at_epoch(7) == HM256(key, encode_epoch(7))
    assert prf1.at_epoch(7) == HM1(key, encode_epoch(7))
    assert prf1.output_size == 20
    assert prf256.output_size == 32


def test_int_at_epoch_with_and_without_modulus() -> None:
    prf = PRF(b"k" * 20, "sha256")
    raw = prf.int_at_epoch(3)
    assert 0 <= raw < 1 << 256
    assert prf.int_at_epoch(3, modulus=97) == raw % 97


def test_different_epochs_give_independent_outputs() -> None:
    prf = PRF(b"k" * 20, "sha1")
    outputs = {prf.at_epoch(t) for t in range(100)}
    assert len(outputs) == 100


def test_expand_lengths_and_determinism() -> None:
    prf = PRF(b"k" * 20, "sha256")
    for length in (1, 31, 32, 33, 100):
        out = prf.expand(b"ctx", length)
        assert len(out) == length
        assert out == prf.expand(b"ctx", length)
    # prefix property: longer expansions extend shorter ones
    assert prf.expand(b"ctx", 100)[:32] == prf.expand(b"ctx", 32)


def test_derive_key_domain_separation() -> None:
    prf = PRF(b"k" * 20, "sha256")
    assert prf.derive_key("a") != prf.derive_key("b")
    assert len(prf.derive_key("a", 20)) == 20
    assert len(prf.derive_key("a", 64)) == 64


def test_empty_key_rejected() -> None:
    with pytest.raises(ParameterError):
        PRF(b"")


def test_modulus_must_be_positive() -> None:
    prf = PRF(b"k")
    with pytest.raises(ParameterError):
        prf.int_at_epoch(1, modulus=0)


# ----------------------------------------------------------------------
# Backend parity: OpenSSL's one-shot HMAC ("hashlib") and the RFC 2104
# construction over the from-scratch hashes ("pure") are the same PRF.
# ----------------------------------------------------------------------

PARITY_KEY_LENGTHS = (1, 20, 63, 64, 65, 200)
PARITY_EPOCHS = (0, 1, (1 << 64) - 1)


@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("key_len", PARITY_KEY_LENGTHS)
def test_pure_and_hashlib_backends_give_the_same_prf(algorithm: str, key_len: int) -> None:
    key = bytes((7 * i + key_len) & 0xFF for i in range(key_len))
    pure = PRF(key, algorithm, "pure")
    fast = PRF(key, algorithm, "hashlib")
    for epoch in PARITY_EPOCHS:
        assert pure.at_epoch(epoch) == fast.at_epoch(epoch)
    assert pure.evaluate(b"") == fast.evaluate(b"")
    assert pure.evaluate(b"x" * 130) == fast.evaluate(b"x" * 130)
    assert pure.expand(b"ctx", 77) == fast.expand(b"ctx", 77)
    assert pure.derive_key("label") == fast.derive_key("label")
    assert pure.derive_key("label", 50) == fast.derive_key("label", 50)


@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("key_len", PARITY_KEY_LENGTHS)
def test_one_shot_dispatch_matches_the_incremental_hmac(algorithm: str, key_len: int) -> None:
    key = bytes(range(key_len))
    for backend in ("hashlib", "pure"):
        hash_function = get_hash(algorithm, backend)
        for epoch in PARITY_EPOCHS:
            message = encode_epoch(epoch)
            assert digest(key, message, hash_function) == HMAC(key, hash_function, message).digest()


@pytest.fixture
def restore_backend():
    original = get_default_backend()
    yield
    set_default_backend(original)


def _runtime_ledger_digest() -> str:
    n = 16
    protocol = create_protocol("sies", n, seed=31)
    sim = RuntimeSimulator(
        protocol,
        build_complete_tree(n, fanout=4),
        UniformWorkload(n, 0, 1000, seed=31),
        RuntimeConfig(num_epochs=3, seed=31, plan=FaultPlan.lossless()),
    )
    metrics = sim.run()
    assert all(outcome.result is not None for outcome in metrics.epochs)
    return hashlib.sha256(json.dumps(metrics.ledger(), sort_keys=True).encode()).hexdigest()


def test_runtime_ledger_is_identical_on_both_backends(restore_backend) -> None:
    set_default_backend("pure")
    pure = _runtime_ledger_digest()
    set_default_backend("hashlib")
    assert _runtime_ledger_digest() == pure
