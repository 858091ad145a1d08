"""Deterministic labelled randomness."""

from __future__ import annotations

import hashlib
import struct

from repro.utils.rng import DeterministicRandom, derive_seed, keyed_uniforms


def test_same_seed_same_stream() -> None:
    a = DeterministicRandom(42, "x")
    b = DeterministicRandom(42, "x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_labels_separate_streams() -> None:
    a = DeterministicRandom(42, "x")
    b = DeterministicRandom(42, "y")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_child_streams_independent_of_parent_consumption() -> None:
    parent1 = DeterministicRandom(7, "p")
    parent2 = DeterministicRandom(7, "p")
    parent1.random()  # consume from one parent only
    assert parent1.child("c").random() == parent2.child("c").random()


def test_derive_seed_stability_and_separation() -> None:
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
    assert derive_seed(2, "a") != derive_seed(1, "a")
    assert 0 <= derive_seed(1, "a") < 1 << 64


def test_random_bytes_length_and_determinism() -> None:
    rng = DeterministicRandom(5, "bytes")
    data = rng.random_bytes(20)
    assert len(data) == 20
    assert DeterministicRandom(5, "bytes").random_bytes(20) == data
    assert DeterministicRandom(5, "bytes").random_bytes(0) == b""


def test_keyed_uniforms_are_digest_slices() -> None:
    key, coordinate = 2**64 - 1, (0, 7, -1, 12, 3)
    draw = keyed_uniforms(key, *coordinate, count=5)
    digest = hashlib.blake2b(struct.pack(">Q5q", key, *coordinate), digest_size=40).digest()
    words = struct.unpack(">5Q", digest)
    assert draw == tuple((word >> 11) / 2**53 for word in words)
    assert all(0.0 <= u < 1.0 for u in draw)
    # A pure function: no state, so repeating a draw repeats it exactly.
    assert keyed_uniforms(key, *coordinate, count=5) == draw


def test_keyed_uniforms_separate_coordinates_and_keys() -> None:
    base = keyed_uniforms(1, 0, 1, 2, 3, 4, count=2)
    assert keyed_uniforms(2, 0, 1, 2, 3, 4, count=2) != base
    assert keyed_uniforms(1, 1, 1, 2, 3, 4, count=2) != base
    assert keyed_uniforms(1, 0, 1, 2, 3, 5, count=2) != base
    assert len(keyed_uniforms(1, 0, count=8)) == 8
