"""Setup-phase key material and temporal derivations."""

from __future__ import annotations

import pytest

from repro.core.keys import KEY_BYTES, SIESKeyMaterial, SourceKeys
from repro.core.params import SIESParams
from repro.crypto.hmac import HM1, HM256
from repro.crypto.prf import encode_epoch
from repro.errors import KeyMaterialError

P = SIESParams(num_sources=8).p


@pytest.fixture()
def material() -> SIESKeyMaterial:
    return SIESKeyMaterial.generate(8, P, seed=55)


def test_generate_shapes(material: SIESKeyMaterial) -> None:
    assert material.num_sources == 8
    assert len(material.master_key) == KEY_BYTES
    assert all(len(k) == KEY_BYTES for k in material.source_keys)
    assert len(set(material.source_keys)) == 8
    assert material.master_key not in material.source_keys


def test_generation_deterministic_with_seed() -> None:
    a = SIESKeyMaterial.generate(4, P, seed=1)
    b = SIESKeyMaterial.generate(4, P, seed=1)
    c = SIESKeyMaterial.generate(4, P, seed=2)
    assert a.master_key == b.master_key and a.source_keys == b.source_keys
    assert a.master_key != c.master_key


def test_generation_without_seed_is_random() -> None:
    a = SIESKeyMaterial.generate(2, P)
    b = SIESKeyMaterial.generate(2, P)
    assert a.master_key != b.master_key


def test_temporal_derivations_match_paper_formulas(material: SIESKeyMaterial) -> None:
    epoch = 9
    assert material.master_key_at(epoch) == int.from_bytes(
        HM256(material.master_key, encode_epoch(epoch)), "big"
    )
    ((pad, share),) = material.pads_and_shares_at(epoch, [3])
    assert pad == int.from_bytes(HM256(material.source_keys[3], encode_epoch(epoch)), "big")
    assert share == HM1(material.source_keys[3], encode_epoch(epoch))


def test_master_key_at_is_invertible(material: SIESKeyMaterial) -> None:
    for epoch in range(1, 50):
        assert material.master_key_at(epoch) % P != 0


def test_source_registration_bundle(material: SIESKeyMaterial) -> None:
    bundle = material.keys_for_source(5)
    assert isinstance(bundle, SourceKeys)
    assert bundle.source_id == 5
    assert bundle.master_key == material.master_key
    assert bundle.source_key == material.source_keys[5]
    assert bundle.p == P
    # the source derives exactly what the querier derives
    assert bundle.pad_prf().at_epoch(3) == HM256(material.source_keys[5], encode_epoch(3))
    ((_, share),) = material.pads_and_shares_at(3, [5])
    assert bundle.share_prf().at_epoch(3) == share


def test_keys_for_unknown_source(material: SIESKeyMaterial) -> None:
    with pytest.raises(KeyMaterialError):
        material.keys_for_source(8)
    with pytest.raises(KeyMaterialError):
        material.keys_for_source(-1)


def test_constructor_validation() -> None:
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"", [b"k1"], P)
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"master", [], P)
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"master", [b"same", b"same"], P)


def test_distinct_sources_have_distinct_temporal_keys(material: SIESKeyMaterial) -> None:
    derived = list(material.pads_and_shares_at(1, range(8)))
    pads = {pad for pad, _ in derived}
    shares = {share for _, share in derived}
    assert len(pads) == 8 and len(shares) == 8
