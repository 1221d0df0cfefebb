"""Bit-exact pins of the preset catalog and of each system's stacked map table.

The literals are sha256 digests recorded before the ratio-1/3 presets were
built by one digit builder and the maps were stacked once per system.  Each
digest covers (label, n, osc), every map's ratio, matrix and translation
bytes, and the arrays of every iter_levels block to depth 2, so a changed
map, map order or last bit of a translation shows here.
"""

import hashlib

import numpy as np
import pytest

from fractal_dirac import preset
from fractal_dirac.ifs import iter_levels

PINS = {
    "cantor_set": "4bd40718ded5c952b73d16149c64532265ae103ec63c2a0f81888d950833f094",
    "cantor_dust1": "701ed41502e5a883de8783ee7b8aa3823ba31a3e98656aca5353828a3910942d",
    "cantor_dust2": "e86532258e3ad4bf627cf7b82fe04e9cc94322c57fbf4640fe38319a1087eb84",
    "cantor_dust3": "43767273f2dd20247f834a78866e3954bc6e6b11743831b2dd832e3a13c21128",
    "cantor_dust4": "376cf50d6cb8155768dba55e6ce2944644188ff960de62e80cb5efb99d11f4e8",
    "lifted_cantor": "5a3484a12edc5380e243d26e0b0a6ae6b38b9614dc2143c0c5ec8865b88a9bb6",
    "sierpinski_carpet": "d8b568cc78c7d38950160104b2f1443d531e38acbb795bd96a64292f79e29858",
    "menger_sponge": "e4d369cf497085100d6bc84ec46d2c4c5430f49b30016d372e7c006c83cf9700",
    "lifted_carpet": "5004a7bbaad4339f3ffdbb24b60ebaea9f8137ec63d43f6f69c507a2cebefdd8",
    "sc2": "fa31e6e96b0f822abd9460080c6e7b0e2d6bf2fd26bf9d4cea256e4c9371f7a9",
    "sc3": "5dbaac164e5d223fa9609b55e4e9c100c518758e24986902ae65c5271d06d418",
    "sc4": "f042a864995907ce850afe9bb57dca83f1549afb2a9291f12a1b59fa435d42ef",
    "rotation": "009db9a6c17d45c62ca977274f0d42edc9f3207a82ce6766c0d3e4f161b1afe3",
    "rotation:0.5": "54b113014f5fe9cfff6868a3252e5c8e906592b46afa1421da34afd66ee644ea",
    "non_osc": "5c33bd127dd311694561c3aa5917e5785d76fd01cda932e6ceb779bfb8f6b4f2",
}


def _feed(digest, arr):
    arr = np.ascontiguousarray(arr)
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())


def catalog_digest(name):
    ifs = preset(name)
    digest = hashlib.sha256(repr((ifs.label, ifs.n, ifs.osc)).encode())
    for m in ifs.maps:
        _feed(digest, np.float64(m.ratio))
        _feed(digest, m.matrix)
        _feed(digest, m.translation)
    for block in iter_levels(ifs, 2):
        digest.update(repr(block.level).encode())
        for arr in (block.words, block.e_w, block.transform, block.offset):
            _feed(digest, arr)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_catalog_pin(name):
    assert catalog_digest(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_map_table_is_read_only_and_matches_the_maps(name):
    ifs = preset(name)
    table = (ifs.ratios, ifs.matrices, ifs.translations)
    assert [arr.shape for arr in table] == [
        (ifs.num_maps,), (ifs.num_maps, ifs.n, ifs.n), (ifs.num_maps, ifs.n)]
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for i, m in enumerate(ifs.maps):
        assert ifs.ratios[i] == m.ratio
        assert np.array_equal(ifs.matrices[i], m.matrix)
        assert np.array_equal(ifs.translations[i], m.translation)
    assert ifs.ratios is ifs.ratios  # built once, not on every access
