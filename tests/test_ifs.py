import json
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq

from fractal_dirac import (
    BudgetExceededError,
    IfsSystem,
    Similitude,
    cantor_dust,
    cantor_set,
    compose,
    iter_placed,
    load_ifs,
    menger_sponge,
    preset,
    rotation,
    save_ifs,
    sierpinski_carpet,
    similarity_dimension,
    vertex_closure_check,
)
from fractal_dirac import ifs as ifs_mod
from fractal_dirac.cube import vertex_bits
from fractal_dirac.ifs import PlacedCube, iter_levels, word_count
from fractal_dirac.presets import carpet_index_set, lifted_carpet, non_osc


def test_compose_empty_word_is_identity():
    cube = compose(cantor_set(), ())
    assert cube.e_w == 1.0
    np.testing.assert_allclose(cube.transform, np.eye(1))
    np.testing.assert_allclose(cube.offset, [0.0])


def test_compose_cantor_repeated_right_map():
    cube = compose(cantor_set(), (2, 2))
    np.testing.assert_allclose(cube.offset, [8.0 / 9.0], atol=1e-15)
    np.testing.assert_allclose(cube.e_w, 1.0 / 9.0, rtol=1e-15)
    np.testing.assert_allclose(cube.vertices, [[8.0 / 9.0], [1.0]], atol=1e-15)


@pytest.mark.parametrize("j", [1, 2, 4])
def test_compose_rotation_word(j):
    ifs = rotation()
    cube = compose(ifs, (1,) * j)
    np.testing.assert_allclose(cube.e_w, (2.0 * np.sqrt(2.0)) ** -j, rtol=1e-14)
    np.testing.assert_allclose(
        cube.transform, np.linalg.matrix_power(ifs.maps[0].matrix, j), atol=1e-14
    )


def test_compose_is_monoid_action(rng):
    ifs = rotation()
    for _ in range(10):
        w1 = tuple(rng.integers(1, 5, size=rng.integers(0, 4)))
        w2 = tuple(rng.integers(1, 5, size=rng.integers(0, 4)))
        left = compose(ifs, w1 + w2)
        c1, c2 = compose(ifs, w1), compose(ifs, w2)
        np.testing.assert_allclose(left.e_w, c1.e_w * c2.e_w, rtol=1e-12)
        np.testing.assert_allclose(left.transform, c1.transform @ c2.transform, atol=1e-12)
        np.testing.assert_allclose(
            left.offset, c1.e_w * (c1.transform @ c2.offset) + c1.offset, atol=1e-12
        )


def _word(cube):
    return tuple(cube.words.tolist())


def test_word_enumeration_counts():
    assert sum(block.e_w.size for block in iter_levels(cantor_set(), 3)) == 15
    assert sum(block.e_w.size for block in iter_levels(sierpinski_carpet(), 2)) == 73
    assert sum(1 for _ in iter_placed(non_osc(), 0)) == 1


def test_word_enumeration_order():
    words = [_word(cube) for cube in iter_placed(cantor_set(), 2)]
    assert words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_iter_placed_matches_enumeration():
    ifs = cantor_dust(2)
    placed_words = sorted(_word(c) for c in iter_placed(ifs, 3))
    assert placed_words == sorted(w for j in range(4) for w in product(range(1, 5), repeat=j))
    # the streamed cubes and compose share one child step, so they agree exactly
    rot = rotation(0.7)
    for cube in iter_placed(rot, 3):
        ref = compose(rot, _word(cube))
        assert isinstance(cube, PlacedCube) and isinstance(ref, PlacedCube)
        assert cube.n == ref.n == 2 and cube.level == ref.level == len(_word(cube))
        assert np.array_equal(cube.words, ref.words)
        assert cube.e_w == ref.e_w
        assert np.array_equal(cube.transform, ref.transform)
        assert np.array_equal(cube.offset, ref.offset)
        assert np.array_equal(cube.vertices, ref.vertices)


@pytest.mark.parametrize("name", ["rotation:0.7", "non_osc"])
def test_level_blocks_order_contract(monkeypatch, name):
    # a tiny chunk forces every level of depth 4 to be split across blocks
    monkeypatch.setattr(ifs_mod, "LEVEL_CHUNK", 5)
    ifs = preset(name)
    seen = set()
    by_length = {}
    for block in ifs_mod.iter_levels(ifs, 4):
        assert isinstance(block, PlacedCube) and block.n == ifs.n
        assert 1 <= block.e_w.size <= 5
        assert block.words.shape == (block.e_w.size, block.level)
        for i, word in enumerate(map(tuple, block.words.tolist())):
            assert word not in seen and word[:-1] in seen | {()}  # once, after its prefix
            seen.add(word)
            by_length.setdefault(len(word), []).append(word)
            ref = compose(ifs, word)
            assert block.e_w[i] == ref.e_w
            assert np.array_equal(block.transform[i], ref.transform)
            assert np.array_equal(block.offset[i], ref.offset)
            assert np.array_equal(block.vertices[i], ref.vertices)
            center = ref.offset + ref.e_w * (ref.transform @ np.full(ifs.n, 0.5))
            assert np.array_equal(block.centers()[i], center)
            assert np.array_equal(ref.centers(), center)
    assert len(seen) == word_count(ifs.num_maps, 4)
    for words in by_length.values():
        assert words == sorted(words)


# rows recorded from the depth-first walk before the level engine, written out so
# the child arithmetic is checked against values it did not produce
_ROTATION_B = [[-0.9422223406686582, -0.3349881501559052], [0.33498815015590533, -0.9422223406686583]]
_RECORDED_ROWS = [
    ("rotation:0.7", (1, 4, 2, 3), 0.015624999999999995, _ROTATION_B,
     [0.302787392408583, 0.38965730168208546]),
    ("rotation:0.7", (3, 3, 1, 2), 0.015624999999999995, _ROTATION_B,
     [0.1648769558333082, 0.7444140604050145]),
    ("non_osc", (2, 1, 2, 2), 0.012345679012345678, np.eye(2), [0.7654320987654321, 0.0]),
    ("non_osc", (5, 4, 3, 2), 0.024691358024691357, np.eye(2),
     [0.6604938271604938, 0.7592592592592592]),
]


@pytest.mark.parametrize("name,word,e_w,transform,offset", _RECORDED_ROWS)
def test_level_rows_equal_recorded_values(monkeypatch, name, word, e_w, transform, offset):
    monkeypatch.setattr(ifs_mod, "LEVEL_CHUNK", 5)
    for block in ifs_mod.iter_levels(preset(name), 4):
        hits = np.flatnonzero((block.words == word).all(axis=1)) if block.level == 4 else []
        for i in hits:
            assert block.e_w[i] == e_w
            assert np.array_equal(block.transform[i], transform)
            assert np.array_equal(block.offset[i], offset)
            return
    pytest.fail(f"word {word} not enumerated")


def test_level_blocks_bounded_in_high_dimension():
    # 256 maps in n = 8: a block's per-cube 2^(n-1) x 2^(n-1) arrays stay within
    # 16 LEVEL_CHUNK entries, and the sweep still covers every word once
    ifs = cantor_dust(8)
    rows = 0
    for block in ifs_mod.iter_levels(ifs, 2):
        assert block.e_w.size * 4 ** (ifs.n - 1) <= 16 * ifs_mod.LEVEL_CHUNK
        rows += block.e_w.size
    assert rows == word_count(256, 2)


def test_budget_guard():
    assert word_count(20, 9) > 10**7
    with pytest.raises(BudgetExceededError):
        iter_levels(menger_sponge(), 9)
    with pytest.raises(BudgetExceededError):
        list(iter_placed(menger_sponge(), 9))
    with pytest.raises(BudgetExceededError):
        list(iter_placed(menger_sponge(), 4, budget=100))
    with pytest.raises(ValueError):
        list(iter_placed(cantor_set(), -1))


def test_budget_env_override(monkeypatch):
    from fractal_dirac.ifs import default_budget

    monkeypatch.setenv("FRACTAL_DIRAC_BUDGET", "123")
    assert default_budget() == 123
    with pytest.raises(BudgetExceededError):
        list(iter_placed(cantor_set(), 8))
    monkeypatch.setenv("FRACTAL_DIRAC_BUDGET", "junk")
    with pytest.raises(ValueError):
        default_budget()


def test_placed_cube_invariants(rng):
    ifs = non_osc()
    for cube in iter_placed(ifs, 3):
        recomputed = float(np.prod([ifs.maps[s - 1].ratio for s in _word(cube)]))
        assert abs(cube.e_w - recomputed) <= 1e-12 * max(recomputed, 1e-300)
        expected = cube.offset + cube.e_w * (vertex_bits(2) @ cube.transform.T)
        np.testing.assert_allclose(cube.vertices, expected, atol=1e-14)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("cantor_set", np.log(2) / np.log(3)),
        ("cantor_dust2", 2 * np.log(2) / np.log(3)),
        ("cantor_dust3", 3 * np.log(2) / np.log(3)),
        ("sierpinski_carpet", np.log(8) / np.log(3)),
        ("menger_sponge", np.log(20) / np.log(3)),
        ("rotation", 4.0 / 3.0),
    ],
)
def test_similarity_dimension_equal_ratios(name, expected):
    assert abs(similarity_dimension(preset(name)) - expected) <= 1e-10


def test_similarity_dimension_residual(any_preset):
    dim = similarity_dimension(any_preset)
    assert abs(float(np.sum(any_preset.ratios**dim)) - 1.0) <= 1e-10


def test_non_osc_dimension_root():
    ifs = non_osc()
    dim = similarity_dimension(ifs)
    assert 1.8 < dim < 1.9

    def residual(s):
        return 4.0 * 3.0**-s + (2.0 / 3.0) ** s - 1.0

    assert residual(1.8) > 0 > residual(1.9)
    # independent root finder agrees
    reference = brentq(residual, 1.8, 1.9, xtol=1e-13)
    assert abs(dim - reference) <= 1e-10


@pytest.mark.parametrize(
    "name,expected",
    [
        ("cantor_set", True),
        ("cantor_dust2", True),
        ("cantor_dust3", True),
        ("sierpinski_carpet", True),
        ("menger_sponge", True),
        ("non_osc", True),
        ("rotation", False),
        ("lifted_cantor", False),
        ("lifted_carpet", False),
    ],
)
def test_vertex_closure(name, expected):
    assert vertex_closure_check(preset(name)) is expected


def test_carpet_index_sets():
    assert carpet_index_set(2) == [0, 1, 2, 3, 5, 6, 7, 8]
    extra = [9, 11, 15, 17, 18, 19, 20, 21, 23, 24, 25, 26]
    assert carpet_index_set(3) == sorted(carpet_index_set(2) + extra)
    assert len(carpet_index_set(4)) == 2**3 * 6  # 2^(n-1) (n+2) with n=4


def test_non_osc_preset_maps():
    ifs = non_osc()
    assert ifs.num_maps == 5
    ratios = sorted(m.ratio for m in ifs.maps)
    np.testing.assert_allclose(ratios, [1 / 3, 1 / 3, 1 / 3, 1 / 3, 2 / 3])
    np.testing.assert_allclose(ifs.maps[4].translation, [1 / 6, 1 / 6])


def test_rotation_preset_geometry():
    ifs = rotation()
    np.testing.assert_allclose(ifs.ratios, [1 / (2 * np.sqrt(2))] * 4)
    centers = np.array([[1, 1], [3, 1], [1, 3], [3, 3]]) / 4.0
    for m, c in zip(ifs.maps, centers):
        np.testing.assert_allclose(m.apply(np.array([0.5, 0.5])), c, atol=1e-14)


def test_lifted_carpet_shape():
    ifs = lifted_carpet()
    assert ifs.n == 3 and ifs.num_maps == 8
    assert all(m.translation[2] == 0.0 for m in ifs.maps)


def test_preset_parser_errors():
    with pytest.raises(ValueError):
        preset("no_such_thing")
    with pytest.raises(ValueError):
        preset("cantor_dustX")
    with pytest.raises(ValueError):
        preset("rotation:abc")
    for angle in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="finite"):
            preset(f"rotation:{angle}")


def test_similitude_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        Similitude(ratio=1.0, matrix=eye, translation=np.zeros(2))
    with pytest.raises(ValueError):
        Similitude(ratio=0.5, matrix=np.array([[1.0, 0.3], [0.0, 1.0]]), translation=np.zeros(2))
    with pytest.raises(ValueError):  # image escapes the unit cube
        Similitude(ratio=0.5, matrix=eye, translation=np.array([0.9, 0.0]))
    with pytest.raises(ValueError, match="contained"):  # NaN fails the containment test
        Similitude(ratio=0.5, matrix=eye, translation=np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="orthogonal"):
        Similitude(ratio=0.5, matrix=np.array([[np.nan, 0.0], [0.0, 1.0]]), translation=np.zeros(2))
    with pytest.raises(ValueError, match="n x n"):  # a stack of matrices is not one map
        Similitude(ratio=0.5, matrix=np.stack([eye, eye]), translation=np.zeros(2))
    with pytest.raises(ValueError):
        IfsSystem(n=2, maps=())


def test_json_round_trip(tmp_path):
    ifs = rotation()
    path = tmp_path / "rotation.json"
    save_ifs(ifs, path)
    loaded = load_ifs(path)
    assert loaded.n == ifs.n and loaded.num_maps == ifs.num_maps
    for a, b in zip(loaded.maps, ifs.maps):
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)
        np.testing.assert_allclose(a.translation, b.translation, atol=1e-15)
        assert a.ratio == b.ratio


def test_json_rejects_bad_documents(tmp_path):
    doc = {
        "n": 2,
        "maps": [
            {"ratio": 0.5, "matrix": [1.0, 0.3, 0.0, 1.0], "translation": [0.0, 0.0]}
        ],
        "label": "bad",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_ifs(path)
    path.write_text(json.dumps({"maps": []}))
    with pytest.raises(ValueError):
        load_ifs(path)
