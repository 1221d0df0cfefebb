import json
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    LEVEL_ONE_SYSTEMS,
    NEAR_TOUCHING,
    bits,
    compose,
    levels_oracle,
    random_orthogonal,
    vertices_oracle,
)
from fractal_dirac import (
    BudgetExceededError,
    IfsSystem,
    Similitude,
    cantor_dust,
    cantor_set,
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
from fractal_dirac import presets
from fractal_dirac.cube import vertex_bits
from fractal_dirac.errors import CapacityError
from fractal_dirac.ifs import CONTAINMENT_TOL, PlacedCube, _box, _children, _root, iter_levels, word_count
from fractal_dirac.presets import lifted_carpet, non_osc, sc


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


def dihedral_quarters():
    """Four maps of ratio 1/2 onto the quarters of the square, each with its own orthogonal part
    (the identity, a quarter turn, a reflection and the axis swap), so a block's rows differ in T."""
    mats = [np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([-1.0, 1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]])]
    maps = [Similitude(0.5, m, 0.5 * np.array(c) - 0.5 * np.minimum(m, 0.0).sum(axis=1))
            for m, c in zip(mats, [(0, 0), (1, 0), (0, 1), (1, 1)])]
    return IfsSystem(2, tuple(maps), label="dihedral_quarters")


@pytest.mark.parametrize("name", ["cantor_set", "menger_sponge", "rotation", "non_osc", "dihedral"])
def test_iter_placed_rows_equal_the_level_rows(name):
    # the streamed rows are the level rows themselves: same values, dtypes and types
    ifs = dihedral_quarters() if name == "dihedral" else preset(name)
    rows = iter_placed(ifs, 3)
    for block in iter_levels(ifs, 3):
        shared = None
        for i in range(block.e_w.size):
            row, ref = next(rows), block.rows(i)
            if ifs.homothety:  # one read-only identity view for every row of the block
                shared = row.transform if shared is None else shared
                assert row.transform is shared and not shared.flags.writeable
            assert isinstance(row, PlacedCube) and row.level == ref.level == block.level
            assert type(row.e_w) is type(ref.e_w) and row.e_w == ref.e_w
            for field in ("words", "transform", "offset"):
                got, want = getattr(row, field), getattr(ref, field)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert next(rows, None) is None


def test_placed_row_fields_cannot_be_assigned():
    row = next(iter_placed(rotation(), 1))
    for field in ("level", "words", "e_w", "transform", "offset"):
        with pytest.raises(AttributeError):
            setattr(row, field, None)


@pytest.mark.parametrize("name", ["rotation:0.7", "non_osc"])
def test_level_blocks_order_contract(monkeypatch, name):
    # a tiny chunk forces every level of depth 4 to be split across blocks
    monkeypatch.setattr(ifs_mod, "LEVEL_CHUNK", 5)
    ifs = preset(name)
    seen = set()
    by_length = {}
    latest = {}  # the words of the latest block of each level
    for block in ifs_mod.iter_levels(ifs, 4):
        assert isinstance(block, PlacedCube) and block.n == ifs.n
        assert 1 <= block.e_w.size <= 5
        assert block.words.shape == (block.e_w.size, block.level)
        latest[block.level] = set(map(tuple, block.words.tolist()))
        if block.level:  # depth first: every prefix is a row of the latest block one level up
            assert {word[:-1] for word in latest[block.level]} <= latest[block.level - 1]
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


# every preset whose maps are all x -> r x + b (rotation:0's matrix holds a -0.0, which == 0.0)
HOMOTHETY_PRESETS = (
    ["cantor_set", "lifted_cantor", "sierpinski_carpet", "menger_sponge", "lifted_carpet",
     "non_osc", "rotation:0", "sc2", "sc3", "sc4"]
    + [f"cantor_dust{n}" for n in range(1, 13)]
)


def test_the_homothety_flag_is_read_off_the_matrices():
    assert all(preset(name).homothety is True for name in HOMOTHETY_PRESETS)
    assert not any(preset(name).homothety for name in ["rotation", "rotation:0.5", "rotation:1.3"])
    eye, flip = np.eye(2), np.diag([-1.0, 1.0])
    maps = (Similitude(0.5, eye, np.zeros(2)), Similitude(0.5, flip, np.array([1.0, 0.0])))
    assert IfsSystem(2, maps[:1]).homothety and not IfsSystem(2, maps).homothety


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("name", HOMOTHETY_PRESETS)
def test_homothety_blocks_are_the_matmul_route_bit_for_bit(name, masked):
    # each block of the sweep, to the deepest depth <= 3 with N^depth <= 2^16 (cantor_dust9..12:
    # depth 1), against the rows of the same words formed with T M and T b through @; a mask
    # keeping the rows whose word index is not 1 mod 3 must visit just the subtrees it keeps
    ifs = preset(name)
    big_n = ifs.num_maps
    depth = max(d for d in range(4) if big_n**d <= 1 << 16)
    levels, kept = levels_oracle(ifs, depth), {}
    sweep = iter_levels(ifs, depth)
    block, seen = next(sweep), [0] * (depth + 1)
    while True:
        level = block.level
        index = (block.words.astype(np.int64) - 1) @ big_n ** np.arange(level)[::-1]
        ref = levels[level].rows(index)
        assert np.array_equal(block.words, ref.words) and block.words.dtype == ref.words.dtype
        for got, want in zip(block[2:], ref[2:]):
            assert np.array_equal(bits(got), bits(want))
        assert block.transform.strides[0] == 0 and not block.transform.flags.writeable
        centre = ref.offset + ref.e_w[:, None] * (ref.transform @ np.full(ifs.n, 0.5))
        assert np.array_equal(bits(block.centers()), bits(centre))
        for got, want in zip(_box(*block[2:]), _box(*ref[2:])):
            assert np.array_equal(bits(got), bits(want))
        if ifs.n <= 4:
            assert np.array_equal(bits(block.vertices), bits(vertices_oracle(ref)))
        if level:  # every row's prefix was kept
            assert set((index // big_n).tolist()) <= kept[level - 1]
        seen[level] += index.size
        keep = index % 3 != 1 if masked else np.ones(index.size, bool)
        kept.setdefault(level, set()).update(index[keep].tolist())
        try:
            block = sweep.send(keep if masked else None)
        except StopIteration:
            break
    assert seen == [1] + [big_n * len(kept[level]) for level in range(depth)]


@pytest.mark.parametrize("rows", [0, 1, 300])
@pytest.mark.parametrize("n", range(1, 13))
def test_vertices_are_the_blas_product_bit_for_bit(rng, n, rows):
    t = np.array([random_orthogonal(rng, n) for _ in range(rows)]).reshape(rows, n, n)
    block = PlacedCube(1, np.ones((rows, 1), np.uint8), rng.uniform(1e-3, 1.0, rows), t,
                       rng.uniform(-1.0, 1.0, (rows, n)))
    got = block.vertices
    assert got.shape == (rows, 2**n, n)
    for start in range(0, max(rows, 1), 25):  # the oracle 25 rows at a time (n = 12: 9.8 MB)
        part = block.rows(slice(start, start + 25))
        assert np.array_equal(bits(got[start: start + 25]), bits(vertices_oracle(part)))
    if rows:
        cube = block.rows(rows - 1)
        assert np.array_equal(bits(cube.vertices), bits(vertices_oracle(cube)))


@pytest.mark.parametrize("name", ["rotation", "rotation:0.5", "rotation:0.7", "rotation:1.3", "dihedral"])
def test_rotation_vertices_are_the_blas_product_bit_for_bit(name):
    for block in iter_levels(dihedral_quarters() if name == "dihedral" else preset(name), 4):
        assert block.transform.flags.writeable == (block.level > 0)  # @ below the shared root
        assert np.array_equal(bits(block.vertices), bits(vertices_oracle(block)))
        cube = block.rows(block.e_w.size - 1)
        assert np.array_equal(bits(cube.vertices), bits(vertices_oracle(cube)))


@pytest.mark.parametrize("name", ["cantor_set", "menger_sponge", "cantor_dust12"])
def test_a_shared_transform_stays_shared_down_to_no_rows(name):
    ifs = preset(name)
    n, block = ifs.n, _children(ifs, _root(ifs))
    half = block.rows(np.arange(ifs.num_maps) % 2 == 0)  # a mask, yet one broadcast identity
    assert half.transform.shape == (ifs.num_maps // 2, n, n) and half.transform.strides[0] == 0
    assert np.array_equal(half.transform, np.broadcast_to(np.eye(n), half.transform.shape))
    with pytest.raises(ValueError):
        half.transform[0, 0, 0] = 2.0
    assert np.array_equal(block.rows(1).transform, np.eye(n))
    none = block.rows(np.zeros(ifs.num_maps, bool))
    assert none.transform.shape == (0, n, n)
    assert none.rows(slice(0, 3)).transform.shape == none.rows(none.e_w > 0).transform.shape == (0, n, n)
    assert none.vertices.shape == (0, 2**n, n) and none.centers().shape == (0, n)
    assert [side.shape for side in _box(*none[2:])] == [(0, n), (0, n)]
    assert _children(ifs, none).transform.shape == (0, n, n)


def test_level_blocks_bounded_in_high_dimension():
    # 256 maps in n = 8: a block's per-cube 2^(n-1) x 2^(n-1) arrays stay within
    # 16 LEVEL_CHUNK entries, and the sweep still covers every word once
    ifs = cantor_dust(8)
    rows = 0
    for block in ifs_mod.iter_levels(ifs, 2):
        assert block.e_w.size * 4 ** (ifs.n - 1) <= 16 * ifs_mod.LEVEL_CHUNK
        rows += block.e_w.size
    assert rows == word_count(256, 2)


def test_a_sweep_past_the_recursion_limit():
    # one map gives depth + 1 words, so the budget admits a sweep thousands of levels deep
    ifs = IfsSystem(1, (Similitude(0.999, np.eye(1), np.zeros(1)),))
    levels = [(block.level, block.e_w.size) for block in iter_levels(ifs, 5000)]
    assert levels == [(level, 1) for level in range(5001)]
    assert sum(1 for _ in iter_placed(ifs, 5000)) == 5001


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


@pytest.mark.parametrize("name", LEVEL_ONE_SYSTEMS)
def test_vertex_closure_matches_similitude_images(name):
    # the images of the cube vertices under each map, stacked map by map, are bit
    # for bit the vertices of the level-one block and decide the closure alike
    ifs = preset(name)
    corners = vertex_bits(ifs.n).astype(float)
    images = np.vstack([m.ratio * (corners @ m.matrix.T) + m.translation for m in ifs.maps])
    assert np.array_equal(images, _children(ifs, _root(ifs)).vertices.reshape(-1, ifs.n))
    closed = all(np.min(np.max(np.abs(images - v), axis=1)) <= ifs_mod.CONTAINMENT_TOL
                 for v in corners)
    assert vertex_closure_check(ifs) is closed


def test_carpet_family_map_counts():
    # ternary digit vectors with at most one digit 1: 2^n + n 2^(n-1) = 2^(n-1) (n+2)
    assert all(sc(n).num_maps == 2 ** (n - 1) * (n + 2) for n in (2, 3, 4))


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
        np.testing.assert_allclose(m.ratio * (np.array([0.5, 0.5]) @ m.matrix.T) + m.translation, c,
                                   atol=1e-14)


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



@pytest.mark.parametrize("name", ["cantor_dust13", "sc13"])
def test_oversize_preset_family_is_refused_before_any_map(monkeypatch, name):
    built = []
    original = presets.Similitude

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(presets, "Similitude", counted)
    with pytest.raises(CapacityError, match=r"^n=13 exceeds the dense-storage cap n<=12$"):
        preset(name)
    assert built == []

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


def _rotated_system(n, seed, num_maps=3):
    """Seeded rotated maps of ratio 1 / (2 sqrt n), each image centred in the middle half
    of the unit cube: a box of width at most 1/2 (a row of T has 1-norm <= sqrt n)."""
    rng = np.random.default_rng(seed)
    ratio, maps = 0.5 / np.sqrt(n), []
    for _ in range(num_maps):
        t = random_orthogonal(rng, n)
        maps.append(Similitude(ratio, t, rng.uniform(0.25, 0.75, n) - ratio * t @ np.full(n, 0.5)))
    return IfsSystem(n, tuple(maps), label=f"rotated{n}:{seed}")


def _assert_boxes_are_vertex_bounds(ifs):
    level_one = _children(ifs, _root(ifs))
    # the level-one block and the depth-2 children of its first eight cubes
    for block in (level_one, _children(ifs, level_one.rows(slice(0, 8)))):
        lo, hi = _box(*block[2:])
        verts = block.vertices
        assert lo.tobytes() == verts.min(axis=1).tobytes()
        assert hi.tobytes() == verts.max(axis=1).tobytes()


@pytest.mark.parametrize("name", LEVEL_ONE_SYSTEMS)
def test_boxes_are_the_vertex_bounds_on_the_level_one_systems(name):
    _assert_boxes_are_vertex_bounds(preset(name))


@pytest.mark.parametrize("ifs", NEAR_TOUCHING, ids=lambda ifs: ifs.label)
def test_boxes_are_the_vertex_bounds_on_near_touching_systems(ifs):
    _assert_boxes_are_vertex_bounds(ifs)


@pytest.mark.parametrize("n", range(1, 13))
def test_boxes_are_the_vertex_bounds_on_rotated_systems(n):
    # a row of a rotation has n nonzero entries, so the extreme vertex sums all n of them
    for seed in range(8 if n <= 8 else 2):
        _assert_boxes_are_vertex_bounds(_rotated_system(n, seed))


def _image_contained(ratio, t, b):
    """The containment test over all 2^n vertex images: the oracle for Similitude's test on its box."""
    image = b + ratio * (vertex_bits(t.shape[0]) @ t.T)
    return bool(image.min() >= -CONTAINMENT_TOL and image.max() <= 1.0 + CONTAINMENT_TOL)


def test_similitude_containment_matches_the_vertex_images():
    # maps whose image reaches within 4 ulps of the translation past -CONTAINMENT_TOL or
    # 1 + CONTAINMENT_TOL on one axis, where a bound one rounding off would flip decisions
    rng = np.random.default_rng(29)
    accepted = []
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        t = random_orthogonal(rng, n)
        if rng.random() < 0.25:  # a signed permutation: rows with a single entry
            t = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        ratio = float(rng.uniform(0.05, 0.95) / np.sqrt(n))
        corners = vertex_bits(n) @ t.T
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        b = 0.5 - ratio * (lo + hi) / 2
        axis = rng.integers(n)
        edge = -CONTAINMENT_TOL - ratio * lo[axis] if rng.random() < 0.5 else (
            1.0 + CONTAINMENT_TOL - ratio * hi[axis])
        b[axis] = edge + int(rng.integers(-4, 5)) * np.spacing(edge)
        expected = _image_contained(ratio, t, b)
        try:
            Similitude(ratio, t, b)
        except ValueError:
            assert not expected
        else:
            assert expected
        accepted.append(expected)
    assert 2000 < sum(accepted) < 8000  # both sides of the tolerance are reached


def test_similitude_keeps_the_dimension_cap(tmp_path):
    # the containment box needs no vertex table, so the cap n <= 12 is checked by itself
    with pytest.raises(CapacityError, match=r"^n=13 exceeds the dense-storage cap n<=12$"):
        Similitude(0.5, np.eye(13), np.zeros(13))
    path = tmp_path / "n13.json"
    path.write_text(json.dumps({"n": 13, "maps": [
        {"ratio": 0.5, "matrix": np.eye(13).ravel().tolist(), "translation": [0.0] * 13}]}))
    with pytest.raises(CapacityError):
        load_ifs(path)
    Similitude(0.5, np.eye(12), np.zeros(12))


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
