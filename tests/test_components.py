import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import ALL_PRESETS, LEVEL_ONE_SYSTEMS, NEAR_TOUCHING, compose, random_orthogonal
from fractal_dirac import (
    CapacityError,
    IfsSystem,
    Similitude,
    components,
    level_one_components,
    preset,
    vertex_closure_check,
)
from fractal_dirac.components import (
    INTERSECT_TOL,
    Component,
    ComponentReport,
    cubes_intersect,
    point_in_cube,
)
from fractal_dirac.cube import vertex_bits
from fractal_dirac.ifs import CONTAINMENT_TOL, PlacedCube, _children, _root


def _placed_cube(offset, e_w, n=2, transform=None):
    transform = np.eye(n) if transform is None else transform
    return PlacedCube(level=0, words=np.zeros(0, int), e_w=e_w, transform=transform,
                      offset=np.asarray(offset, float))


def cube_halfspaces(placed):
    """Inequalities A x <= b cutting out a placed cube (2n rows)."""
    rows, rhs = [], []
    for axis in placed.transform.T:  # direction of each of the cube's edges
        level = float(axis @ placed.offset)
        rows += [-axis, axis]
        rhs += [-level, level + placed.e_w]
    return np.array(rows), np.array(rhs)


def lp_intersect(c1, c2):
    """Oracle: phase-1 LP over both cubes' half-spaces, each relaxed by INTERSECT_TOL."""
    a1, b1 = cube_halfspaces(c1)
    a2, b2 = cube_halfspaces(c2)
    a = np.vstack([a1, a2])
    b = np.concatenate([b1, b2]) + INTERSECT_TOL
    res = linprog(c=np.zeros(a.shape[1]), A_ub=a, b_ub=b,
                  bounds=[(None, None)] * a.shape[1], method="highs")
    return res.status == 0


def _centred_cube(center, e_w, transform):
    return _placed_cube(center - transform @ np.full(center.size, e_w / 2), e_w,
                      center.size, transform)


def test_halfspaces_describe_cube():
    cube = _placed_cube([0.25, 0.5], 0.25)
    a, b = cube_halfspaces(cube)
    inside = np.array([0.3, 0.6])
    outside = np.array([0.6, 0.6])
    assert np.all(a @ inside <= b + 1e-12)
    assert not np.all(a @ outside <= b + 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_pairs_match_lp_oracle(rng, n):
    # the second cube's edges: all new, all shared up to sign and order, or all but two shared
    def plane_rotation():
        rot = np.eye(n)
        i, j = rng.choice(n, size=2, replace=False)
        angle = rng.uniform(0.1, 3.0)
        c, s = np.cos(angle), np.sin(angle)
        rot[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        return rot

    verdicts = []
    for trial in range(150):
        t1 = random_orthogonal(rng, n)
        e1, e2 = rng.uniform(0.2, 1.0, size=2)
        t2 = (random_orthogonal(rng, n),
              t1[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n),
              t1 @ plane_rotation())[trial % 3]
        c1 = _centred_cube(rng.uniform(-1, 1, size=n), e1, t1)
        step = rng.standard_normal(n)
        step *= rng.uniform(0, (e1 + e2) * np.sqrt(n) / 2) / np.linalg.norm(step)
        c2 = _centred_cube(c1.centers() + step, e2, t2)
        verdict = cubes_intersect(c1, c2)
        assert verdict == lp_intersect(c1, c2), trial
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < 130


def test_level_one_pairs_match_lp_oracle():
    for name in ALL_PRESETS + ["sc3", "rotation:1.1"]:
        ifs = preset(name)
        cubes = [compose(ifs, (s,)) for s in range(1, ifs.num_maps + 1)]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                assert cubes_intersect(cubes[i], cubes[j]) == lp_intersect(cubes[i], cubes[j])


# Separations in (INTERSECT_TOL, 1e-7] are left out: there HiGHS's own primal
# feasibility tolerance (1e-7) decides the oracle's verdict, not the geometry.
@pytest.mark.parametrize("shared", ["face", "edge", "corner"])
@pytest.mark.parametrize("rotated", [False, True])
def test_touching_and_nearly_touching_pairs(rng, shared, rotated):
    n, e = 3, 1.0 / 3.0
    t = random_orthogonal(rng, n) if rotated else np.eye(n)
    shift = t @ {"face": [1.0, 0, 0], "edge": [1.0, 1, 0], "corner": [1.0, 1, 1]}[shared]
    cube = _placed_cube(np.full(n, 0.2), e, n, t)
    touching = _placed_cube(cube.offset + e * shift, e, n, t)
    apart = _placed_cube(cube.offset + (e + 1e-6) * shift, e, n, t)
    assert cubes_intersect(cube, touching) and lp_intersect(cube, touching)
    assert not cubes_intersect(cube, apart) and not lp_intersect(cube, apart)


def test_high_dimensional_pairs(rng):
    # a fully rotated pair is decided to n = 8 (11,440 normals) and refused above
    t = random_orthogonal(rng, 8)
    c1 = _centred_cube(np.zeros(8), 1.0, np.eye(8))
    reach = 0.5 + np.abs(t[0]).sum() / 2  # both cubes' half-extents along the first axis
    for shift, expected in ((0.5, True), (reach + 1e-3, False)):
        c2 = _centred_cube(shift * np.eye(8)[0], 1.0, t)
        assert cubes_intersect(c1, c2) is expected is lp_intersect(c1, c2)
    c1 = _centred_cube(np.zeros(9), 1.0, np.eye(9))
    c2 = _centred_cube(np.zeros(9), 1.0, random_orthogonal(rng, 9))
    with pytest.raises(CapacityError, match="43758 separating-axis normals"):
        cubes_intersect(c1, c2)
    # axis-aligned cubes share their directions: n normals at any n
    assert cubes_intersect(_placed_cube(np.zeros(12), 0.5, 12),
                           _placed_cube(np.full(12, 0.5), 0.5, 12))


def test_touching_cubes_connect():
    left = _placed_cube([0.0, 0.0], 1.0 / 3.0)
    right = _placed_cube([1.0 / 3.0, 0.0], 1.0 / 3.0)
    far = _placed_cube([2.0 / 3.0, 0.0], 1.0 / 3.0)
    assert cubes_intersect(left, right)
    assert not cubes_intersect(left, far)


def test_rotated_cubes_touching_at_corner():
    ifs = preset("rotation")
    c1 = compose(ifs, (1,))
    c2 = compose(ifs, (2,))
    assert cubes_intersect(c1, c2)
    assert point_in_cube(c1, np.array([0.25, 0.25]))
    assert not point_in_cube(c1, np.array([0.0, 0.0]))


def test_cantor_dust_components():
    report = level_one_components(preset("cantor_dust2"))
    assert report.count == 4
    for comp in report.components:
        assert len(comp.cubes) == 1
        assert len(comp.vertices) == 1
        assert abs(comp.d0 - comp.d1) == 1
    assert any(c.d0 - c.d1 == 1 for c in report.components)


def test_carpet_single_balanced_component():
    report = level_one_components(preset("sierpinski_carpet"))
    assert report.count == 1
    assert report.components[0].d0 == report.components[0].d1 == 2


def test_menger_single_balanced_component():
    report = level_one_components(preset("menger_sponge"))
    assert report.count == 1
    assert report.components[0].d0 == report.components[0].d1 == 4


def test_rotation_components():
    report = level_one_components(preset("rotation"))
    assert report.count == 5
    ring = [c for c in report.components if len(c.cubes) == 4]
    assert len(ring) == 1 and ring[0].d0 == ring[0].d1 == 0
    singles = [c for c in report.components if not c.cubes]
    assert len(singles) == 4
    assert all(len(c.vertices) == 1 for c in singles)


def test_lifted_carpet_components():
    report = level_one_components(preset("lifted_carpet"))
    assert report.count == 5
    unbalanced = [c for c in report.components if c.d0 != c.d1]
    assert len(unbalanced) == 4  # the four isolated top-face vertices


def test_non_osc_overlapping_component():
    report = level_one_components(preset("non_osc"))
    assert report.count == 1
    assert report.components[0].d0 == report.components[0].d1 == 2


def test_parity_conservation(any_preset):
    report = level_one_components(any_preset)
    d0 = sum(c.d0 for c in report.components)
    d1 = sum(c.d1 for c in report.components)
    assert d0 + d1 == 2**any_preset.n
    assert d0 == d1 == 2 ** (any_preset.n - 1)


def _level_one_oracle(ifs):
    """Components from one compose call per symbol, cubes_intersect on every pair and
    the scalar pull-back of every vertex into every cube, merged by relabelling each
    item with the least item of its set."""
    cubes = [compose(ifs, (s,)) for s in range(1, ifs.num_maps + 1)]
    corners = vertex_bits(ifs.n).astype(float)
    m = len(cubes)
    label = list(range(m + len(corners)))

    def join(a, b):
        low, high = sorted((label[a], label[b]))
        label[:] = [low if x == high else x for x in label]

    for i in range(m):
        for j in range(i + 1, m):
            if cubes_intersect(cubes[i], cubes[j]):
                join(i, j)
    for v, corner in enumerate(corners):
        for i, cube in enumerate(cubes):
            y = cube.transform.T @ (corner - cube.offset)
            if np.all(y >= -INTERSECT_TOL) and np.all(y <= cube.e_w + INTERSECT_TOL):
                join(i, m + v)
    components = []
    for least in sorted(set(label)):
        members = [k for k, x in enumerate(label) if x == least]
        verts = tuple(k - m for k in members if k >= m)
        d1 = sum(v % 2 for v in verts)
        components.append(Component(cubes=tuple(k + 1 for k in members if k < m),
                                    vertices=verts, d0=len(verts) - d1, d1=d1))
    return ComponentReport(n=ifs.n, components=tuple(components))


@pytest.mark.parametrize("name", LEVEL_ONE_SYSTEMS)
def test_level_one_components_match_per_cube_oracle(name):
    ifs = preset(name)
    assert level_one_components(ifs) == _level_one_oracle(ifs)


def _closure_oracle(ifs):
    """The all-vertex scan: every cube corner against every vertex image."""
    corners = vertex_bits(ifs.n).astype(float)
    images = _children(ifs, _root(ifs)).vertices.reshape(-1, ifs.n)
    return all(np.min(np.max(np.abs(images - v), axis=1)) <= CONTAINMENT_TOL for v in corners)


@pytest.mark.parametrize("ifs", NEAR_TOUCHING, ids=lambda ifs: ifs.label)
def test_near_touching_systems_match_the_oracles(ifs):
    # cubes gap INTERSECT_TOL apart at and around the 2 INTERSECT_TOL where the widened cubes
    # touch, and a corner at and around CONTAINMENT_TOL from a vertex: the box candidates
    # keep every pair and every corner the exact tests accept
    assert level_one_components(ifs) == _level_one_oracle(ifs)
    assert vertex_closure_check(ifs) is _closure_oracle(ifs)


def test_near_touching_systems_sit_on_both_sides_of_the_tolerances():
    counts = {ifs.label: level_one_components(ifs).count for ifs in NEAR_TOUCHING}
    # n = 1 joins the pair exactly at 2 INTERSECT_TOL; vertices come in singletons
    assert [counts[f"pair1a{gap}"] for gap in (1.9, 2, 2.1)] == [3, 3, 4]
    assert [counts[f"pair3r{gap}"] for gap in (-1, 2, 3)] == [9, 9, 10]
    closed = [vertex_closure_check(ifs) for ifs in NEAR_TOUCHING if ifs.label.startswith("tiling2:")]
    assert closed == [True] * 5 + [False] * 4  # gaps 0, +-0.5, +-1, then 1.9, 2, 2.1, 3


def test_cubes_intersect_runs_on_box_candidates_only(monkeypatch):
    pairs = []

    def counted(c1, c2):
        pairs.append((int(c1.words[-1]), int(c2.words[-1])))
        return cubes_intersect(c1, c2)

    monkeypatch.setattr(components, "cubes_intersect", counted)
    level_one_components(preset("cantor_dust6"))
    assert pairs == []  # of 2016 pairs, no two boxes within the pad
    ifs = preset("menger_sponge")
    level_one_components(ifs)
    verts = _children(ifs, _root(ifs)).vertices
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    pad = 3 * np.sqrt(ifs.n) * INTERSECT_TOL
    near = {(i + 1, j + 1) for i in range(ifs.num_maps) for j in range(i + 1, ifs.num_maps)
            if np.all(lo[i] - hi[j] <= pad) and np.all(lo[j] - hi[i] <= pad)}
    assert sorted(pairs) == sorted(near) and len(pairs) == 48  # of 190 pairs


@pytest.mark.parametrize("name", ["menger_sponge", "sierpinski_carpet", "rotation:0.7", "non_osc",
                                  "lifted_carpet", "cantor_dust4"])
def test_level_one_layer_is_the_same_in_small_chunks(monkeypatch, name):
    # box candidates a row of cubes at a time, the vertices of one candidate cube at a time
    monkeypatch.setattr(components, "LEVEL_CHUNK", 2)
    ifs = preset(name)
    assert level_one_components(ifs) == _level_one_oracle(ifs)
    assert vertex_closure_check(ifs) is _closure_oracle(ifs)


def test_cube_that_meets_no_corner():
    # no corner is a candidate of the one central cube: five singleton components, not closed
    ifs = IfsSystem(2, (Similitude(0.5, np.eye(2), np.full(2, 0.25)),))
    report = level_one_components(ifs)
    assert report == _level_one_oracle(ifs) and report.count == 5
    assert vertex_closure_check(ifs) is False


@pytest.mark.parametrize("name", ["rotation:0.7", "non_osc", "menger_sponge", "lifted_carpet"])
def test_block_membership_matches_per_row_calls(rng, name):
    # one row of memberships per cube of the level-one block, one column per point:
    # the cube vertices, points on the images' corners and random points of the cube
    ifs = preset(name)
    block = _children(ifs, _root(ifs))
    points = np.vstack([vertex_bits(ifs.n), block.vertices[:, -1], rng.uniform(size=(40, ifs.n))])
    table = point_in_cube(block, points)
    assert table.shape == (ifs.num_maps, len(points)) and table.dtype == bool
    for i in range(ifs.num_maps):
        cube = block.rows(i)
        assert table[i].tolist() == [point_in_cube(cube, p) for p in points]
        assert point_in_cube(cube, points).tolist() == table[i].tolist()
    assert table.any() and not table.all()
