import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import LEVEL_ONE_SYSTEMS, NEAR_TOUCHING
from fractal_dirac import (
    Box,
    BudgetExceededError,
    IfsSystem,
    ProjectionSpec,
    Similitude,
    cantor_dust,
    cantor_set,
    closed_box,
    connes_gap_pairing,
    index_pairing,
    interval_projection,
    iter_placed,
    ktheory,
    level_one_components,
    load_projection,
    nonvanish_certificate,
    preset,
    save_projection,
    vertex_closure_check,
)
from fractal_dirac.cube import u_matrix, vertex_bits
from fractal_dirac.ifs import _box, _children, _root, _sweep
from fractal_dirac.ktheory import MEMBERSHIP_TOL, _prunable, component_projection


def test_box_membership_flags():
    closed = closed_box([0.0], [1.0 / 3.0])
    pts = np.array([[0.0], [1.0 / 3.0], [1.0 / 3.0 + 1e-6]])
    assert closed.contains(pts).tolist() == [True, True, False]
    half_open = Box(
        lo=np.array([0.0]),
        hi=np.array([1.0 / 3.0]),
        lo_closed=np.array([True]),
        hi_closed=np.array([False]),
    )
    assert half_open.contains(pts).tolist() == [True, False, False]


def test_box_validation():
    with pytest.raises(ValueError):
        closed_box([1.0], [0.0])
    for lo in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            closed_box(lo, [np.inf, 0.5])
    with pytest.raises(ValueError):
        ProjectionSpec(regions=())
    with pytest.raises(ValueError, match="one dimension"):
        ProjectionSpec(regions=(closed_box([0.0, 0.0], [0.5, 0.5]), closed_box([0.0], [0.5])))


def test_projection_json_round_trip(tmp_path):
    proj = ProjectionSpec(
        regions=(
            closed_box([0.0, 0.0], [0.5, 0.25]),
            Box(
                lo=np.array([0.5, 0.5]),
                hi=np.array([1.0, 1.0]),
                lo_closed=np.array([False, True]),
                hi_closed=np.array([True, False]),
            ),
        )
    )
    path = tmp_path / "proj.json"
    save_projection(proj, path)
    loaded = load_projection(path)
    assert loaded.to_json_dict() == proj.to_json_dict()
    with pytest.raises(ValueError):
        ProjectionSpec.from_json_dict({"bad": []})


@pytest.mark.parametrize("k", range(1, 22))  # depth k + 3 <= 24: 3^-24 > 2 MEMBERSHIP_TOL
def test_interval_pairings(k):
    report = index_pairing(cantor_set(), interval_projection(k), k + 3)
    assert report.value == k
    assert report.stabilized
    assert all(isinstance(v, int) for v in report.per_depth)
    assert report.per_depth[-1] == k


@pytest.mark.parametrize("proj,depth", [
    (interval_projection(22), 25),  # 3^-25 is below 2 MEMBERSHIP_TOL
    (interval_projection(26), 29),  # used to print 25 as stabilized
    (ProjectionSpec((closed_box([0.5], [0.5]),)), 3),  # a region of zero width
])
def test_pairing_below_the_membership_resolution_is_refused(proj, depth):
    with pytest.raises(ValueError, match="membership is not decided"):
        index_pairing(cantor_set(), proj, depth)


@pytest.mark.parametrize("k", range(1, 7))
def test_gap_module_pairing_is_one(k):
    assert connes_gap_pairing(k, k + 3) == 1


def _gap_pairing_unpruned(k, depth):
    """Every removed interval of levels 1..depth: the reference for the pruned sweep."""
    cutoff = Fraction(1, 3**k)
    kept, total = [(Fraction(0), Fraction(1))], 0
    for _ in range(depth):
        next_kept = []
        for a, b in kept:
            third = (b - a) / 3
            total += int(0 <= a + third <= cutoff) - int(0 <= b - third <= cutoff)
            next_kept += [(a, a + third), (b - third, b)]
        kept = next_kept
    return total


def test_gap_module_matches_unpruned_sweep():
    for depth in range(1, 13):
        for k in range(1, depth + 1):
            assert connes_gap_pairing(k, depth) == _gap_pairing_unpruned(k, depth)


def test_gap_module_memory_is_bounded():
    tracemalloc.start()
    try:
        value = connes_gap_pairing(3, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 2**20  # the unpruned sweep holds 2^14 kept intervals, about 9 MB


def test_gap_module_depth_precondition():
    with pytest.raises(ValueError):
        connes_gap_pairing(5, 4)
    with pytest.raises(ValueError):
        connes_gap_pairing(0, 4)


@pytest.mark.parametrize("name", ["cantor_set", "cantor_dust2", "sierpinski_carpet"])
def test_full_cube_projection_pairs_to_zero(name):
    ifs = preset(name)
    proj = ProjectionSpec(regions=(closed_box([0.0] * ifs.n, [1.0] * ifs.n),))
    report = index_pairing(ifs, proj, 3)
    assert report.value == 0
    assert report.stabilized


def test_pairing_additive_over_disjoint_projections():
    cs = cantor_set()
    left = ProjectionSpec(regions=(closed_box([0.0], [1.0 / 3.0]),))
    right = ProjectionSpec(regions=(closed_box([2.0 / 3.0], [1.0]),))
    union = ProjectionSpec(regions=left.regions + right.regions)
    depth = 6
    v_left = index_pairing(cs, left, depth).value
    v_right = index_pairing(cs, right, depth).value
    v_union = index_pairing(cs, union, depth).value
    assert v_union == v_left + v_right


def _brute_force_pairing(ifs, proj, depth):
    """No pruning: classify every placed vertex up to the cutoff depth."""
    total = 0
    for cube in iter_placed(ifs, depth):
        inside = proj.contains(cube.vertices)
        parity = np.arange(2**ifs.n) % 2
        total += int(np.sum(inside & (parity == 0))) - int(np.sum(inside & (parity == 1)))
    return total


@pytest.mark.parametrize(
    "name,regions,depth",
    [
        ("cantor_set", (closed_box([0.0], [1.0 / 9.0]),), 6),
        ("cantor_dust2", (closed_box([0.0, 0.0], [1.0 / 3.0, 1.0 / 3.0]),), 4),
        ("rotation", (closed_box([-0.05, -0.05], [0.05, 0.05]),), 3),
        ("non_osc", (closed_box([0.6, 0.6], [1.0, 1.0]),), 4),
    ],
)
def test_pruned_pairing_matches_brute_force(name, regions, depth):
    ifs = preset(name)
    proj = ProjectionSpec(regions=regions)
    assert index_pairing(ifs, proj, depth).value == _brute_force_pairing(ifs, proj, depth)


def test_projection_with_empty_support_pairs_to_zero():
    cs = cantor_set()
    outside = ProjectionSpec(regions=(closed_box([2.0], [3.0]),))
    report = index_pairing(cs, outside, 5)
    assert report.value == 0
    assert report.stabilized
    assert report.per_depth == (0,) * 6


def _operator_index(ifs, proj, depth):
    """Rank-based oracle: assemble the compressed off-diagonal operator over
    the supported vertices of every word and compute dim ker - dim coker."""
    u = u_matrix(ifs.n)
    total = 0
    for cube in iter_placed(ifs, depth):
        inside = proj.contains(cube.vertices)
        cols = [i // 2 for i in range(2**ifs.n) if i % 2 == 0 and inside[i]]
        rows = [i // 2 for i in range(2**ifs.n) if i % 2 == 1 and inside[i]]
        if not cols and not rows:
            continue
        block = u[np.ix_(rows, cols)] if rows and cols else np.zeros((len(rows), len(cols)))
        rank = np.linalg.matrix_rank(block) if block.size else 0
        total += (len(cols) - rank) - (len(rows) - rank)
    return total


@pytest.mark.parametrize(
    "name,regions,depth",
    [
        ("cantor_set", (closed_box([0.0], [1.0 / 9.0]),), 5),
        ("cantor_dust2", (closed_box([0.0, 0.0], [0.4, 0.4]),), 3),
        ("lifted_carpet", (closed_box([-0.1, 0.9, 0.9], [0.1, 1.1, 1.1]),), 2),
    ],
)
def test_pairing_matches_operator_index(name, regions, depth):
    ifs = preset(name)
    proj = ProjectionSpec(regions=regions)
    assert index_pairing(ifs, proj, depth).value == _operator_index(ifs, proj, depth)


def test_pairing_additivity_random_disjoint_boxes(rng):
    ifs = cantor_dust(2)
    for _ in range(8):
        lo1 = rng.uniform(0.0, 0.35, size=2)
        hi1 = lo1 + rng.uniform(0.05, 0.2, size=2)
        lo2 = rng.uniform(0.55, 0.8, size=2)
        hi2 = lo2 + rng.uniform(0.05, 0.19, size=2)
        a = ProjectionSpec(regions=(closed_box(lo1, hi1),))
        b = ProjectionSpec(regions=(closed_box(lo2, hi2),))
        union = ProjectionSpec(regions=a.regions + b.regions)
        va = index_pairing(ifs, a, 4).value
        vb = index_pairing(ifs, b, 4).value
        assert index_pairing(ifs, union, 4).value == va + vb


def test_open_face_projection_does_not_stabilize():
    # with the right face open, the interval endpoint leaks a +1 at every
    # depth, so the pairing honestly reports non-stabilization
    cs = cantor_set()
    proj = ProjectionSpec(
        regions=(
            Box(
                lo=np.array([0.0]),
                hi=np.array([1.0 / 3.0]),
                lo_closed=np.array([True]),
                hi_closed=np.array([False]),
            ),
        )
    )
    report = index_pairing(cs, proj, 8)
    assert not report.stabilized


def test_certificates_across_presets():
    cert = nonvanish_certificate(cantor_dust(2))
    assert cert is not None
    assert abs(cert.d0 - cert.d1) == 1
    assert cert.pairing == cert.d0 - cert.d1
    assert cert.pairing_matches

    assert nonvanish_certificate(preset("sierpinski_carpet")) is None
    assert nonvanish_certificate(preset("menger_sponge")) is None

    lifted = nonvanish_certificate(preset("lifted_carpet"))
    assert lifted is not None and lifted.pairing_matches

    rotated = nonvanish_certificate(preset("rotation"))
    assert rotated is not None and rotated.pairing_matches
    assert abs(rotated.d0 - rotated.d1) == 1

    lifted_line = nonvanish_certificate(preset("lifted_cantor"))
    assert lifted_line is not None and lifted_line.pairing_matches


@pytest.mark.parametrize(
    "name,digest",
    [
        ("cantor_set", "d599e97e37dc51d3cbeda0e8a8bb4f6c6457286d5a95546acda044582cafcfda"),
        ("lifted_cantor", "8befeb3baf2b71ea1b02bbbf9982e431ee8218faeeb6f3a65b5e7493e464e63d"),
        ("cantor_dust2", "8befeb3baf2b71ea1b02bbbf9982e431ee8218faeeb6f3a65b5e7493e464e63d"),
        ("cantor_dust3", "a09eff9fdced7ca3ac3a6815bdf23fef3aa7f0b3c39055d085c09999a8177866"),
        ("lifted_carpet", "181a9507da8277e3ed82718a0e213dd1a1856e5429df6068a37b5b98d33a5b9f"),
        ("rotation", "deeb127ee61a15411e4da6ca6c256446d671aca433a4a907e96060f4f48208c6"),
    ],
)
def test_certificate_projection_is_pinned(name, digest):
    # sha256 of each region's lo bytes then hi bytes, in region order: the padded
    # boxes and their margin to the last bit (lifted_cantor and cantor_dust2 both
    # pad the origin vertex and the first image square)
    cert = nonvanish_certificate(preset(name))
    h = hashlib.sha256()
    for box in cert.projection.regions:
        h.update(box.lo.tobytes())
        h.update(box.hi.tobytes())
    assert h.hexdigest() == digest


def _projection_oracle(ifs, report, index):
    """Region bounds, as bytes, of the component's boxes padded by a quarter of the least
    point distance to each other component in turn, every other component scanned."""
    corners = vertex_bits(ifs.n).astype(float)
    images = _children(ifs, _root(ifs)).vertices

    def points_of(comp):
        pts = images[np.array(comp.cubes, dtype=int) - 1].reshape(-1, ifs.n)
        return np.vstack([pts, corners[list(comp.vertices)]])

    comp = report.components[index]
    mine = points_of(comp)
    min_dist = min((float(np.linalg.norm(mine[:, None, :] - points_of(other)[None, :, :], axis=2).min())
                    for k, other in enumerate(report.components) if k != index), default=np.inf)
    margin = 0.01 if not np.isfinite(min_dist) else min_dist / 4.0
    boxes = [(images[s - 1].min(axis=0), images[s - 1].max(axis=0)) for s in comp.cubes]
    boxes += [(corners[v], corners[v]) for v in comp.vertices]
    return [((lo - margin).tobytes(), (hi + margin).tobytes()) for lo, hi in boxes]


def _assert_projections_match_oracle(ifs):
    report = level_one_components(ifs)
    for index in range(report.count) if report.count <= 16 else (0, 1, report.count - 1):
        regions = component_projection(ifs, report, index).regions
        assert [(b.lo.tobytes(), b.hi.tobytes()) for b in regions] == _projection_oracle(ifs, report, index)


@pytest.mark.parametrize("name", LEVEL_ONE_SYSTEMS)
def test_component_projection_matches_per_component_margin(name):
    # the box-gap scan stops early, yet pads every box by the same bits
    _assert_projections_match_oracle(preset(name))


@pytest.mark.parametrize("ifs", NEAR_TOUCHING, ids=lambda ifs: ifs.label)
def test_near_touching_projection_matches_per_component_margin(ifs):
    _assert_projections_match_oracle(ifs)


@pytest.mark.parametrize(
    "name,depth,visited",
    [("sierpinski_carpet", 7, 9657), ("menger_sponge", 5, 71021), ("cantor_dust2", 9, 2013)],
)
def test_pairing_budget_counts_visited_cubes(name, depth, visited):
    # the quadrant box at the origin cuts through the construction; these are the
    # cubes the depth-first walk visited, and the level sweep prunes the same ones
    ifs = preset(name)
    proj = ProjectionSpec(regions=(closed_box([0.0] * ifs.n, [0.5] * ifs.n),))
    assert index_pairing(ifs, proj, depth, budget=visited).value == 1
    with pytest.raises(BudgetExceededError):
        index_pairing(ifs, proj, depth, budget=visited - 1)


@pytest.mark.parametrize("name", ["cantor_dust3", "menger_sponge", "rotation:0.7", "lifted_carpet"])
def test_component_projection_is_the_same_in_small_chunks(monkeypatch, name):
    # one or two of the component's points against a visited cube at a time
    monkeypatch.setattr(ktheory, "LEVEL_CHUNK", 2)
    _assert_projections_match_oracle(preset(name))


def test_projection_of_a_cube_that_meets_no_corner():
    # one central cube: a component of no vertices, and four single corners
    _assert_projections_match_oracle(IfsSystem(2, (Similitude(0.5, np.eye(2), np.full(2, 0.25)),)))


def _prunable_on_vertices(verts, regions):
    """The prune test over every vertex of a (K, 2^n, n) stack: the oracle for the test on boxes."""
    tol = MEMBERSHIP_TOL
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    swallowed = np.zeros(len(verts), dtype=bool)
    separated = np.ones(len(verts), dtype=bool)
    for box in regions:
        swallowed |= np.all((verts > box.lo + tol) & (verts < box.hi - tol), axis=(1, 2))
        separated &= np.any(hi < box.lo - tol, axis=1) | np.any(lo > box.hi + tol, axis=1)
    return swallowed | separated


@pytest.mark.parametrize(
    "name,depth,visited",
    [("sierpinski_carpet", 7, 9657), ("menger_sponge", 5, 71021), ("cantor_dust2", 9, 2013)],
)
def test_box_prune_test_matches_the_vertex_one(name, depth, visited):
    # every block of the three pinned sweeps: "every vertex strictly inside" read off the
    # exact vertex bounds prunes the same cubes as the test over all 2^n vertices
    ifs = preset(name)
    regions = (closed_box([0.0] * ifs.n, [0.5] * ifs.n),)
    sweep = _sweep(ifs, _root(ifs), depth)
    block, count, pruned = next(sweep), 0, 0
    while True:
        count += block.e_w.size
        prune = _prunable(*_box(*block[2:]), regions)
        assert prune.tolist() == _prunable_on_vertices(block.vertices, regions).tolist()
        # so each dropped cube has as many even vertices inside the quadrant as odd ones
        verts = block.rows(prune).vertices
        inside = ProjectionSpec(regions).contains(verts.reshape(-1, ifs.n)).reshape(verts.shape[:2])
        assert inside[:, 0::2].sum(axis=1).tolist() == inside[:, 1::2].sum(axis=1).tolist()
        pruned += int(prune.sum())
        try:
            block = sweep.send(~prune)
        except StopIteration:
            break
    assert count == visited and pruned > 0


def test_certificate_pairing_tests_only_the_cubes_it_keeps(monkeypatch):
    # cantor_dust8: each level-one cube lies inside the component's box or apart from it, so
    # only the root's 256 vertices reach the membership test, none of a pruned cube's
    given, contains = [], ProjectionSpec.contains
    monkeypatch.setattr(ProjectionSpec, "contains",
                        lambda self, points: given.append(len(points)) or contains(self, points))
    cert = nonvanish_certificate(cantor_dust(8))
    assert cert.pairing_matches and sum(given) == 256


def test_level_one_layer_memory_is_bounded():
    # cantor_dust10: 1024 cubes of 1024 vertices; a whole (N, 2^n, n) vertex stack is 84 MB
    ifs = preset("cantor_dust10")
    report = level_one_components(ifs)
    peaks = []
    for call in (level_one_components, vertex_closure_check, lambda s: component_projection(s, report, 0)):
        tracemalloc.start()
        try:
            call(ifs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16 << 20, peaks
