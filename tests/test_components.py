import numpy as np

from fractal_dirac import compose, level_one_components, preset
from fractal_dirac.components import cube_halfspaces, cubes_intersect, point_in_cube
from fractal_dirac.ifs import PlacedCube


def _axis_cube(offset, e_w, n=2):
    return PlacedCube(level=0, words=np.zeros(0, int), e_w=e_w, transform=np.eye(n),
                      offset=np.asarray(offset, float))


def test_halfspaces_describe_cube():
    cube = _axis_cube([0.25, 0.5], 0.25)
    a, b = cube_halfspaces(cube)
    inside = np.array([0.3, 0.6])
    outside = np.array([0.6, 0.6])
    assert np.all(a @ inside <= b + 1e-12)
    assert not np.all(a @ outside <= b + 1e-12)


def test_touching_cubes_connect():
    left = _axis_cube([0.0, 0.0], 1.0 / 3.0)
    right = _axis_cube([1.0 / 3.0, 0.0], 1.0 / 3.0)
    far = _axis_cube([2.0 / 3.0, 0.0], 1.0 / 3.0)
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
    d0, d1 = report.parity_totals()
    assert d0 + d1 == 2**any_preset.n
    assert d0 == d1 == 2 ** (any_preset.n - 1)
