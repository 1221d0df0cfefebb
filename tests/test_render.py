import hashlib
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fractal_dirac import preset, render_svg, write_svg
from fractal_dirac.cube import vertex_bits


def test_dust_square_count():
    doc = render_svg(preset("cantor_dust2"), 3)
    assert doc.count("<polygon") == 1 + 4 + 16 + 64


def test_carpet_level_one_count():
    doc = render_svg(preset("sierpinski_carpet"), 1)
    assert doc.count("<polygon") == 9


def test_svg_is_well_formed_xml(tmp_path):
    path = tmp_path / "carpet.svg"
    write_svg(preset("sierpinski_carpet"), 2, path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_rotation_outlines_are_tilted():
    doc = render_svg(preset("rotation:0.5"), 2)
    polygons = [line for line in doc.splitlines() if line.startswith("<polygon")]
    assert len(polygons) == 1 + 4 + 16
    # a tilted square's polygon has four distinct x coordinates
    pts = polygons[1].split('points="')[1].split('"')[0].split()
    xs = {p.split(",")[0] for p in pts}
    assert len(xs) == 4


def test_level_zero_arrows_present():
    doc = render_svg(preset("cantor_dust2"), 0)
    assert doc.count("marker-end") == 4  # the four oriented edges of the square


def test_level_zero_arrows_at_the_dimension_cap():
    # one arrow per edge of the 12-cube, n 2^(n-1) = 24,576 of them
    doc = render_svg(preset("cantor_dust12"), 0)
    assert doc.count("marker-end") == 12 * 2**11


@pytest.mark.parametrize("n", range(1, 13))
def test_first_vertices_trace_the_first_two_axes_face(n):
    # the outlines join vertices 0..3 (0..1 on the line) in order
    face = [[0, 0], [1, 0], [1, 1], [0, 1]][: 2**n]
    expected = np.zeros((len(face), n), dtype=int)
    expected[:, :2] = np.array(face)[:, :n]
    assert np.array_equal(vertex_bits(n)[: len(face)], expected)


def test_other_dimensions_render_without_warning():
    # the projection onto the first two axes is documented, not warned about,
    # so the CLI's stderr carries only its own JSON lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_svg(preset("menger_sponge"), 1)
        render_svg(preset("cantor_set"), 1)


def test_render_is_byte_stable():
    a = render_svg(preset("cantor_dust2"), 2)
    b = render_svg(preset("cantor_dust2"), 2)
    assert a == b


@pytest.mark.parametrize(
    "name,depth,digest",
    [
        ("carpet", 3, "129da3f8834fdab419332874936fd5e0d32bdf611bcf9e1940ff02587c51c3a2"),
        ("rotation:0.5", 2, "3c881ba02f080b85ffca28f20ae2784cf29ccb6ffccb5ca3c590d8c337e3bc65"),
        ("menger_sponge", 2, "e6d5961347d8d9fa91ecf7d8e2452337c1d1c495ee792ddfcd6923216c685e2e"),
        ("cantor_set", 3, "19553acc99c9ddae66c0182f067cee1fc41a26a315c0d3d328756978a73f4b86"),
        ("lifted_carpet", 3, "ba95a8851358688ad46eb25ba22b20e950f94ba52d019a99f674029fcab3d884"),
        ("non_osc", 3, "8b1e42204b9572cfc21d24f65b27873b86016f45333e181e1e65544e7951aeb1"),
        ("rotation", 3, "430d8423816edcc44d1b74a0e64a85291eb84c658a4ab4619e486f4b37a98454"),
        ("cantor_dust4", 1, "eec909c13b00f59f2d1e4a474876bcdfe09435a664d53b000187c576c1962143"),
        ("sc4", 1, "d54c02a36efe6cc311c845dbcbf671e442df7b93126088d2a9c52caf469b14b1"),
        ("cantor_dust8", 0, "ee57cab816c2ed2101a335272ada91913d785dca363315b9bfb745991f3f6ac0"),
    ],
)
def test_render_bytes_are_pinned(name, depth, digest):
    # digests of the documents drawn in depth-first word order, one cube at a time;
    # the level sweep places every element at that same slot
    doc = render_svg(preset(name), depth)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
