import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_dirac import (
    PlacedCube,
    clifford_check,
    commutator_direct,
    commutator_hadamard,
    coordinate_form,
    preset,
    volume_element_abs,
)
from fractal_dirac.calculus import (
    coordinate_values,
    custom_unitary_form,
    matrix_abs,
    placed_coordinate_form,
)
from fractal_dirac.cube import g_matrix, u_matrix, vertex_bits
from fractal_dirac.ifs import iter_levels

from conftest import random_orthogonal

E11 = np.array([[0, 1], [-1, 0]])
E21 = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
E22 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])


def test_commutator_with_constant_vanishes():
    for n in (1, 2, 4):
        zero = commutator_direct(n, np.full(2**n, 3.7))
        np.testing.assert_allclose(zero, 0.0, atol=1e-15)


@pytest.mark.parametrize("e", [1.0, 0.5, 3.0])
def test_line_coordinate_commutator(e):
    # values of the coordinate on [0, e]; the commutator is e times the
    # normalized one-form, whose upper-right entry is +1
    got = commutator_direct(1, [0.0, e])
    np.testing.assert_allclose(got, e * E11, atol=1e-15)


def test_square_coordinate_commutator_is_scaled_form():
    e = 0.75
    got = commutator_direct(2, coordinate_values(2, 1, e))
    np.testing.assert_allclose(got, (e / np.sqrt(2)) * E21, atol=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_two_path_commutators_agree(n, data):
    elems = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)
    re = data.draw(st.lists(elems, min_size=2**n, max_size=2**n))
    im = data.draw(st.lists(elems, min_size=2**n, max_size=2**n))
    f = np.array(re) + 1j * np.array(im)
    direct = commutator_direct(n, f)
    hadamard = commutator_hadamard(n, f)
    assert np.max(np.abs(direct - hadamard)) <= 1e-12


def test_indicator_commutator_square():
    f = np.array([1.0, 0.0, 0.0, 0.0])  # indicator of vertex 0
    got = commutator_hadamard(2, f)
    np.testing.assert_allclose(got, commutator_direct(2, f), atol=1e-15)
    inv = 1 / np.sqrt(2)
    # nonzero entries sit in the row and column of vertex 0 with values +-1/sqrt(2)
    expected = np.zeros((4, 4))
    expected[2, 0] = inv
    expected[3, 0] = inv
    expected[0, 2] = -inv
    expected[0, 3] = -inv
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_coordinate_form_printed_cases():
    np.testing.assert_array_equal(coordinate_form(1, 1), E11)
    np.testing.assert_array_equal(coordinate_form(2, 1), E21)
    np.testing.assert_array_equal(coordinate_form(2, 2), E22)


@pytest.mark.parametrize("n", range(1, 9))
def test_coordinate_form_matches_commutator_route(n):
    for e in (1.0, 1.0 / 3.0):
        for alpha in range(1, n + 1):
            via_commutator = (np.sqrt(n) / e) * commutator_hadamard(
                n, coordinate_values(n, alpha, e)
            )
            np.testing.assert_allclose(
                coordinate_form(n, alpha), via_commutator, atol=1e-12
            )


def test_entry_locality(rng):
    # lower-block entries vanish wherever odd and even vertices share no edge
    for n in (2, 3, 4, 5):
        f = rng.standard_normal(2**n)
        lower = commutator_hadamard(n, f)[2 ** (n - 1):, : 2 ** (n - 1)]
        assert np.all(lower[g_matrix(n) == 0] == 0.0)


def test_clifford_small():
    assert clifford_check(1) == 0.0
    assert clifford_check(3) <= 1e-12
    assert clifford_check(5) <= 1e-12


def test_volume_element_values():
    np.testing.assert_allclose(volume_element_abs(1, 1.0), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(volume_element_abs(2, 1.0), 0.5 * np.eye(4), atol=1e-14)
    expected = 27.0 / 3.0**1.5  # e^n / n^(n/2) with n=3, e=3
    np.testing.assert_allclose(volume_element_abs(3, 3.0), expected * np.eye(8), atol=1e-11)


def test_matrix_abs_scalar_fast_path():
    a = 2.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(matrix_abs(a), 2.5 * np.eye(2), atol=1e-14)


def test_matrix_abs_general(rng):
    for dtype in (float, complex):
        a = rng.standard_normal((5, 5)).astype(dtype)
        if dtype is complex:
            a = a + 1j * rng.standard_normal((5, 5))
        m = matrix_abs(a)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
        np.testing.assert_allclose(m @ m, a.conj().T @ a, atol=1e-10)


def _placed(e_w, transform, offset):
    """A hand-built cube of the empty word; its dimension is the offset's length."""
    return PlacedCube(level=0, words=np.zeros(0, int), e_w=e_w, transform=transform, offset=offset)


def test_unit_cube_placed_form():
    for n in (1, 2, 3):
        placement = _placed(1.0, np.eye(n), np.zeros(n))
        for alpha in range(1, n + 1):
            np.testing.assert_allclose(
                placed_coordinate_form(placement, alpha),
                coordinate_form(n, alpha) / np.sqrt(n),
                atol=1e-14,
            )


def _rotation_placement(j, theta=np.pi / 4):
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return _placed((2.0 * np.sqrt(2.0)) ** -j, np.linalg.matrix_power(rot, j), np.zeros(2))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_rotated_placement_blocks(j):
    theta = np.pi / 4
    e_w = (2.0 * np.sqrt(2.0)) ** -j
    c, s = np.cos(j * theta), np.sin(j * theta)
    expected_x1 = (e_w / np.sqrt(2)) * np.array(
        [
            [0, 0, c, -s],
            [0, 0, -s, -c],
            [-c, s, 0, 0],
            [s, c, 0, 0],
        ]
    )
    expected_x2 = (e_w / np.sqrt(2)) * np.array(
        [
            [0, 0, s, c],
            [0, 0, c, -s],
            [-s, -c, 0, 0],
            [-c, s, 0, 0],
        ]
    )
    placement = _rotation_placement(j)
    np.testing.assert_allclose(placed_coordinate_form(placement, 1), expected_x1, atol=1e-13)
    np.testing.assert_allclose(placed_coordinate_form(placement, 2), expected_x2, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_placed_form_equals_vertex_value_commutator(rng, n):
    # independent route: evaluate the coordinate at the placed vertices and
    # push it through the entrywise commutator formula
    for _ in range(5):
        placement = _placed(
            float(rng.uniform(0.1, 0.9)), random_orthogonal(rng, n), rng.uniform(-0.5, 0.5, size=n)
        )
        verts = placement.vertices
        for alpha in range(1, n + 1):
            np.testing.assert_allclose(
                placed_coordinate_form(placement, alpha),
                commutator_hadamard(n, verts[:, alpha - 1]),
                atol=1e-12,
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_placed_blocks_anticommute(rng, n):
    placement = _placed(0.37, random_orthogonal(rng, n), np.zeros(n))
    blocks = [placed_coordinate_form(placement, a) for a in range(1, n + 1)]
    scale = 2.0 * placement.e_w**2 / n
    for a in range(n):
        for b in range(n):
            anti = blocks[a] @ blocks[b] + blocks[b] @ blocks[a]
            expected = -scale * np.eye(2**n) if a == b else np.zeros((2**n, 2**n))
            np.testing.assert_allclose(anti, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_placed_volume_block_is_scalar(rng, n):
    for _ in range(4):
        placement = _placed(
            float(rng.uniform(0.1, 0.9)), random_orthogonal(rng, n), rng.uniform(0.0, 0.1, size=n)
        )
        prod = np.eye(2**n)
        for alpha in range(1, n + 1):
            prod = prod @ placed_coordinate_form(placement, alpha)
        expected = placement.e_w**n / n ** (n / 2.0)
        np.testing.assert_allclose(matrix_abs(prod), expected * np.eye(2**n), atol=1e-12)


@pytest.mark.parametrize("name", ["rotation:0.7", "menger_sponge"])
def test_block_forms_and_abs_equal_their_single_cube_rows(rng, name):
    block = list(iter_levels(preset(name), 2))[-1]
    n, m = block.n, 2**block.n
    forms = [placed_coordinate_form(block, alpha) for alpha in range(1, n + 1)]
    for i in range(block.e_w.size):
        for alpha in range(1, n + 1):
            assert np.array_equal(forms[alpha - 1][i], placed_coordinate_form(block.rows(i), alpha))
    prods = forms[0]
    for form in forms[1:]:
        prods = prods @ form
    prods[1] = rng.standard_normal((m, m))  # a row that misses the scalar test: eigh
    stacked = matrix_abs(prods)
    assert not np.allclose(stacked[1], stacked[1, 0, 0] * np.eye(m))
    for i in range(block.e_w.size):
        assert np.array_equal(stacked[i], matrix_abs(prods[i]))


def test_commutator_norm_scales_linearly_with_edge():
    norms = []
    for e in (1.0, 0.5, 0.25):
        norms.append(np.linalg.norm(commutator_direct(3, coordinate_values(3, 2, e)), 2))
    np.testing.assert_allclose(norms[0] / norms[1], 2.0, rtol=1e-12)
    np.testing.assert_allclose(norms[1] / norms[2], 2.0, rtol=1e-12)
    np.testing.assert_allclose(norms[0], 1.0 / np.sqrt(3), rtol=1e-12)


def test_custom_unitary_reproduces_default():
    for n in (1, 2, 3):
        f = np.linspace(0.0, 1.0, 2**n)
        np.testing.assert_allclose(
            custom_unitary_form(u_matrix(n), f),
            commutator_direct(n, f),
            atol=1e-13,
        )


def test_identity_unitary_kills_higher_coordinates():
    for n in (2, 3):
        eye = np.eye(2 ** (n - 1))
        for alpha in range(2, n + 1):
            got = custom_unitary_form(eye, coordinate_values(n, alpha))
            np.testing.assert_allclose(got, 0.0, atol=1e-15)
        first = custom_unitary_form(eye, coordinate_values(n, 1))
        assert np.max(np.abs(first)) > 0.5


def test_identity_unitary_coordinate_cancellation_reason():
    # with the identity block, paired even/odd vertices agree in every
    # coordinate except the first, so only that commutator survives
    for n in (2, 3):
        bits = vertex_bits(n)
        np.testing.assert_array_equal(bits[0::2, 1:], bits[1::2, 1:])


def test_non_unitary_rejected():
    for u in ([[1.0, 0.0], [0.0, 2.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            custom_unitary_form(np.array(u), np.zeros(4))
    sheared = _placed(1.0, np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        placed_coordinate_form(sheared, 1)


def test_argument_errors():
    from fractal_dirac import CapacityError

    with pytest.raises(ValueError):
        commutator_direct(2, np.zeros(3))  # size mismatch
    with pytest.raises(ValueError):
        coordinate_form(3, 4)
    with pytest.raises(ValueError):
        coordinate_form(3, 0)
    with pytest.raises(CapacityError):
        clifford_check(11)
    with pytest.raises(CapacityError):
        volume_element_abs(11)
    with pytest.raises(ValueError):
        placed_coordinate_form(_placed(1.0, np.eye(3), np.zeros(2)), 1)
    with pytest.raises(ValueError):
        placed_coordinate_form(_placed(0.0, np.eye(2), np.zeros(2)), 1)
