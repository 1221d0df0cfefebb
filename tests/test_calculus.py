import tracemalloc

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
    _clifford_residual,
    _coordinate_perm,
    _polar_abs,
    block_order,
    coordinate_values,
    placed_coordinate_form,
)
from fractal_dirac.cube import _edge_table, f_matrix, g_matrix, vertex_bits, x_matrix
from fractal_dirac.ifs import iter_levels
from fractal_dirac.spectral import _volume_block

from conftest import matrix_abs, random_orthogonal

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


def _assert_same_entries(got, ref):
    np.testing.assert_array_equal(got, ref)  # -0.0 == 0.0: a zero's sign may differ
    nonzero = ref != 0
    assert got[nonzero].tobytes() == ref[nonzero].tobytes()


@pytest.mark.parametrize("n", range(1, 12))
def test_commutator_routes_equal_the_dense_formulas(rng, n):
    # the dense oracles F f - f F over all of f_matrix(n), and (f(even) - f(odd)) * g / sqrt(n)
    # scattered as the lower block with its negated transpose above; both are entrywise, so
    # they are evaluated a slab of rows at a time, which gives the same bytes in less memory
    m, slab = 2 ** (n - 1), 256
    fn, g = f_matrix(n), g_matrix(n)
    real = rng.standard_normal(2**n)
    for v in (real, real + 1j * rng.standard_normal(2**n)):
        f = block_order(v)
        got = commutator_direct(n, v)
        assert got.dtype == np.result_type(fn, v)
        for r in range(0, 2 * m, slab):
            rows = slice(r, r + slab)
            _assert_same_entries(got[rows], fn[rows] * f[None, :] - f[rows, None] * fn[rows])
        got = commutator_hadamard(n, v)
        assert got.dtype == v.dtype
        assert not got[:m, :m].any() and not got[m:, m:].any()
        for r in range(0, m, slab):
            rows = slice(r, r + slab)
            lower = ((v[0::2][None, :] - v[1::2][rows, None]) * g[rows]) / np.sqrt(n)
            _assert_same_entries(got[m:][rows, :m], lower)
            _assert_same_entries(got[:m, m:][:, rows], -lower.T)
        del got


@pytest.mark.parametrize("route, bound", [(commutator_direct, 1.8), (commutator_hadamard, 1.1)])
def test_commutator_routes_allocate_little_beyond_their_output(route, bound):
    # traced peak of one call over the output's bytes, at n = 10 (m = 512, output 4 m^2
    # floats): the direct route holds the output, U = u_matrix(n) (m^2) and two block-sized
    # products (2 m^2) at once, 7/4; the edge route adds O(n 2^n) to its output, about 1
    n = 10
    v = np.random.default_rng(0).standard_normal(2**n)
    route(n, v)  # the cached g_matrix and _edge_table are built once, not per call
    tracemalloc.start()
    try:
        out = route(n, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes


def test_edge_direction_is_the_coordinate_form_support():
    # the lower block of coordinate_form(n, a) is (x_a(even) - x_a(odd)) times G_a, exactly
    for n in range(1, 9):
        m = 2 ** (n - 1)
        for alpha, (p, s) in enumerate(zip(*_edge_table(n)), start=1):
            x = coordinate_values(n, alpha).astype(np.int64)
            lower = np.zeros((m, m), dtype=np.int64)
            lower[np.arange(m), p] = (x[0::2][p] - x[1::2]) * s
            np.testing.assert_array_equal(coordinate_form(n, alpha)[m:, :m], lower)


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
    assert clifford_check(3) == 0.0
    assert clifford_check(5) == 0.0


def _kron_form(n, alpha):
    """The coordinate one-form as np.kron of its dense factors: swap, identity, eps1, x_matrix."""
    swap = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    if alpha == n:
        return np.kron(swap, x_matrix(n))
    eps1 = np.array([[1, 0], [0, -1]], dtype=np.int64)
    mid = np.kron(np.eye(2 ** (n - alpha - 1), dtype=np.int64), eps1)
    return np.kron(np.kron(swap, mid), x_matrix(alpha))


def _dense_anticommutator_residual(forms):
    forms = [f.astype(float) for f in forms]
    eye = np.eye(forms[0].shape[0])
    worst = 0.0
    for a in range(len(forms)):
        for b in range(a, len(forms)):
            anti = forms[a] @ forms[b] + forms[b] @ forms[a]
            if a == b:
                anti = anti + 2.0 * eye
            worst = max(worst, float(np.max(np.abs(anti))))
    return worst


@pytest.mark.parametrize("n", range(1, 11))
def test_coordinate_form_equals_kron_of_its_factors(n):
    for alpha in range(1, n + 1):
        form, oracle = coordinate_form(n, alpha), _kron_form(n, alpha)
        assert form.dtype == oracle.dtype
        assert np.array_equal(form, oracle)


@pytest.mark.parametrize("n", range(1, 9))
def test_clifford_check_equals_dense_residual(n):
    forms = [_kron_form(n, alpha) for alpha in range(1, n + 1)]
    assert clifford_check(n) == _dense_anticommutator_residual(forms) == 0.0


def _scatter(perm, sign):
    m = perm.size
    out = np.zeros((m, m), dtype=np.int64)
    out[np.arange(m), perm] = sign
    return out


@pytest.mark.parametrize("corrupt", ["flip_sign", "swap_columns"])
def test_clifford_residual_of_a_corrupted_form_equals_dense(corrupt):
    n = 4
    pairs = [_coordinate_perm(n, alpha) for alpha in range(1, n + 1)]
    perm = np.array([p for p, _ in pairs])
    sign = np.array([s for _, s in pairs])
    if corrupt == "flip_sign":
        sign[1, 5] = -sign[1, 5]
    else:
        perm[2, [3, 10]] = perm[2, [10, 3]]
    residual = _clifford_residual(perm, sign)
    assert residual > 0.0
    assert residual == _dense_anticommutator_residual([_scatter(p, s) for p, s in zip(perm, sign)])


@pytest.mark.parametrize("n", range(1, 11))
def test_gamma_table_is_the_dense_product_of_the_forms(n):
    # the polar factor's rows are gathered by Gamma_n's (perm, sign) table: for a signed
    # permutation table, Gamma^T G = I exactly holds only if G is Gamma, here the dense product
    gamma = np.eye(2**n)
    for alpha in range(1, n + 1):
        gamma = gamma @ coordinate_form(n, alpha)
    assert np.array_equal(_polar_abs(n, gamma, 1), np.eye(2**n))
    assert np.array_equal(_polar_abs(n, np.stack([gamma, -gamma]), [1, -1]), np.stack([np.eye(2**n)] * 2))


def test_volume_element_values():
    np.testing.assert_allclose(volume_element_abs(1, 1.0), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(volume_element_abs(2, 1.0), 0.5 * np.eye(4), atol=1e-14)
    expected = 27.0 / 3.0**1.5  # e^n / n^(n/2) with n=3, e=3
    np.testing.assert_allclose(volume_element_abs(3, 3.0), expected * np.eye(8), atol=1e-11)


def test_matrix_abs_scalar_fast_path():
    # a scaled rotation c Gamma_1: the dense eigh oracle and the polar factor both give c I
    a = 2.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(matrix_abs(a), 2.5 * np.eye(2), atol=1e-14)
    assert np.array_equal(_polar_abs(1, a, 1), 2.5 * np.eye(2))


def test_matrix_abs_general(rng):
    # the dense eigh oracle of the tests on general matrices
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
def test_block_forms_and_abs_equal_their_single_cube_rows(name):
    block = list(iter_levels(preset(name), 2))[-1]
    n = block.n
    forms = [placed_coordinate_form(block, alpha) for alpha in range(1, n + 1)]
    for i in range(block.e_w.size):
        for alpha in range(1, n + 1):
            assert np.array_equal(forms[alpha - 1][i], placed_coordinate_form(block.rows(i), alpha))
    stacked = _volume_block(block)
    for i in range(block.e_w.size):
        assert np.array_equal(stacked[i], _volume_block(block.rows(i)))


def test_commutator_norm_scales_linearly_with_edge():
    norms = []
    for e in (1.0, 0.5, 0.25):
        norms.append(np.linalg.norm(commutator_direct(3, coordinate_values(3, 2, e)), 2))
    np.testing.assert_allclose(norms[0] / norms[1], 2.0, rtol=1e-12)
    np.testing.assert_allclose(norms[1] / norms[2], 2.0, rtol=1e-12)
    np.testing.assert_allclose(norms[0], 1.0 / np.sqrt(3), rtol=1e-12)


def test_identity_unitary_coordinate_cancellation_reason():
    # in the mirror numbering, the paired even and odd vertices 2i and 2i + 1 agree in
    # every coordinate except the first
    for n in (2, 3):
        bits = vertex_bits(n)
        np.testing.assert_array_equal(bits[0::2, 1:], bits[1::2, 1:])


def test_non_unitary_rejected():
    for t in ([[1.0, 0.2], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):  # sheared, NaN
        with pytest.raises(ValueError, match="not orthogonal"):
            placed_coordinate_form(_placed(1.0, np.array(t), np.zeros(2)), 1)


def test_argument_errors():
    from fractal_dirac import CapacityError

    with pytest.raises(ValueError):
        commutator_direct(2, np.zeros(3))  # size mismatch
    with pytest.raises(ValueError):
        coordinate_form(3, 4)
    with pytest.raises(ValueError):
        coordinate_form(3, 0)
    with pytest.raises(CapacityError):
        clifford_check(13)
    assert clifford_check(12) == 0.0
    with pytest.raises(CapacityError):
        volume_element_abs(11)
    with pytest.raises(ValueError):
        placed_coordinate_form(_placed(1.0, np.eye(3), np.zeros(2)), 1)
    with pytest.raises(ValueError):
        placed_coordinate_form(_placed(0.0, np.eye(2), np.zeros(2)), 1)


@pytest.mark.parametrize("e", [0.0, -1.0, np.nan, np.inf])
def test_volume_element_refuses_an_edge_that_is_not_positive_and_finite(e):
    # -|P| at odd n for a negative edge; a NaN or infinite edge has no volume element
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="edge length must be positive and finite"):
            volume_element_abs(n, e)
