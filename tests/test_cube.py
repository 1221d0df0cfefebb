import numpy as np
import pytest

from conftest import grading
from fractal_dirac import (
    CapacityError,
    f_matrix,
    g_matrix,
    oriented_edges,
)
from fractal_dirac.calculus import _coordinate_perm
from fractal_dirac.cube import _edge_table, oriented_edge_set, u_matrix, vertex_bits, x_matrix

G2 = np.array([[1, -1], [1, 1]])
G3 = np.array([[1, -1, 0, -1], [1, 1, -1, 0], [0, 1, 1, -1], [1, 0, 1, 1]])


def test_vertex_numbering_line():
    np.testing.assert_allclose(vertex_bits(1) * 2.5, [[0.0], [2.5]])


def test_vertex_numbering_square():
    np.testing.assert_array_equal(vertex_bits(2), [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_vertex_numbering_cube():
    expected = [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 1, 1], [1, 1, 1], [1, 0, 1], [0, 0, 1],
    ]
    np.testing.assert_array_equal(vertex_bits(3), expected)


@pytest.mark.parametrize("n", range(2, 13))
def test_vertex_recursion_invariants(n):
    # the mirror recursion that defines the numbering, against the closed Gray-code table
    bits = vertex_bits(n)
    prev = vertex_bits(n - 1)
    half = 2 ** (n - 1)
    # first half embeds the lower-dimensional table at last coordinate 0
    np.testing.assert_array_equal(bits[:half, :-1], prev)
    assert np.all(bits[:half, -1] == 0)
    # mirror rule: vertex 2^n - 1 - i is vertex i with last coordinate raised (row i of bits[::-1])
    np.testing.assert_array_equal(bits[::-1][:half, :-1], bits[:half, :-1])
    assert np.all(bits[::-1][:half, -1] == 1)


def _recursive_orientation(n):
    """The bottom face keeps the (n-1)-cube orientation, vertical edges point bottom to top, and
    the top face carries the mirrored bottom-face edges reversed."""
    edges = {(0, 1)}
    for k in range(2, n + 1):
        top = 2**k - 1
        edges = ({(i, j) for i, j in edges} | {(top - j, top - i) for i, j in edges}
                 | {(i, top - i) for i in range(2 ** (k - 1))})
    return edges


@pytest.mark.parametrize("n", range(1, 13))
def test_recursive_orientation_equals_oriented_edge_set(n):
    assert oriented_edge_set(n) == _recursive_orientation(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_reversal_recursion_equals_x_matrix(n):
    # X(1) = [1] and X(n) = [[0, X(n-1)], [X(n-1), 0]]
    x = np.array([[1]], dtype=np.int64)
    for _ in range(n - 1):
        z = np.zeros_like(x)
        x = np.block([[z, x], [x, z]])
    assert x_matrix(n).dtype == x.dtype
    np.testing.assert_array_equal(x_matrix(n), x)


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_tables_are_frozen_int64(n):
    tables = [vertex_bits(n), x_matrix(n), g_matrix(n), oriented_edges(n), *_edge_table(n)]
    tables += [a for alpha in range(1, n + 1) for a in _coordinate_perm(n, alpha)]
    for table in tables:
        assert table.dtype == np.int64
        assert not table.flags.writeable


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_split_and_edges(n):
    # the parity of a vertex's coordinate sum is the parity of its index
    parity = vertex_bits(n).sum(axis=1) % 2
    np.testing.assert_array_equal(parity, np.arange(2**n) % 2)
    assert np.sum(parity == 0) == np.sum(parity == 1) == 2 ** (n - 1)
    for a, b in oriented_edge_set(n):
        assert parity[a] != parity[b]


@pytest.mark.parametrize("n", range(1, 9))
def test_oriented_edges_are_hamming_neighbours(n):
    # the recursive edge set is exactly the set of vertex pairs differing in one coordinate
    bits = vertex_bits(n)
    hamming = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    a, b = np.nonzero(np.triu(hamming == 1))
    assert {tuple(sorted(e)) for e in oriented_edge_set(n)} == set(zip(a.tolist(), b.tolist()))
    assert len(oriented_edge_set(n)) == n * 2 ** (n - 1)


def test_oriented_edges_small():
    assert oriented_edges(1).tolist() == [[1]]
    np.testing.assert_array_equal(oriented_edges(2), G2)
    np.testing.assert_array_equal(oriented_edges(3), np.sign(G3))


@pytest.mark.parametrize("n", range(1, 9))
def test_oriented_edges_degree(n):
    entries = oriented_edges(n)
    assert np.all(np.sum(entries != 0, axis=0) == n)
    assert np.all(np.sum(entries != 0, axis=1) == n)
    # every directed edge joins a vertex to one of opposite parity
    for u, v in oriented_edge_set(n):
        assert (u + v) % 2 == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_pattern_matches_edge_matrix(n):
    np.testing.assert_array_equal(np.sign(g_matrix(n)), oriented_edges(n))


def test_printed_matrices():
    np.testing.assert_array_equal(g_matrix(2), G2)
    np.testing.assert_array_equal(g_matrix(3), G3)
    np.testing.assert_allclose(u_matrix(2), G2 / np.sqrt(2))
    np.testing.assert_allclose(f_matrix(1), [[0, 1], [1, 0]])


@pytest.mark.parametrize("n", range(1, 11))
def test_operator_identities(n):
    u = u_matrix(n)
    f = f_matrix(n)
    eps = grading(n)
    eye_half = np.eye(2 ** (n - 1))
    eye = np.eye(2**n)
    assert np.max(np.abs(u @ u.T - eye_half)) <= 1e-12
    assert np.max(np.abs(f @ f - eye)) <= 1e-12
    assert np.max(np.abs(f - f.T)) <= 1e-12
    assert np.max(np.abs(f @ eps + eps @ f)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_swap_intertwines_edge_matrix_exactly(n):
    x = x_matrix(n)
    g = g_matrix(n)
    assert g.dtype == np.int64 and x.dtype == np.int64
    np.testing.assert_array_equal(x @ g.T - g @ x, np.zeros_like(x))


def _signed_permutation(perm, sign):
    m = perm.size
    out = np.zeros((m, m), dtype=np.int64)
    out[np.arange(m), perm] = sign
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_edge_table_is_n_signed_permutations_summing_to_g(n):
    perm, sign = _edge_table(n)
    m = 2 ** (n - 1)
    assert perm.shape == sign.shape == (n, m)
    assert not perm.flags.writeable and not sign.flags.writeable
    for row in perm:
        np.testing.assert_array_equal(np.sort(row), np.arange(m))
    assert np.all(np.abs(sign) == 1)
    total = np.zeros((m, m), dtype=np.int64)
    for p, s in zip(perm, sign):
        total[np.arange(m), p] += s
    assert total.dtype == g_matrix(n).dtype
    np.testing.assert_array_equal(total, g_matrix(n))


@pytest.mark.parametrize("n", range(2, 10))
def test_edge_directions_anticommute_exactly(n):
    # G_a^T G_b + G_b^T G_a = 0 and G_a G_b^T + G_b G_a^T = 0 for a != b, exactly: with
    # G_a^T G_a = I these make U = g / sqrt(n) unitary.  The products run in float64, where
    # sums of at most 2^(n-1) terms +-1 are exact integers, so they take the BLAS path
    forms = [_signed_permutation(p, s).astype(float) for p, s in zip(*_edge_table(n))]
    for a in range(n):
        for b in range(a + 1, n):
            ga, gb = forms[a], forms[b]
            assert not np.any(ga.T @ gb + gb.T @ ga)
            assert not np.any(ga @ gb.T + gb @ ga.T)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        vertex_bits(0)
    with pytest.raises(CapacityError):
        g_matrix(13)
    with pytest.raises(CapacityError):
        _edge_table(13)
    with pytest.raises(CapacityError):
        vertex_bits(13)
