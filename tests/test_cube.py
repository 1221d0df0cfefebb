import numpy as np
import pytest

from fractal_dirac import (
    CapacityError,
    f_matrix,
    g_matrix,
    grading,
    oriented_edges,
)
from fractal_dirac.cube import oriented_edge_set, u_matrix, vertex_bits, x_matrix

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


@pytest.mark.parametrize("n", range(2, 8))
def test_vertex_recursion_invariants(n):
    bits = vertex_bits(n)
    prev = vertex_bits(n - 1)
    half = 2 ** (n - 1)
    # first half embeds the lower-dimensional table at last coordinate 0
    np.testing.assert_array_equal(bits[:half, :-1], prev)
    assert np.all(bits[:half, -1] == 0)
    # mirror rule: vertex 2^n - 1 - i is vertex i with last coordinate raised
    for i in range(half):
        np.testing.assert_array_equal(bits[2**n - 1 - i, :-1], bits[i, :-1])
        assert bits[2**n - 1 - i, -1] == 1


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


@pytest.mark.parametrize("n", range(1, 11))
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


def test_invalid_arguments():
    with pytest.raises(ValueError):
        vertex_bits(0)
    with pytest.raises(CapacityError):
        g_matrix(13)
    with pytest.raises(CapacityError):
        vertex_bits(13)
