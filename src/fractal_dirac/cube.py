"""Inductive combinatorics and operator matrices of the unit n-cube.

Vertices of the cube [0, e]^n carry the mirror numbering, which is the
binary reflected Gray code: vertex v has the coordinate bits of v ^ (v >> 1),
so the first half embeds the (n-1)-cube at last coordinate 0 and vertex
2^n - 1 - i is vertex i with its last coordinate raised to e.  Flipping
coordinate alpha maps vertex v to v ^ (2^alpha - 1).  Even-indexed vertices
form the positive half of the graded vector space, odd-indexed the negative
half, and every cube edge joins vertices of opposite parity.  The vertex and
edge tables are closed forms of this rule; the np.block recursion of g_matrix
is the one independent route the checks compare them against.  All operator
matrices act in block order: even vertices first, odd vertices second.
"""

from functools import lru_cache

import numpy as np

from .errors import CapacityError

MAX_DIM = 12  # 4096 x 4096 dense matrices are the practical desk-scale cap


def _check_dim(n, cap=MAX_DIM):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if n > cap:
        raise CapacityError(f"n={n} exceeds the dense-storage cap n<={cap}")


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def vertex_bits(n: int) -> np.ndarray:
    """0/1 coordinate rows of the 2^n vertices: vertex v has the bits of its Gray code v ^ (v >> 1)."""
    _check_dim(n)
    v = np.arange(2**n, dtype=np.int64)
    return _frozen(((v ^ (v >> 1))[:, None] >> np.arange(n)) & 1)


@lru_cache(maxsize=None)
def _edge_table(n: int):
    """g_matrix(n) as the sum of n signed permutations G_alpha, its edges along axis alpha: frozen (perm,
    sign) of shape (n, 2^{n-1}), row i of G_alpha holding sign[alpha-1, i] in column perm[alpha-1, i].
    Odd vertex 2i+1 meets even vertex 2 perm = (2i+1) ^ (2^alpha - 1) along axis alpha, and the
    edge points even -> odd (sign +1) where bit alpha-1 of 2i+1 is set."""
    _check_dim(n)
    odd = 2 * np.arange(2 ** (n - 1), dtype=np.int64) + 1
    axis = np.arange(n, dtype=np.int64)[:, None]  # alpha - 1
    perm = (odd ^ ((2 << axis) - 1)) >> 1
    sign = 2 * ((odd >> axis) & 1) - 1
    return _frozen(perm), _frozen(sign)


@lru_cache(maxsize=None)
def oriented_edge_set(n: int) -> frozenset:
    """Directed vertex-index pairs (i, j) meaning edge i -> j, read off _edge_table(n).

    Every edge points from the lower vertex index to the higher one: the two
    indices differ in bits 0..alpha-1, and the higher one has bit alpha-1 set.
    """
    perm, sign = _edge_table(n)
    odd, even, up = 2 * np.arange(perm.shape[1]) + 1, 2 * perm, sign > 0  # up: even -> odd
    tail, head = np.where(up, even, odd), np.where(up, odd, even)
    return frozenset(zip(tail.ravel().tolist(), head.ravel().tolist()))


def oriented_edges(n: int) -> np.ndarray:
    """Signed odd-by-even incidence of oriented cube edges, a frozen integer array.

    Row i corresponds to odd vertex 2i+1, column j to even vertex 2j.  Entry +1
    records the edge even -> odd, -1 the reverse, 0 no edge.
    """
    perm, sign = _edge_table(n)
    entries = np.zeros((perm.shape[1],) * 2, dtype=np.int64)
    entries[np.arange(perm.shape[1]), perm] = sign
    return _frozen(entries)


@lru_cache(maxsize=None)
def x_matrix(n: int) -> np.ndarray:
    """Block-swap involution of size 2^{n-1}, the reversal (exact integer entries)."""
    _check_dim(n)
    return _frozen(np.eye(2 ** (n - 1), dtype=np.int64)[::-1].copy())


@lru_cache(maxsize=None)
def g_matrix(n: int) -> np.ndarray:
    """Signed edge matrix of size 2^{n-1} (exact integer entries)."""
    _check_dim(n)
    if n == 1:
        return _frozen(np.array([[1]], dtype=np.int64))
    g = g_matrix(n - 1)
    x = x_matrix(n - 1)
    return _frozen(np.block([[g, -x], [x, g]]))


def u_matrix(n: int) -> np.ndarray:
    """Unitary normalization of the signed edge matrix."""
    return g_matrix(n) / np.sqrt(n)


def f_matrix(n: int) -> np.ndarray:
    """Odd self-adjoint involution on the 2^n-dimensional graded space."""
    u = u_matrix(n)
    m = u.shape[0]
    z = np.zeros((m, m))
    return np.block([[z, u.T], [u, z]])
