"""Inductive combinatorics and operator matrices of the unit n-cube.

Vertices of the cube [0, e]^n are numbered by a mirror recursion: the first
half embeds the (n-1)-cube at last coordinate 0, and vertex 2^n - 1 - i is
vertex i with its last coordinate raised to e.  Even-indexed vertices form the
positive half of the graded vector space, odd-indexed the negative half, and
every cube edge joins vertices of opposite parity.  All operator matrices act
in block order: even vertices first, odd vertices second.
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
    """0/1 coordinate rows of the 2^n vertices, in recursive numbering order."""
    _check_dim(n)
    bits = np.array([[0], [1]], dtype=np.int64)
    for _ in range(n - 1):
        m = bits.shape[0]
        low = np.hstack([bits, np.zeros((m, 1), dtype=np.int64)])
        high = np.hstack([bits[::-1], np.ones((m, 1), dtype=np.int64)])
        bits = np.vstack([low, high])
    return _frozen(bits)


@lru_cache(maxsize=None)
def oriented_edge_set(n: int) -> frozenset:
    """Directed vertex-index pairs (i, j) meaning edge i -> j.

    The orientation is defined recursively: the bottom face keeps the
    (n-1)-cube orientation, vertical edges point bottom to top, and the top
    face carries the mirrored bottom-face edges reversed.
    """
    _check_dim(n)
    edges = {(0, 1)}
    for k in range(2, n + 1):
        top = 2**k - 1
        new = set()
        for i, j in edges:
            new.add((i, j))
            new.add((top - j, top - i))
        for i in range(2 ** (k - 1)):
            new.add((i, top - i))
        edges = new
    return frozenset(edges)


def oriented_edges(n: int) -> np.ndarray:
    """Signed odd-by-even incidence of oriented cube edges, a frozen integer array.

    Row i corresponds to odd vertex 2i+1, column j to even vertex 2j.  Entry +1
    records the edge even -> odd, -1 the reverse, 0 no edge.
    """
    _check_dim(n)
    m = 2 ** (n - 1)
    entries = np.zeros((m, m), dtype=np.int64)
    for u, v in oriented_edge_set(n):
        if u % 2 == 0:  # even -> odd
            entries[v // 2, u // 2] = 1
        else:  # odd -> even
            entries[u // 2, v // 2] = -1
    return _frozen(entries)


@lru_cache(maxsize=None)
def x_matrix(n: int) -> np.ndarray:
    """Block-swap involution of size 2^{n-1} (exact integer entries)."""
    _check_dim(n)
    if n == 1:
        return _frozen(np.array([[1]], dtype=np.int64))
    x = x_matrix(n - 1)
    z = np.zeros_like(x)
    return _frozen(np.block([[z, x], [x, z]]))


@lru_cache(maxsize=None)
def g_matrix(n: int) -> np.ndarray:
    """Signed edge matrix of size 2^{n-1} (exact integer entries)."""
    _check_dim(n)
    if n == 1:
        return _frozen(np.array([[1]], dtype=np.int64))
    g = g_matrix(n - 1)
    x = x_matrix(n - 1)
    return _frozen(np.block([[g, -x], [x, g]]))


@lru_cache(maxsize=None)
def _edge_table(n: int):
    """g_matrix(n) as the sum of n signed permutations G_alpha, its edges along axis alpha: frozen (perm,
    sign) of shape (n, 2^{n-1}), row i of G_alpha holding sign[alpha-1, i] in column perm[alpha-1, i].
    With R the reversal x_matrix(n-1), G_alpha(n) = I_2 (x) G_alpha(n-1) and G_n(n) = [[0, -R], [R, 0]]."""
    _check_dim(n)
    if n == 1:
        return _frozen(np.zeros((1, 1), dtype=np.int64)), _frozen(np.ones((1, 1), dtype=np.int64))
    perm, sign = _edge_table(n - 1)
    h = perm.shape[1]
    perm = np.vstack([np.hstack([perm, perm + h]), np.arange(2 * h - 1, -1, -1)])
    sign = np.vstack([np.hstack([sign, sign]), np.repeat(np.array([-1, 1]), h)])
    return _frozen(perm), _frozen(sign)


def u_matrix(n: int) -> np.ndarray:
    """Unitary normalization of the signed edge matrix."""
    return g_matrix(n) / np.sqrt(n)


def f_matrix(n: int) -> np.ndarray:
    """Odd self-adjoint involution on the 2^n-dimensional graded space."""
    u = u_matrix(n)
    m = u.shape[0]
    z = np.zeros((m, m))
    return np.block([[z, u.T], [u, z]])


def grading(n: int) -> np.ndarray:
    """Diagonal +1/-1 grading in block order (even block first)."""
    _check_dim(n)
    m = 2 ** (n - 1)
    return np.diag(np.concatenate([np.ones(m), -np.ones(m)]))

