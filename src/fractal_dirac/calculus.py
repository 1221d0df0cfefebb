"""Quantized differentials on a single cube.

A function on the cube vertices acts diagonally in block order (even vertices
first).  Its quantized differential is the commutator with the odd involution
from :mod:`fractal_dirac.cube`, computed either directly or through the
entrywise Hadamard formula over the signed adjacency.  Coordinate one-forms
are signed permutations read off the cube's edge table; they satisfy a
Clifford anticommutation relation.  Their ordered product Gamma_n is a signed
permutation, and the volume element, the ordered product P of the coordinate
commutators, is +-c Gamma_n: its absolute value c I is read off the polar
decomposition, the unitary factor +-Gamma_n known in closed form.
"""

from functools import lru_cache

import numpy as np

from .cube import _check_dim, _edge_table, _frozen, u_matrix, vertex_bits

ORTHOGONALITY_TOL = 1e-9
CLIFFORD_CAP = 10


def block_order(values) -> np.ndarray:
    """Reorder vertex-indexed values to block order (even indices first)."""
    v = np.asarray(values)
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError(f"expected a flat vector of even length, got shape {v.shape}")
    return np.concatenate([v[0::2], v[1::2]])


def _vertex_values(n, values):
    v = np.asarray(values)
    if v.shape != (2**n,):
        raise ValueError(f"expected {2**n} vertex values for n={n}, got shape {v.shape}")
    return v


def commutator_direct(n: int, values) -> np.ndarray:
    """Commutator F f - f F of the odd involution with a vertex function, by definition, formed
    on F's blocks U^T and U = u_matrix(n) only: its zero blocks commute with the diagonal f."""
    f = block_order(_vertex_values(n, values))
    u = u_matrix(n)
    m = u.shape[0]
    even, odd = f[:m], f[m:]
    out = np.zeros((2 * m, 2 * m), dtype=np.result_type(u, f))
    np.subtract(u.T * odd[None, :], even[:, None] * u.T, out=out[:m, m:])
    np.subtract(u * even[None, :], odd[:, None] * u, out=out[m:, :m])
    return out


def commutator_hadamard(n: int, values) -> np.ndarray:
    """Same commutator as the entrywise product of f(even) - f(odd) with g_matrix(n) / sqrt(n),
    formed on the n edges of each odd vertex that the signed permutations _edge_table(n) list."""
    v = _vertex_values(n, values)
    perm, sign = _edge_table(n)
    lower = ((v[0::2][perm] - v[1::2][None, :]) * sign) / np.sqrt(n)
    m = perm.shape[1]
    rows = np.broadcast_to(np.arange(m), perm.shape)
    out = np.zeros((2 * m, 2 * m), dtype=lower.dtype)
    out[m + rows, perm] = lower
    out[perm, m + rows] = -lower
    return out


def coordinate_values(n: int, alpha: int, edge_length: float = 1.0) -> np.ndarray:
    """Values of the coordinate function along axis alpha at the cube vertices."""
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    return vertex_bits(n)[:, alpha - 1] * float(edge_length)


@lru_cache(maxsize=None)
def _coordinate_perm(n: int, alpha: int):
    """coordinate_form(n, alpha) as frozen (perm, sign), row i holding sign[i] in column perm[i].

    The lower block is G_alpha of _edge_table(n) scaled by the coordinate step f(even) - f(odd) along
    each edge, the upper block minus its transpose: G_alpha's perm is an XOR involution, so the
    transpose of (perm, s) is (perm, s[perm])."""
    _check_dim(n)
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    perm, sign = (a[alpha - 1] for a in _edge_table(n))
    x = vertex_bits(n)[:, alpha - 1]
    lower = sign * (x[0::2][perm] - x[1::2])
    return _frozen(np.concatenate([perm + perm.size, perm])), _frozen(np.concatenate([-lower[perm], lower]))


def coordinate_form(n: int, alpha: int) -> np.ndarray:
    """The normalized coordinate one-form, from the closed table _coordinate_perm(n, alpha).

    Exact integer entries, a signed permutation; equals sqrt(n)/e times the
    commutator of the coordinate function on the cube of edge e.
    """
    perm, sign = _coordinate_perm(n, alpha)
    out = np.zeros((perm.size, perm.size), dtype=np.int64)
    out[np.arange(perm.size), perm] = sign
    return out


def _clifford_residual(perm, sign) -> float:
    """Max |A_a A_b + A_b A_a + 2 delta_ab I| over the signed permutations A_a = (perm[a], sign[a]).

    Taken over the columns of the A_a A_b terms of all (a, b): a lone 2 on the diagonal (a = b)
    has the size of the entry 2 sign in that column, every |sign| being 1."""
    rows, two, worst = np.arange(perm.shape[1]), 2 * np.eye(len(perm), dtype=np.int64), 0
    for a in range(len(perm)):  # every b at once; row i at [b, i]
        col, val = perm[:, perm[a]], sign[a] * sign[:, perm[a]]  # A_a A_b
        col_t, val_t = perm[a][perm], sign * sign[a][perm]  # A_b A_a
        entry = val + val_t * (col_t == col) + two[a][:, None] * (rows == col)
        worst = max(worst, np.abs(entry).max())
    return float(worst)


def clifford_check(n: int) -> float:
    """Max anticommutator violation of the coordinate one-forms, exactly 0.0 when they hold."""
    _check_dim(n)
    perm, sign = zip(*(_coordinate_perm(n, a) for a in range(1, n + 1)))
    return _clifford_residual(np.array(perm), np.array(sign))


def _polar_abs(n, prod, orientation):
    """|P| = orientation Gamma_n^T P for P = orientation c Gamma_n, one 2^n x 2^n matrix or a stack: the
    polar decomposition with its unitary factor in closed form (Higham, Functions of Matrices, ch. 8).
    Gamma_n = gamma_1 ... gamma_n is composed from the _coordinate_perm tables (row i of AB is sign_A[i]
    times row perm_A[i] of B) and applied as a row gather; orientation is +-1 or one sign per matrix."""
    perm, sign = _coordinate_perm(n, 1)
    for alpha in range(2, n + 1):
        p, s = _coordinate_perm(n, alpha)
        perm, sign = p[perm], sign * s[perm]
    inv = np.argsort(perm)
    return np.take(prod, inv, axis=-2) * (np.asarray(orientation)[..., None, None] * sign[inv, None])


def volume_element_abs(n: int, edge_length: float = 1.0) -> np.ndarray:
    """Absolute value Gamma_n^T P of the ordered product P = (e/sqrt(n))^n Gamma_n of all coordinate
    commutators: P comes from commutator_direct (g_matrix's recursion), Gamma_n from the edge table,
    so |P| is e^n / n^(n/2) I only if the two agree.  The edge must be positive and finite."""
    _check_dim(n, cap=CLIFFORD_CAP)
    if not 0 < edge_length < np.inf:  # a negative edge at odd n would give -|P|
        raise ValueError(f"edge length must be positive and finite, got {edge_length}")
    prod = np.eye(2**n)
    for alpha in range(1, n + 1):
        prod = prod @ commutator_direct(n, coordinate_values(n, alpha, edge_length))
    return _polar_abs(n, prod, 1)


def _check_orthogonal(t):
    """t as floats, if it is an orthogonal matrix or a stack (..., n, n) of them."""
    t = np.asarray(t, dtype=float)
    if t.ndim < 2 or t.shape[-2] != t.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    n = t.shape[-1]
    u = np.moveaxis(t.reshape(-1, n, n), 0, -1).copy()  # T^T T - I with the stack axis innermost:
    gram = (u[:, :, None] * u[:, None]).sum(axis=0)  # a stack of tiny matmuls is slower
    dev = np.max(np.abs(gram - np.eye(n)[..., None]), initial=0.0)
    if not dev <= ORTHOGONALITY_TOL:  # NaN fails too
        raise ValueError(f"matrix is not orthogonal within {ORTHOGONALITY_TOL:g} (deviation {dev:.3g})")
    return t


def placed_coordinate_form(cube, alpha: int) -> np.ndarray:
    """Coordinate commutator block on a placed cube (an ifs.PlacedCube).

    For a cube with orthogonal part T and edge e_w this is
    (e_w / sqrt(n)) sum_j T[alpha, j] times the j-th coordinate one-form; a
    block of cubes gives one such matrix per row.  A transform that is not
    orthogonal n x n, or an edge that is not positive, is rejected.
    """
    n = cube.n
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    t = _check_orthogonal(cube.transform)
    e = np.asarray(cube.e_w, dtype=float)
    if t.shape != e.shape + (n, n) or not np.all(e > 0):
        raise ValueError(f"expected an {n} x {n} transform and a positive edge")
    forms = np.array([coordinate_form(n, j) for j in range(1, n + 1)], dtype=float)
    acc = (t[..., alpha - 1, :] @ forms.reshape(n, -1)).reshape(e.shape + forms.shape[1:])
    acc *= (e / np.sqrt(n))[..., None, None]
    return acc
