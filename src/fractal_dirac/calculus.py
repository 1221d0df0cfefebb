"""Quantized differentials on a single cube.

A function on the cube vertices acts diagonally in block order (even vertices
first).  Its quantized differential is the commutator with the odd involution
from :mod:`fractal_dirac.cube`, computed either directly or through the
entrywise Hadamard formula over the signed adjacency.  Coordinate one-forms
are signed permutations read off the cube's edge table; they satisfy a
Clifford anticommutation relation, and their ordered product has a scalar
absolute value, the volume element of the quantized calculus.
"""

from functools import lru_cache

import numpy as np

from .cube import _check_dim, _edge_table, _frozen, u_matrix, vertex_bits

ORTHOGONALITY_TOL = 1e-9
CLIFFORD_CAP = 10
SCALAR_TOL = 1e-10


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


def matrix_abs(a: np.ndarray) -> np.ndarray:
    """Operator absolute value sqrt(A* A) of a matrix or of each matrix of a stack (..., m, m).

    A matrix whose A* A is a scalar multiple c I of the identity within
    SCALAR_TOL gets sqrt(c) I; the others go to one stacked symmetric
    eigendecomposition.
    """
    a = np.asarray(a)
    h = np.ascontiguousarray(np.swapaxes(a.conj(), -1, -2)) @ a  # a copy: BLAS on stacks
    m = h.shape[-1]
    c = h[..., 0, 0].real
    diag = np.arange(m)
    off = np.abs(h)  # |h - c I|: the diagonal is written below
    off[..., diag, diag] = np.abs(h[..., diag, diag] - c[..., None])
    scalar = off.max(axis=(-2, -1)) <= SCALAR_TOL * np.maximum(1.0, np.abs(c))
    out = np.sqrt(np.maximum(c, 0.0))[..., None, None] * np.eye(m)
    if not np.all(scalar):
        w, vecs = np.linalg.eigh(h[~scalar])
        w = np.clip(w, 0.0, None)
        out = out.astype(h.dtype)
        out[~scalar] = (vecs * np.sqrt(w)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return out


def volume_element_abs(n: int, edge_length: float = 1.0) -> np.ndarray:
    """Absolute value of the ordered product of all coordinate commutators."""
    _check_dim(n, cap=CLIFFORD_CAP)
    prod = np.eye(2**n)
    for alpha in range(1, n + 1):
        prod = prod @ commutator_direct(n, coordinate_values(n, alpha, edge_length))
    return matrix_abs(prod)


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


def custom_unitary_form(u: np.ndarray, values) -> np.ndarray:
    """Commutator of the off-diagonal operator built from an arbitrary unitary."""
    u = np.asarray(u)
    m = u.shape[0]
    if u.shape != (m, m):
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(m)))
    if not dev <= ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not unitary within {ORTHOGONALITY_TOL:g} (deviation {dev:.3g})")
    n = int(np.log2(m)) + 1
    if 2 ** (n - 1) != m:
        raise ValueError(f"unitary block size must be a power of two, got {m}")
    f = block_order(_vertex_values(n, values))
    op = np.zeros((2 * m, 2 * m), dtype=np.result_type(u, f))
    op[:m, m:] = u.conj().T
    op[m:, :m] = u
    return op * f[None, :] - f[:, None] * op
