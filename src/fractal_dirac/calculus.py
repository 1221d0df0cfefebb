"""Quantized differentials on a single cube.

A function on the cube vertices acts diagonally in block order (even vertices
first).  Its quantized differential is the commutator with the odd involution
from :mod:`fractal_dirac.cube`, computed either directly or through the
entrywise Hadamard formula over the signed adjacency.  Coordinate one-forms
admit a closed Kronecker expression and satisfy a Clifford anticommutation
relation; their ordered product has a scalar absolute value, the volume
element of the quantized calculus.
"""

import numpy as np

from .cube import _check_dim, f_matrix, g_matrix, vertex_bits, x_matrix

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
    """Commutator of the odd involution with a vertex function, by definition."""
    f = block_order(_vertex_values(n, values))
    fn = f_matrix(n)
    # F @ diag(f) - diag(f) @ F, written without materializing the diagonal
    return fn * f[None, :] - f[:, None] * fn


def hadamard_difference(n: int, values) -> np.ndarray:
    """Matrix of differences f(even vertex) - f(odd vertex), odd rows by even columns."""
    v = _vertex_values(n, values)
    return v[0::2][None, :] - v[1::2][:, None]


def commutator_hadamard(n: int, values) -> np.ndarray:
    """Same commutator assembled from the entrywise product with the signed edge matrix."""
    delta = hadamard_difference(n, values)
    lower = (delta * g_matrix(n)) / np.sqrt(n)
    upper = -lower.T
    m = lower.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=lower.dtype)
    out[:m, m:] = upper
    out[m:, :m] = lower
    return out


def coordinate_values(n: int, alpha: int, edge_length: float = 1.0) -> np.ndarray:
    """Values of the coordinate function along axis alpha at the cube vertices."""
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    return vertex_bits(n)[:, alpha - 1] * float(edge_length)


def coordinate_form(n: int, alpha: int) -> np.ndarray:
    """Closed Kronecker expression of the normalized coordinate one-form.

    Exact integer entries; equals sqrt(n)/e times the commutator of the
    coordinate function on the cube of edge e.
    """
    _check_dim(n)
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    swap = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    if alpha == n:
        return np.kron(swap, x_matrix(n))
    eps1 = np.array([[1, 0], [0, -1]], dtype=np.int64)
    mid = np.kron(np.eye(2 ** (n - alpha - 1), dtype=np.int64), eps1)
    top = np.kron(swap, mid)
    return np.kron(top, x_matrix(alpha))


def clifford_check(n: int) -> float:
    """Max anticommutator violation of the coordinate one-forms."""
    _check_dim(n, cap=CLIFFORD_CAP)
    forms = [coordinate_form(n, a).astype(float) for a in range(1, n + 1)]
    eye = np.eye(2**n)
    worst = 0.0
    for a in range(n):
        for b in range(a, n):
            anti = forms[a] @ forms[b] + forms[b] @ forms[a]
            if a == b:
                anti = anti + 2.0 * eye
            worst = max(worst, float(np.max(np.abs(anti))))
    return worst


def matrix_abs(a: np.ndarray) -> np.ndarray:
    """Operator absolute value sqrt(A* A).

    A scalar fast-path returns sqrt(c) I when A* A is a scalar multiple of the
    identity within SCALAR_TOL; otherwise a full symmetric eigendecomposition
    is used.
    """
    a = np.asarray(a)
    h = a.conj().T @ a
    m = h.shape[0]
    c = h[0, 0].real
    off = h - c * np.eye(m)
    if np.max(np.abs(off)) <= SCALAR_TOL * max(1.0, abs(c)):
        return np.sqrt(max(c, 0.0)) * np.eye(m)
    w, vecs = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (vecs * np.sqrt(w)) @ vecs.conj().T


def volume_element_abs(n: int, edge_length: float = 1.0) -> np.ndarray:
    """Absolute value of the ordered product of all coordinate commutators."""
    _check_dim(n, cap=CLIFFORD_CAP)
    prod = np.eye(2**n)
    for alpha in range(1, n + 1):
        prod = prod @ commutator_direct(n, coordinate_values(n, alpha, edge_length))
    return matrix_abs(prod)


def _check_orthogonal(t):
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    dev = np.max(np.abs(t.T @ t - np.eye(t.shape[0])))
    if dev > ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not orthogonal within {ORTHOGONALITY_TOL:g} (deviation {dev:.3g})")
    return t


def placed_coordinate_form(cube, alpha: int) -> np.ndarray:
    """Coordinate commutator block on one placed cube (an ifs.PlacedCube).

    For a cube with orthogonal part T and edge e_w this is
    (e_w / sqrt(n)) sum_j T[alpha, j] times the j-th coordinate one-form.
    A cube whose transform is not an orthogonal n x n matrix, or whose edge
    is not positive, is rejected.
    """
    n = cube.n
    if not 1 <= alpha <= n:
        raise ValueError(f"axis index must satisfy 1 <= alpha <= {n}, got {alpha}")
    t = _check_orthogonal(cube.transform)
    if t.shape != (n, n) or not cube.e_w > 0:
        raise ValueError(f"expected an {n} x {n} transform and a positive edge")
    row = t[alpha - 1]
    acc = np.zeros((2**n, 2**n))
    for j in range(1, n + 1):
        if row[j - 1] != 0.0:
            acc = acc + row[j - 1] * coordinate_form(n, j)
    return (cube.e_w / np.sqrt(n)) * acc


def custom_unitary_form(u: np.ndarray, values) -> np.ndarray:
    """Commutator of the off-diagonal operator built from an arbitrary unitary."""
    u = np.asarray(u)
    m = u.shape[0]
    if u.shape != (m, m):
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(m)))
    if dev > ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not unitary within {ORTHOGONALITY_TOL:g} (deviation {dev:.3g})")
    n = int(np.log2(m)) + 1
    if 2 ** (n - 1) != m:
        raise ValueError(f"unitary block size must be a power of two, got {m}")
    f = block_order(_vertex_values(n, values))
    op = np.zeros((2 * m, 2 * m), dtype=np.result_type(u, f))
    op[:m, m:] = u.conj().T
    op[m:, :m] = u
    return op * f[None, :] - f[:, None] * op
