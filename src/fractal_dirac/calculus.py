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
        return _kron(swap, x_matrix(n))
    eps1 = np.array([[1, 0], [0, -1]], dtype=np.int64)
    mid = _kron(np.eye(2 ** (n - alpha - 1), dtype=np.int64), eps1)
    return _kron(_kron(swap, mid), x_matrix(alpha))


def _kron(a, b):
    """np.kron of two matrices, without its general-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


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
    """Operator absolute value sqrt(A* A) of a matrix or of each matrix of a stack (..., m, m).

    A matrix whose A* A is a scalar multiple c I of the identity within
    SCALAR_TOL gets sqrt(c) I; the others go to one stacked symmetric
    eigendecomposition.
    """
    a = np.asarray(a)
    h = np.swapaxes(a.conj(), -1, -2) @ a
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
