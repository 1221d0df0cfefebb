"""Walk through the combinatorial operators of the unit n-cube.

Shows the recursive vertex numbering, the oriented edge structure, and the
matrix family built from it, then verifies the defining identities.
"""

import numpy as np

from fractal_dirac import f_matrix, g_matrix, oriented_edges
from fractal_dirac.cube import u_matrix, vertex_bits, x_matrix


def grading(n):
    """The +1/-1 grading in block order: even vertices first, odd vertices second."""
    return np.diag(np.repeat([1.0, -1.0], 2 ** (n - 1)))


np.set_printoptions(linewidth=120, suppress=True)

print("Vertex numbering of the square (edge length 1):")
print(vertex_bits(2) * 1.0)
print()
print("and of the 3-cube; the second half mirrors the first with the last")
print("coordinate raised, which makes index parity match vertex parity:")
print(vertex_bits(3) * 1.0)
print()

print("Signed adjacency between odd and even vertices (rows: v1,v3,...):")
for n in (1, 2, 3):
    print(f"n={n}:")
    print(oriented_edges(n))
print()

print("The matrix family: a block-swap involution X, the signed edge matrix G,")
print("its unitary normalization U = G/sqrt(n), and the odd involution F.")
print("G_3 =")
print(g_matrix(3))
print("U_2 =")
print(u_matrix(2))
print("F_1 =")
print(f_matrix(1))
print()

print("Identities, max entrywise residuals over n = 1..10:")
for name, residual in [
    ("U U^T = I     ", lambda n: np.max(np.abs(u_matrix(n) @ u_matrix(n).T - np.eye(2 ** (n - 1))))),
    ("F^2 = I       ", lambda n: np.max(np.abs(f_matrix(n) @ f_matrix(n) - np.eye(2**n)))),
    ("F eps = -eps F", lambda n: np.max(np.abs(f_matrix(n) @ grading(n) + grading(n) @ f_matrix(n)))),
    ("X G^T = G X   ", lambda n: np.max(np.abs(x_matrix(n) @ g_matrix(n).T - g_matrix(n) @ x_matrix(n)))),
]:
    print(f"  {name}: {max(residual(n) for n in range(1, 11)):.3g}")

print()
print("Sign pattern of G vs the independent edge-orientation recursion:")
agree = all(
    np.array_equal(np.sign(g_matrix(n)), oriented_edges(n)) for n in range(1, 11)
)
print(f"  identical for n = 1..10: {agree}")
