"""Quantized differentials on one cube: two routes, Clifford structure, volume.

The commutator of the odd involution with a vertex function can be computed
directly or assembled entrywise from vertex differences; the two agree to
machine precision.  Coordinate one-forms anticommute like Clifford
generators, and the absolute value of their ordered product is scalar.
"""

import numpy as np

from fractal_dirac import (
    clifford_check,
    commutator_direct,
    commutator_hadamard,
    coordinate_form,
    volume_element_abs,
)
from fractal_dirac.calculus import coordinate_values

np.set_printoptions(linewidth=120, suppress=True)

print("Commutator with the first coordinate on the unit square,")
print("once by definition and once from the entrywise formula:")
direct = commutator_direct(2, coordinate_values(2, 1))
entrywise = commutator_hadamard(2, coordinate_values(2, 1))
print(direct)
print(f"two-path deviation: {np.max(np.abs(direct - entrywise)):.3g}")
print()

print("Normalized coordinate one-forms on the square:")
print("axis 1:")
print(coordinate_form(2, 1))
print("axis 2:")
print(coordinate_form(2, 2))
print()

print("Clifford anticommutation residuals (exact integer arithmetic underneath):")
for n in range(1, 9):
    print(f"  n={n}: {clifford_check(n):.3g}")
print()

print("Absolute value of the ordered product of all coordinate commutators")
print("is the scalar e^n / n^(n/2) times the identity:")
for n, e in [(1, 1.0), (2, 1.0), (3, 3.0), (4, 0.5)]:
    block = volume_element_abs(n, e)
    expected = e**n / n ** (n / 2.0)
    dev = np.max(np.abs(block - expected * np.eye(2**n)))
    print(f"  n={n}, e={e}: scalar {block[0, 0]:.6f} (expected {expected:.6f}, dev {dev:.2g})")
