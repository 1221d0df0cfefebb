"""Trace values across the preset catalog.

For each built-in system: the similarity dimension, the closed trace at a
convergent exponent, the critical residue value (with its sampled-limit
verification), and the quantized volume.  Ends with the truncation picture:
partial word sums approach the closed value inside the geometric tail bound.
"""

import math

from fractal_dirac import (
    dixmier_trace_dirac,
    preset,
    quantized_volume,
    similarity_dimension,
    zeta_closed,
    zeta_truncated,
)
from fractal_dirac.spectral import residue_limit_samples

NAMES = [
    "cantor_set",
    "cantor_dust2",
    "cantor_dust3",
    "lifted_cantor",
    "sierpinski_carpet",
    "menger_sponge",
    "lifted_carpet",
    "rotation",
    "non_osc",
]

print(f"{'system':<18} {'dim_s':>8} {'zeta(dim+0.2)':>14} {'critical trace':>14} "
      f"{'sampled limit':>14} {'quantized vol':>14}")
for name in NAMES:
    ifs = preset(name)
    dim = similarity_dimension(ifs)
    zeta = zeta_closed(ifs, dim + 0.2).value
    dix = dixmier_trace_dirac(ifs, dim).value
    _, samples, _ = residue_limit_samples(ifs, dim)
    qv = quantized_volume(ifs, dim / ifs.n).value
    print(f"{name:<18} {dim:8.5f} {zeta:14.6f} {dix:14.6f} {samples[-1]:14.6f} {qv:14.6f}")

print()
print("Reference points: the interval system gives 2/log 2 = "
      f"{2 / math.log(2):.6f}; the sponge gives 8/log 20 = {8 / math.log(20):.6f}.")
print()

print("Truncated word sums vs the closed value (middle-third system, p = dim + 0.2):")
cs = preset("cantor_set")
p = similarity_dimension(cs) + 0.2
closed = zeta_closed(cs, p).value
print(f"  closed value: {closed:.10f}")
for depth in (2, 5, 10, 15, 20):
    trunc = zeta_truncated(cs, p, depth)
    print(
        f"  J={depth:>2}: {trunc.value:.10f}  gap {abs(trunc.value - closed):.3e}"
        f"  tail bound {trunc.error_bound:.3e}"
    )
