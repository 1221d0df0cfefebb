"""Combinatorial Fredholm modules and spectral triples on self-similar sets built on n-cubes.

Second routes and internals are imported from their modules, e.g. calculus.matrix_abs.
"""

from .calculus import (
    clifford_check,
    commutator_direct,
    commutator_hadamard,
    coordinate_form,
    volume_element_abs,
)
from .components import ComponentReport, level_one_components
from .cube import f_matrix, g_matrix, grading, oriented_edges
from .errors import BudgetExceededError, CapacityError, DivergenceError, FractalDiracError
from .ifs import (
    IfsSystem,
    PlacedCube,
    Similitude,
    compose,
    iter_placed,
    load_ifs,
    save_ifs,
    similarity_dimension,
    vertex_closure_check,
)
from .ktheory import (
    Box,
    ProjectionSpec,
    closed_box,
    connes_gap_pairing,
    index_pairing,
    interval_projection,
    load_projection,
    nonvanish_certificate,
    save_projection,
)
from .presets import (
    cantor_dust,
    cantor_set,
    menger_sponge,
    preset,
    preset_names,
    rotation,
    sierpinski_carpet,
)
from .render import render_svg, write_svg
from .spectral import (
    QuadratureSpec,
    TraceReport,
    commutator_norm_check,
    dixmier_trace_dirac,
    eigenvalue_counting,
    integrate_hausdorff,
    quantized_volume,
    quantized_volume_truncated,
    spectral_dimension_slope,
    weighted_factorization,
    weighted_functional,
    zeta_closed,
    zeta_truncated,
)

__version__ = "0.1.0"
