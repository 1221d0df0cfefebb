"""Combinatorial Fredholm modules and spectral triples on self-similar sets built on n-cubes."""

from .calculus import (
    clifford_check,
    commutator_direct,
    commutator_hadamard,
    coordinate_form,
    coordinate_values,
    custom_unitary_form,
    matrix_abs,
    placed_coordinate_form,
    volume_element_abs,
)
from .components import Component, ComponentReport, level_one_components
from .cube import (
    f_matrix,
    g_matrix,
    grading,
    oriented_edges,
    u_matrix,
    x_matrix,
)
from .errors import BudgetExceededError, CapacityError, DivergenceError, FractalDiracError
from .ifs import (
    IfsSystem,
    PlacedCube,
    Similitude,
    compose,
    default_budget,
    iter_placed,
    load_ifs,
    save_ifs,
    similarity_dimension,
    vertex_closure_check,
)
from .ktheory import (
    Box,
    IndexReport,
    NonvanishCertificate,
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
    lifted_cantor,
    lifted_carpet,
    menger_sponge,
    non_osc,
    preset,
    preset_names,
    rotation,
    sc,
    sierpinski_carpet,
)
from .render import render_svg, write_svg
from .spectral import (
    QuadratureSpec,
    TraceReport,
    abs_volume_block_deviation,
    commutator_norm_check,
    dixmier_trace_dirac,
    eigenvalue_counting,
    integrate_hausdorff,
    quantized_volume,
    quantized_volume_truncated,
    residue_limit_samples,
    spectral_dimension_slope,
    volume_residue_samples,
    weighted_factorization,
    weighted_functional,
    zeta_closed,
    zeta_truncated,
)

__version__ = "0.1.0"
