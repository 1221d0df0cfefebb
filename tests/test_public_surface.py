"""The package's public surface, spelled out so that any change to it is a visible edit here."""

import types

import fractal_dirac

PUBLIC_NAMES = [
    "Box",
    "BudgetExceededError",
    "CapacityError",
    "ComponentReport",
    "DivergenceError",
    "FractalDiracError",
    "IfsSystem",
    "PlacedCube",
    "ProjectionSpec",
    "QuadratureSpec",
    "Similitude",
    "TraceReport",
    "cantor_dust",
    "cantor_set",
    "clifford_check",
    "closed_box",
    "commutator_direct",
    "commutator_hadamard",
    "commutator_norm_check",
    "connes_gap_pairing",
    "coordinate_form",
    "dixmier_trace_dirac",
    "eigenvalue_counting",
    "f_matrix",
    "g_matrix",
    "index_pairing",
    "integrate_hausdorff",
    "interval_projection",
    "iter_placed",
    "level_one_components",
    "load_ifs",
    "load_projection",
    "menger_sponge",
    "nonvanish_certificate",
    "oriented_edges",
    "preset",
    "preset_names",
    "quantized_volume",
    "quantized_volume_truncated",
    "render_svg",
    "rotation",
    "save_ifs",
    "save_projection",
    "sierpinski_carpet",
    "similarity_dimension",
    "spectral_dimension_slope",
    "vertex_closure_check",
    "volume_element_abs",
    "weighted_factorization",
    "weighted_functional",
    "write_svg",
    "zeta_closed",
    "zeta_truncated",
]


def test_public_names_are_the_listed_ones():
    exported = sorted(
        name for name, value in vars(fractal_dirac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_trace_report_fields():
    fields = list(fractal_dirac.TraceReport.__dataclass_fields__)
    assert fields == ["value", "depth", "error_bound"]
