"""Acceptance suite.

Each criterion runs inside a recorder that appends one PASS/FAIL line to the
session summary (printed by conftest at the end of the run) and enforces the
stated runtime budget where one applies.  Tolerances are pinned in the
assertions themselves.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import conftest
from fractal_dirac import (
    cantor_dust,
    cantor_set,
    clifford_check,
    commutator_direct,
    commutator_hadamard,
    connes_gap_pairing,
    dixmier_trace_dirac,
    f_matrix,
    g_matrix,
    index_pairing,
    interval_projection,
    nonvanish_certificate,
    preset,
    quantized_volume,
    quantized_volume_truncated,
    rotation,
    similarity_dimension,
    spectral_dimension_slope,
    volume_element_abs,
    weighted_factorization,
    zeta_closed,
    zeta_truncated,
)
from fractal_dirac.cube import u_matrix
from fractal_dirac.spectral import (
    QuadratureSpec,
    abs_volume_block_deviation,
    integrate_hausdorff,
    residue_limit_samples,
    volume_residue_samples,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


@contextmanager
def criterion(num, label, runtime_budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException as exc:
        elapsed = time.monotonic() - start
        reason = str(exc).splitlines()[0][:160] if str(exc) else type(exc).__name__
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num} FAIL ({elapsed:5.1f}s) {label}: {reason}"
        )
        raise
    elapsed = time.monotonic() - start
    if runtime_budget is not None and elapsed > runtime_budget:
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num} FAIL ({elapsed:5.1f}s) {label}: exceeded {runtime_budget}s budget"
        )
        raise AssertionError(f"runtime {elapsed:.1f}s exceeded budget {runtime_budget}s")
    conftest.ACCEPTANCE_LINES.append(f"criterion {num} PASS ({elapsed:5.1f}s) {label}")


def test_criterion_1_matrix_identities():
    with criterion(1, "matrix identities for n=1..10", runtime_budget=5.0):
        for n in range(1, 11):
            u = u_matrix(n)
            f = f_matrix(n)
            eps = conftest.grading(n)
            assert np.max(np.abs(u @ u.T - np.eye(2 ** (n - 1)))) <= 1e-12
            assert np.max(np.abs(f @ f - np.eye(2**n))) <= 1e-12
            assert np.max(np.abs(f - f.T)) <= 1e-12
            assert np.max(np.abs(f @ eps + eps @ f)) <= 1e-12
        np.testing.assert_array_equal(g_matrix(2), [[1, -1], [1, 1]])
        np.testing.assert_array_equal(
            g_matrix(3), [[1, -1, 0, -1], [1, 1, -1, 0], [0, 1, 1, -1], [1, 0, 1, 1]]
        )
        np.testing.assert_allclose(u_matrix(2), np.array([[1, -1], [1, 1]]) / np.sqrt(2))
        np.testing.assert_allclose(f_matrix(1), [[0, 1], [1, 0]])


def test_criterion_2_clifford_suite():
    with criterion(2, "Clifford relation and volume element", runtime_budget=30.0):
        for n in range(1, 9):
            assert clifford_check(n) <= 1e-11
        for n in range(1, 7):
            for e in (1.0, 1.0 / 3.0, 3.0):
                expected = e**n / n ** (n / 2.0)
                dev = np.max(np.abs(volume_element_abs(n, e) - expected * np.eye(2**n)))
                assert dev <= 1e-11, f"n={n}, e={e}: deviation {dev}"


def test_criterion_3_two_path_commutators():
    with criterion(3, "direct vs entrywise commutators, 100 random functions per n<=8"):
        rng = np.random.default_rng(1234)
        for n in range(1, 9):
            for _ in range(100):
                f = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                dev = np.max(np.abs(commutator_direct(n, f) - commutator_hadamard(n, f)))
                assert dev <= 1e-12, f"n={n}: deviation {dev}"


def _check_residue_route(ifs, closed_value):
    _, samples, _ = residue_limit_samples(ifs, similarity_dimension(ifs))
    assert abs(samples[-1] - closed_value) / closed_value <= 1e-4


def _equal_ratio_volume(n, count, ratio):
    """Closed quantized-volume residue 2^n n^(-dim_s/2) / (dim_s log(1/ratio)).

    For count maps of one ratio, dim_s log(1/ratio) = log(count).
    """
    dim = math.log(count) / math.log(1.0 / ratio)
    return 2**n * n ** (-dim / 2.0) / math.log(count)


def _check_volume_residue_route(ifs, closed_value):
    p = similarity_dimension(ifs) / ifs.n
    _, samples, _ = volume_residue_samples(ifs, p)
    assert abs(samples[-1] - closed_value) / closed_value <= 1e-4


def _check_volume_block_route(ifs, dim, count, closed_value, depth=3):
    """Dixmier log-average of the volume operator from its per-word matrix blocks.

    With all ratios equal, level j holds 2^n count^j equal singular values and
    adds about log(count) to the log of their number, so each level increment
    of the partial sums over log(count) is the limit of the log-average
    (1/log M) sum_{k<=M} mu_k.
    """
    sums = [quantized_volume_truncated(ifs, dim / ifs.n, j).value for j in range(depth + 1)]
    increments = [(b - a) / math.log(count) for a, b in zip(sums, sums[1:])]
    for inc in increments:
        assert abs(inc - closed_value) / closed_value <= 1e-10, (
            f"block log-average {inc:.12g} vs closed {closed_value:.12g}"
        )
    return increments


def test_criterion_4_dixmier_trace_reproduction():
    failures = []

    def item(label, fn):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{label}: {str(exc).splitlines()[0][:100]}")

    with criterion(4, "critical-trace values across the preset catalog"):
        def cantor_set_case():
            ifs = cantor_set()
            dim = similarity_dimension(ifs)
            assert abs(dim - LOG2 / LOG3) / (LOG2 / LOG3) <= 1e-10
            value = dixmier_trace_dirac(ifs, dim).value
            assert abs(value - 2.0 / LOG2) / (2.0 / LOG2) <= 1e-10
            assert abs(value - 2.885390) <= 1e-6
            _check_residue_route(ifs, value)

        item("cantor_set", cantor_set_case)

        def dust_case(n):
            ifs = cantor_dust(n)
            dim = similarity_dimension(ifs)
            expected = 2**n / (n * LOG2)
            value = dixmier_trace_dirac(ifs, dim).value
            assert abs(value - expected) / expected <= 1e-10
            _check_residue_route(ifs, value)

        item("cantor_dust2", lambda: dust_case(2))
        item("cantor_dust3", lambda: dust_case(3))

        def carpet_case(name, count):
            ifs = preset(name)
            dim = similarity_dimension(ifs)
            expected = 2**ifs.n / math.log(count)
            value = dixmier_trace_dirac(ifs, dim).value
            assert abs(value - expected) / expected <= 1e-10
            _check_residue_route(ifs, value)

        item("sierpinski_carpet", lambda: carpet_case("sierpinski_carpet", 8))
        item("menger_sponge", lambda: carpet_case("menger_sponge", 20))

        def rotation_dirac_case():
            ifs = rotation()
            dim = similarity_dimension(ifs)
            assert abs(dim - 4.0 / 3.0) <= 1e-10
            value = dixmier_trace_dirac(ifs, dim).value
            assert abs(value - 2.0 / LOG2) / (2.0 / LOG2) <= 1e-10
            _check_residue_route(ifs, value)

        item("rotation dirac trace", rotation_dirac_case)

        def rotation_volume_case():
            # four maps of ratio 1/(2 sqrt 2) on the square: dim_s = 4/3 and the
            # residue 2^n n^(-dim_s/2) / (dim_s log(2 sqrt 2)) is 2^(1/3)/log 2,
            # the rotation changing no block's absolute value
            ifs = rotation()
            expected = _equal_ratio_volume(2, 4, 1.0 / (2.0 * math.sqrt(2.0)))
            assert abs(expected - 2.0 ** (1.0 / 3.0) / LOG2) <= 1e-14
            value = quantized_volume(ifs, similarity_dimension(ifs) / 2.0).value
            assert abs(value - expected) / expected <= 1e-10
            _check_volume_residue_route(ifs, value)
            increments = _check_volume_block_route(ifs, 4.0 / 3.0, 4, expected)
            # sqrt(2)/log 2, the same formula at dim_s = 1, lies 11% away
            quoted = math.sqrt(2.0) / LOG2
            assert all(abs(inc - quoted) / quoted > 0.1 for inc in increments)

        item("rotation quantized volume", rotation_volume_case)

        def dust2_volume_case():
            ifs = cantor_dust(2)
            expected = _equal_ratio_volume(2, 4, 1.0 / 3.0)
            value = quantized_volume(ifs, similarity_dimension(ifs) / 2.0).value
            assert abs(value - expected) / expected <= 1e-10
            _check_volume_residue_route(ifs, value)
            _check_volume_block_route(ifs, math.log(4.0) / LOG3, 4, expected)

        item("cantor_dust2 quantized volume", dust2_volume_case)

        def non_osc_case():
            ifs = preset("non_osc")
            dim = similarity_dimension(ifs)
            assert 1.8 < dim < 1.9
            residual = 4.0 * 3.0**-dim + (2.0 / 3.0) ** dim - 1.0
            assert abs(residual) <= 1e-10
            for p in (2.0, 2.5):
                expected = 4.0 * 3.0**p / (3.0**p - 2.0**p - 4.0)
                got = zeta_closed(ifs, p).value
                assert abs(got - expected) / expected <= 1e-10
            _check_residue_route(ifs, dixmier_trace_dirac(ifs, dim).value)

        item("non_osc", non_osc_case)

        assert not failures, "; ".join(failures)


def test_criterion_5_truncation_convergence():
    with criterion(5, "geometric tail bound at J=5,10,15 for OSC presets", runtime_budget=60.0):
        for name in conftest.OSC_PRESETS:
            ifs = preset(name)
            p = similarity_dimension(ifs) + 0.2
            closed = zeta_closed(ifs, p).value
            for depth in (5, 10, 15):
                trunc = zeta_truncated(ifs, p, depth)
                gap = abs(trunc.value - closed)
                # the gap equals the bound in exact arithmetic; allow rounding
                slack = 1e-12 * (1.0 + closed)
                assert gap <= trunc.error_bound + slack, (
                    f"{name} J={depth}: gap {gap} > bound {trunc.error_bound}"
                )


def test_criterion_6_rotated_volume_blocks():
    with criterion(6, "per-word volume blocks on the rotated preset, depth<=4"):
        assert abs_volume_block_deviation(rotation(), 4) <= 1e-10


def test_criterion_7_index_pairings():
    with criterion(7, "integer index pairings and certificates"):
        cs = cantor_set()
        for k in range(1, 7):
            report = index_pairing(cs, interval_projection(k), k + 3)
            assert report.value == k, f"pairing at k={k} gave {report.value}"
            assert report.stabilized
            assert connes_gap_pairing(k, k + 3) == 1
        cert = nonvanish_certificate(cantor_dust(2))
        assert cert is not None and cert.pairing_matches
        assert nonvanish_certificate(preset("sierpinski_carpet")) is None
        assert nonvanish_certificate(preset("menger_sponge")) is None
        lifted = nonvanish_certificate(preset("lifted_carpet"))
        assert lifted is not None and lifted.pairing_matches


def test_criterion_8_spectral_dimension_slope():
    with criterion(8, "counting-function slope vs similarity dimension"):
        for name in ("cantor_set", "sierpinski_carpet"):
            ifs = preset(name)
            slope = spectral_dimension_slope(ifs, 10)
            dim = similarity_dimension(ifs)
            assert abs(slope - dim) <= 0.05, f"{name}: slope {slope} vs dim {dim}"


def test_criterion_9_measure_factorization():
    with criterion(9, "weighted trace factorizes through the measure"):
        cs = cantor_set()
        integral = integrate_hausdorff(cs, lambda p: p[0], QuadratureSpec(depth=12))
        assert abs(integral - 0.5) <= 1e-6
        report, predicted, _ = weighted_factorization(cs, lambda p: p[0], 12)
        assert abs(report.value - predicted) <= 1e-3
