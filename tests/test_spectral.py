import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fractal_dirac import (
    BudgetExceededError,
    DivergenceError,
    IfsSystem,
    QuadratureSpec,
    cantor_dust,
    cantor_set,
    commutator_norm_check,
    dixmier_trace_dirac,
    eigenvalue_counting,
    g_matrix,
    integrate_hausdorff,
    iter_placed,
    menger_sponge,
    preset,
    quantized_volume,
    quantized_volume_truncated,
    rotation,
    sierpinski_carpet,
    similarity_dimension,
    spectral_dimension_slope,
    weighted_factorization,
    weighted_functional,
    zeta_closed,
    zeta_truncated,
)
from fractal_dirac import calculus, spectral
from fractal_dirac.ifs import LEVEL_CHUNK, Similitude, iter_levels
from fractal_dirac.presets import non_osc
from fractal_dirac.spectral import (
    RESIDUE_DELTAS,
    SLOPE_BASE,
    _counting,
    _ratio_classes,
    _ratio_power_sum,
    _residue_limit,
    _vertex_values,
    _volume_scalar,
    abs_volume_block_deviation,
    residue_limit_samples,
    volume_residue_samples,
)

from conftest import centre_sum_oracle, chaos_game_oracle, random_orthogonal

LOG2 = math.log(2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
def test_zeta_closed_corner_family(n, p):
    if 3.0**p <= 2.0**n:
        pytest.skip("below the critical exponent")
    got = zeta_closed(cantor_dust(n), p).value
    expected = 2**n * 3.0**p / (3.0**p - 2.0**n)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_zeta_closed_carpet_family(n):
    p = 3.0
    got = zeta_closed(preset(f"sc{n}"), p).value
    expected = 2**n * 3.0**p / (3.0**p - 2 ** (n - 1) * (n + 2))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_zeta_closed_overlapping_preset(p):
    got = zeta_closed(non_osc(), p).value
    expected = 4.0 * 3.0**p / (3.0**p - 2.0**p - 4.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_zeta_closed_divergence():
    cs = cantor_set()
    with pytest.raises(DivergenceError):
        zeta_closed(cs, similarity_dimension(cs))
    with pytest.raises(DivergenceError):
        zeta_closed(cs, 0.1)


def test_zeta_truncated_root_only(any_preset):
    got = zeta_truncated(any_preset, 1.0, 0)
    assert got.value == 2**any_preset.n


def test_zeta_truncated_geometric_sum():
    # p=1 on the middle-third system: per-level factor is exactly 2/3
    got = zeta_truncated(cantor_set(), 1.0, 10).value
    expected = 2.0 * (1.0 - (2.0 / 3.0) ** 11) / (1.0 / 3.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_zeta_truncated_tail_bound():
    cs = cantor_set()
    p = similarity_dimension(cs) + 0.2
    closed = zeta_closed(cs, p).value
    for depth in (5, 10, 15):
        trunc = zeta_truncated(cs, p, depth)
        gap = abs(trunc.value - closed)
        assert gap <= trunc.error_bound + 1e-12 * (1.0 + closed)


def test_zeta_truncated_enumeration_modes():
    sponge = preset("menger_sponge")
    # above the word budget the power form is still exact
    above = zeta_truncated(sponge, 3.5, 8).value
    c = 20 * 3.0**-3.5
    np.testing.assert_allclose(above, 8.0 * (1 - c**9) / (1 - c), rtol=1e-12)
    # below it, the power form is the sum of 2^n e_w^p over the enumerated words
    words = sum(float(np.sum(b.e_w**3.5)) for b in iter_levels(sponge, 3))
    np.testing.assert_allclose(zeta_truncated(sponge, 3.5, 3).value, 8.0 * words, rtol=1e-12)


@pytest.mark.parametrize("depth", [1215, 2000])
def test_zeta_truncated_overflow_is_divergence(depth):
    # c = 2 * 3^-0.1 > 1: at depth 1215 the level sum is finite but 2 times it
    # is not; from depth 1216 on the terms themselves overflow a float
    with pytest.raises(DivergenceError):
        zeta_truncated(cantor_set(), 0.1, depth)


def test_zeta_truncated_power_form_streams_its_terms():
    cs = cantor_set()
    c = float(np.sum(cs.ratios**1.0))
    # (2/3)^j underflows to 0.0 near j = 1840; the terms after it add nothing
    expected = 2.0 * math.fsum([c**j for j in range(5001)])
    assert zeta_truncated(cs, 1.0, 5000).value == expected
    tracemalloc.start()
    try:
        deep = zeta_truncated(cs, 1.0, 10**6).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deep == expected
    assert peak < 4 * 2**20  # a list of 10^6 level terms alone takes 32 MB


def test_zeta_truncated_power_form_terms_are_budgeted():
    cs = cantor_set()
    dim = similarity_dimension(cs)
    # at p = dim_s the ratio sum c is within rounding of 1, so no term underflows
    with pytest.raises(BudgetExceededError):
        zeta_truncated(cs, dim, 2 * 10**6, budget=10**6)
    assert zeta_truncated(cs, dim, 10**6 - 1, budget=10**6).depth == 10**6 - 1
    # at p = 1 the terms reach 0.0 near j = 1840, so a deep cutoff sums fewer of them
    expected = 2.0 * math.fsum([(2.0 / 3.0) ** j for j in range(5001)])
    assert zeta_truncated(cs, 1.0, 10**9, budget=2000).value == expected
    with pytest.raises(BudgetExceededError):
        zeta_truncated(cs, 1.0, 10**9, budget=1000)


def test_zeta_truncated_below_critical_has_no_bound():
    report = zeta_truncated(cantor_set(), 0.3, 6)
    assert report.error_bound is None
    assert report.value > 2.0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("cantor_set", 2.0 / LOG2),
        ("cantor_dust2", 4.0 / (2.0 * LOG2)),
        ("cantor_dust3", 8.0 / (3.0 * LOG2)),
        ("sierpinski_carpet", 4.0 / math.log(8.0)),
        ("menger_sponge", 8.0 / math.log(20.0)),
        ("rotation", 2.0 / LOG2),
        ("lifted_cantor", 4.0 / LOG2),
    ],
)
def test_dixmier_closed_values(name, expected):
    ifs = preset(name)
    dim = similarity_dimension(ifs)
    np.testing.assert_allclose(dixmier_trace_dirac(ifs, dim).value, expected, rtol=1e-10)


def test_dixmier_degenerate_single_map():
    from fractal_dirac import Similitude

    lone = IfsSystem(
        n=1,
        maps=(Similitude(ratio=0.5, matrix=np.eye(1), translation=np.zeros(1)),),
        label="point",
    )
    assert similarity_dimension(lone) == 0.0
    with pytest.raises(ValueError):
        dixmier_trace_dirac(lone, 0.0)


def test_dixmier_above_and_below_critical():
    cs = cantor_set()
    dim = similarity_dimension(cs)
    assert dixmier_trace_dirac(cs, dim + 0.5).value == 0.0
    with pytest.raises(DivergenceError):
        dixmier_trace_dirac(cs, dim - 1e-6)


def test_dixmier_residue_limit_path(any_preset):
    dim = similarity_dimension(any_preset)
    closed = dixmier_trace_dirac(any_preset, dim).value
    deltas, samples, extrapolated = residue_limit_samples(any_preset, dim)
    assert abs(samples[-1] - closed) / closed <= 1e-4  # sample at z - 1 = 1e-6
    assert abs(extrapolated - closed) / closed <= 1e-4


def test_trace_values_invariant_under_map_permutation():
    ifs = non_osc()
    shuffled = IfsSystem(n=2, maps=ifs.maps[::-1], label="shuffled", osc=False)
    np.testing.assert_allclose(
        zeta_closed(ifs, 2.2).value, zeta_closed(shuffled, 2.2).value, rtol=1e-12
    )
    dim = similarity_dimension(ifs)
    np.testing.assert_allclose(
        dixmier_trace_dirac(ifs, dim).value,
        dixmier_trace_dirac(shuffled, similarity_dimension(shuffled)).value,
        rtol=1e-10,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantized_volume_corner_family(n):
    ifs = cantor_dust(n)
    dim = similarity_dimension(ifs)
    got = quantized_volume(ifs, dim / n).value
    log32 = math.log(2.0) / math.log(3.0)
    expected = 2**n / (n ** ((2.0 + n * log32) / 2.0) * LOG2)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_quantized_volume_factorizes_through_dixmier(any_preset):
    dim = similarity_dimension(any_preset)
    n = any_preset.n
    lhs = quantized_volume(any_preset, dim / n).value
    rhs = n ** (-dim / 2.0) * dixmier_trace_dirac(any_preset, dim).value
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_quantized_volume_rotated_preset_residue_consistency():
    # the value for the rotated preset equals 2^(1/3)/log 2; the sampled
    # residue route confirms the closed formula independently
    ifs = rotation()
    dim = similarity_dimension(ifs)
    value = quantized_volume(ifs, dim / 2.0).value
    np.testing.assert_allclose(value, 2.0 ** (1.0 / 3.0) / LOG2, rtol=1e-10)
    deltas, samples, extrapolated = volume_residue_samples(ifs, dim / 2.0)
    assert abs(samples[-1] - value) / value <= 1e-4


def test_quantized_volume_edge_cases():
    cs = cantor_set()
    dim = similarity_dimension(cs)
    assert quantized_volume(cs, dim + 0.3).value == 0.0
    with pytest.raises(DivergenceError):
        quantized_volume(cs, dim - 1e-6)
    np.testing.assert_allclose(quantized_volume(cs, dim).value, 2.0 / LOG2, rtol=1e-10)


def test_quantized_volume_truncated_root_block(any_preset):
    n = any_preset.n
    p = 1.0
    got = quantized_volume_truncated(any_preset, p, 0)
    np.testing.assert_allclose(got.value, 2**n / n ** (n * p / 2.0), rtol=1e-12)


def test_quantized_volume_truncated_converges():
    ifs = rotation()
    p = 0.9  # above dim_s / n = 2/3
    closed = (4.0 / 2.0**p) / (1.0 - 4.0 * (1.0 / (2.0 * np.sqrt(2.0))) ** (2 * p))
    for depth in (2, 4):
        report = quantized_volume_truncated(ifs, p, depth)
        gap = abs(report.value - closed)
        assert gap <= report.error_bound + 1e-12 * (1.0 + closed)


def test_rotation_volume_blocks_scalar_to_depth_4():
    assert abs_volume_block_deviation(rotation(), 4) <= 1e-10


@pytest.mark.parametrize("name", ["rotation", "rotation:0.5", "rotation:0.7"])
@pytest.mark.parametrize("depth", [3, 4])
def test_rotation_volume_block_deviation_is_pinned(name, depth):
    # float.hex recorded from the one-cube-at-a-time loop over iter_placed
    assert abs_volume_block_deviation(preset(name), depth).hex() == "0x1.0000000000000p-53"


def _volume_per_cube(ifs, p, depth):
    """One dense block at a time over iter_placed, the forms summed from
    calculus.coordinate_form here: the reference for the batched products."""
    n = ifs.n
    total = 0.0
    for cube in iter_placed(ifs, depth):
        prod = np.eye(2**n)
        for alpha in range(n):
            form = sum(cube.transform[alpha, j] * calculus.coordinate_form(n, j + 1)
                       for j in range(n))
            prod = prod @ (cube.e_w / np.sqrt(n) * form)
        w, vecs = np.linalg.eigh(prod.T @ prod)
        total += 2**n * float(((vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.T)[0, 0]) ** p
    return total


def _rotated_and_reflected(rng, n):
    """Three maps of ratio 1/(2 sqrt n) about the centre: a random rotation (det 1), a random
    reflection (det -1) and the reflection in the first axis."""
    mats = [random_orthogonal(rng, n) for _ in range(2)] + [np.diag([-1.0] + [1.0] * (n - 1))]
    for m, det in zip(mats, (1.0, -1.0)):
        m[0] *= det * np.sign(np.linalg.det(m))
    ratio = 0.5 / np.sqrt(n)
    return IfsSystem(n, tuple(Similitude(ratio, m, 0.5 - ratio * m.sum(axis=1) / 2) for m in mats))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_volume_blocks_of_rotated_and_reflected_maps_match_eigh(rng, n):
    # det(T) = -1 flips P = det(T) c Gamma_n; the polar factor must carry that sign
    ifs = _rotated_and_reflected(rng, n)
    assert sorted(np.sign(np.linalg.det(ifs.matrices))) == [-1.0, -1.0, 1.0]
    got = quantized_volume_truncated(ifs, 0.7, 3).value
    assert got == pytest.approx(_volume_per_cube(ifs, 0.7, 3), rel=1e-15)
    for block in iter_levels(ifs, 3):
        scalar = _volume_scalar(n, block.e_w)[:, None, None] * np.eye(2**n)
        np.testing.assert_allclose(spectral._volume_block(block), scalar, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "name,depth", [("rotation:0.7", 4), ("menger_sponge", 2), ("sc3", 1), ("cantor_dust2", 4)]
)
def test_quantized_volume_matches_per_cube_blocks(name, depth):
    ifs = preset(name)
    p = similarity_dimension(ifs) / ifs.n
    got = quantized_volume_truncated(ifs, p, depth).value
    assert got == pytest.approx(_volume_per_cube(ifs, p, depth), rel=1e-15)


def _stretch_first_form(monkeypatch, delta):
    # the first coordinate form times diag(1, 1 + delta, ...): P^T P is then
    # e^2 diag(1, (1 + delta)^2, ...), scalar only within 2 delta e^2
    exact = calculus.coordinate_form

    def form(n, alpha):
        f = exact(n, alpha)
        return f @ np.diag(1.0 + delta * (np.arange(2**n) > 0)) if alpha == 1 else f

    monkeypatch.setattr(calculus, "coordinate_form", form)


def test_volume_routines_read_the_polar_factor_without_eigh(monkeypatch):
    # |P| comes from the closed-form polar factor det(T) Gamma_n, never from an eigendecomposition;
    # with delta = 1e-10 the root block's |P| deviates by 1e-10, within BLOCK_TOL, so it is accepted
    cs = cantor_set()
    expected = _volume_per_cube(cs, 0.7, 3)
    _stretch_first_form(monkeypatch, 1e-10)

    def no_eigh(h):
        raise RuntimeError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert quantized_volume_truncated(cs, 0.7, 3).value == expected
    assert 0.0 < abs_volume_block_deviation(cs, 3) <= 2e-10
    vol = _volume_scalar(3, 0.5) * np.eye(8)
    np.testing.assert_allclose(calculus.volume_element_abs(3, 0.5), vol, rtol=1e-15, atol=0)
    _stretch_first_form(monkeypatch, 1e-8)  # stacked on the 1e-10 stretch: still off BLOCK_TOL
    with pytest.raises(AssertionError, match=r"block at word \[\] is not scalar within 1e-09"):
        quantized_volume_truncated(cs, 0.7, 3)


def test_volume_block_off_scalar_names_its_word(monkeypatch):
    _stretch_first_form(monkeypatch, 1e-8)
    with pytest.raises(AssertionError, match=r"block at word \[\] is not scalar within 1e-09"):
        quantized_volume_truncated(cantor_set(), 0.7, 3)


def test_integrate_constant_is_one(any_preset):
    spec = QuadratureSpec(depth=4)
    got = integrate_hausdorff(any_preset, lambda p: 1.0, spec, override_osc=True)
    np.testing.assert_allclose(got, 1.0, atol=1e-10)


def test_integrate_returns_the_weighted_sum_without_checking_it(monkeypatch):
    # an exponent 1e-9 off dim_s leaves the 8 depth-3 weights summing to 1 - 3.3e-9:
    # the value is still their weighted sum of f, not an error
    from fractal_dirac import spectral

    cs = cantor_set()
    dim = similarity_dimension(cs) + 1e-9
    monkeypatch.setattr(spectral, "similarity_dimension", lambda ifs: dim)
    got = integrate_hausdorff(cs, lambda x: 1.0, QuadratureSpec(depth=3))
    np.testing.assert_allclose(got, 8 * 3.0 ** (-3 * dim), rtol=1e-14)
    assert got < 1.0 - 1e-9


def test_integrate_coordinate_cantor_set():
    # closed-form check: the measure is invariant under x -> 1 - x, so the
    # mean is exactly 1/2
    spec = QuadratureSpec(depth=12)
    got = integrate_hausdorff(cantor_set(), lambda p: p[0], spec)
    np.testing.assert_allclose(got, 0.5, atol=1e-6)


def test_integrate_coordinate_sum_dust():
    spec = QuadratureSpec(depth=8)
    got = integrate_hausdorff(cantor_dust(2), lambda p: p[0] + p[1], spec)
    np.testing.assert_allclose(got, 1.0, atol=1e-6)


def test_integrands_get_whole_blocks_of_points():
    # the call counts follow from the engine's chunk rule: at n = 3 a block holds
    # at most LEVEL_CHUNK rows and children are built LEVEL_CHUNK // 20 parents
    # at a time, so the 8000 depth-3 cubes of the sponge make ceil(8000 / 819) = 10
    # depth-4 blocks, 20000 samples come in 2 chunks, and the norm check sees
    # one block per level
    menger = menger_sponge()
    group = LEVEL_CHUNK // 20

    def calls(run):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return x[0] * x[2] + x[1]

        run(f)
        assert all(len(shape) == 2 and shape[0] == 3 for shape in shapes)
        return len(shapes), sum(shape[1] for shape in shapes)

    det = QuadratureSpec(depth=4)
    assert calls(lambda f: integrate_hausdorff(menger, f, det)) == (math.ceil(20**3 / group), 20**4)
    chaos = QuadratureSpec(depth=4, mode="chaos_game", sample_count=20000, seed=3)
    chaos_calls = math.ceil(20000 / LEVEL_CHUNK)
    assert calls(lambda f: integrate_hausdorff(menger, f, chaos)) == (chaos_calls, 20000)
    blocks = 1 + 20 + 400 + 8000
    assert calls(lambda f: commutator_norm_check(menger, f, 3)) == (4, 8 * blocks)
    # a scalar stands for the values of all the points
    assert integrate_hausdorff(menger, lambda x: 1.0, chaos) == 1.0
    assert integrate_hausdorff(menger, lambda x: 1.0, det) == pytest.approx(1.0, abs=1e-10)


def _ulps_from(value, exact):
    """Distance of the float value from the exact rational, in units of value's last place."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(value))


def _exact_weighted_functional(ifs, f, depth):
    """weighted_functional's formula in exact rationals on the library's own floats: the powers
    e_w^(z p), the per-cube vertex sums tau and the ratio sums c; level sums, tail and extrapolation exact."""
    p = similarity_dimension(ifs)
    blocks = [(b.level, b.e_w, _vertex_values(f, b).sum(axis=1)) for b in iter_levels(ifs, depth)]
    samples = []
    for delta in RESIDUE_DELTAS:
        z = 1.0 + delta
        c = Fraction(_ratio_power_sum(ifs, z * p))
        levels = [Fraction(0)] * (depth + 1)
        for level, e_w, tau in blocks:  # one product per distinct power
            powers, which = np.unique(e_w ** (z * p), return_inverse=True)
            for k, power in enumerate(powers.tolist()):
                levels[level] += Fraction(power) * sum(map(Fraction, tau[which == k].tolist()))
        samples.append(Fraction(delta) * (sum(levels) + levels[depth] * c / (1 - c)))
    xs = [Fraction(d) for d in RESIDUE_DELTAS]
    for k in range(1, len(xs)):  # _residue_limit's Neville table
        for i in range(len(xs) - k):
            samples[i] = (xs[i] * samples[i + 1] - xs[i + k] * samples[i]) / (xs[i] - xs[i + k])
    return samples[0]


def test_block_integrands_keep_the_per_point_values():
    # the values the integrands gave when they were called one point at a time:
    # the same floats, summed in the same order; the level sums are numpy reductions,
    # not a BLAS dot, so the pin holds under every OpenBLAS kernel
    f = lambda x: 0.9 * x[0] + 1.1 * x[1] + 0.2
    report = weighted_factorization(cantor_dust(2), f, 8, quad_depth=1)[0]
    assert report.value == 3.4624676194713975
    # the float sums round each of ~87k products and sums once; they land within 4 ulps of
    # the exact value (0.49 ulps when the pin was recorded)
    assert _ulps_from(report.value, _exact_weighted_functional(cantor_dust(2), f, 8)) <= 4
    f = lambda x: 1.1 * x[0] * x[1] + 0.3 * x[1]
    report = commutator_norm_check(sierpinski_carpet(), f, 5)
    assert (report.blocks, report.max_weak_ratio, report.max_sharp_ratio, report.bound_holds) == (
        37449, 0.7067105327230043, 0.9994396200487877, True)


def test_integrate_chaos_game_agrees():
    spec = QuadratureSpec(depth=12, mode="chaos_game", sample_count=40000, seed=11)
    det = QuadratureSpec(depth=12)
    f = lambda p: p[0]
    a = integrate_hausdorff(cantor_set(), f, spec)
    b = integrate_hausdorff(cantor_set(), f, det)
    assert abs(a - b) <= 3.0 / math.sqrt(spec.sample_count)


def test_integrate_deterministic_values_are_pinned():
    # last-level centres summed in lexicographic word order, as the depth-first
    # walk met them, so the values are the same floats, not merely close ones
    spec = QuadratureSpec
    got = integrate_hausdorff(
        preset("menger_sponge"), lambda x: 1.3 * x[0] + 0.7 * x[1] * x[2], spec(depth=3)
    )
    assert got == 0.8250000000003146
    got = integrate_hausdorff(cantor_set(), lambda x: 1.1 * x[0] + 0.4, spec(depth=10))
    assert got == 0.9500000000015539
    # the same at the depths of the benchmark, where f meets 10 and 4 blocks of centres
    got = integrate_hausdorff(
        menger_sponge(), lambda x: 1.3 * x[0] + 0.7 * x[1] * x[2], spec(depth=4)
    )
    assert got == 0.8250000000004396
    got = integrate_hausdorff(cantor_set(), lambda x: 1.7 * x[0] + 0.4, spec(depth=16))
    assert got == 1.250000000003272


@pytest.mark.parametrize(
    "name,depth,samples,seed,value",
    [
        ("menger_sponge", 3, 70001, 7, 1.3031231828963288),
        ("cantor_dust2", 10, 20000, 12345, 1.300159522091822),
    ],
)
def test_integrate_chaos_game_values_are_pinned(name, depth, samples, seed, value):
    # the chunked inverse-CDF draws are the draws of one
    # Generator.choice(p=...) call over all samples, so the mean is unchanged
    spec = QuadratureSpec(depth=depth, mode="chaos_game", sample_count=samples, seed=seed)
    assert integrate_hausdorff(preset(name), lambda x: 0.9 * x[0] + 1.7 * x[-1], spec) == value


def _tiny_ratio_system():
    """n = 1, three maps of ratio ~1e-9 between two large ones: their cdf entries lie within
    ~1e-6 of each other, strictly inside one cell of the bucketed draws."""
    maps = [(0.5, 1.0, 0.0), (1e-9, 1.0, 0.55), (2e-9, -1.0, 0.56), (1e-9, 1.0, 0.57), (0.3, -1.0, 1.0)]
    return IfsSystem(1, tuple(Similitude(r, np.array([[m]]), np.array([b])) for r, m, b in maps))


QUADRATURE_SYSTEMS = {
    **{name: lambda name=name: preset(name) for name in [
        "sierpinski_carpet", "menger_sponge", "cantor_dust2", "cantor_dust6", "cantor_dust8",
        "cantor_dust10", "cantor_dust12", "rotation", "rotation:0.3", "non_osc", "cantor_set",
        "lifted_carpet", "lifted_cantor", "sc3", "sc4"]},
    "tiny": _tiny_ratio_system,
    "one": lambda: IfsSystem(1, (Similitude(0.5, np.eye(1), np.zeros(1)),)),
}
# an integrand linear in the coordinates, a nonlinear one, and one scalar for all points
INTEGRANDS = [lambda x: 0.9 * x[0] + 1.7 * x[-1], lambda x: np.sin(3.0 * x[0]) * x[-1] + x[0] ** 2,
              lambda x: 0.25]


def _chaos_cases(name, ifs):
    """(sample_count, depth): counts below N (no table), J = 1 (no table either), no symbols
    (J = 0), 30 symbols, exactly N^L samples (4096 = 2^12 = 8^4 = 64^2, 8000 = 20^3), and
    LEVEL_CHUNK - 1, + 0 and + 1; 13 chunks of the benchmark's depth on two systems."""
    cases = [(1, 7), (3, 5), (19, 4), (999, 6), (50, 0), (10, 1), (5, 30), (4096, 2)]
    if ifs.n <= 8:
        cases += [(4096, 5), (8000, 4), (LEVEL_CHUNK - 1, 3), (LEVEL_CHUNK, 3), (LEVEL_CHUNK + 1, 2)]
    if name in ("sierpinski_carpet", "tiny"):
        cases += [(200000, 10)]
    return cases


@pytest.mark.parametrize("name", QUADRATURE_SYSTEMS)
def test_chaos_game_is_the_per_draw_search_bit_for_bit(name):
    ifs = QUADRATURE_SYSTEMS[name]()
    for count, depth in _chaos_cases(name, ifs):
        spec = QuadratureSpec(depth=depth, mode="chaos_game", sample_count=count, seed=count + depth)
        for f in INTEGRANDS:
            got = integrate_hausdorff(ifs, f, spec, override_osc=True)
            assert got == chaos_game_oracle(ifs, f, spec), (count, depth)


@pytest.mark.parametrize("name", QUADRATURE_SYSTEMS)
def test_deterministic_quadrature_is_the_per_centre_sum_bit_for_bit(name):
    ifs = QUADRATURE_SYSTEMS[name]()
    for depth in range(6):
        if ifs.num_maps**depth > 20000:
            break
        for f in INTEGRANDS:
            got = integrate_hausdorff(ifs, f, QuadratureSpec(depth=depth), override_osc=True)
            assert got == centre_sum_oracle(ifs, f, depth), depth


class _ExactDraws:
    """Stands in for numpy's Generator: random(shape) repeats a fixed list of draws."""

    def __init__(self, pool):
        self.pool = pool

    def random(self, shape):
        return np.resize(self.pool, shape)


@pytest.mark.parametrize("name", ["menger_sponge", "sierpinski_carpet", "tiny", "cantor_dust12"])
def test_draws_on_cdf_entries_and_cell_edges_count_as_searchsorted_does(monkeypatch, name):
    # a draw equal to a cdf entry counts it, whether the entry is a cell edge (the carpet's
    # eighths, the dust's 4096ths) or lies inside a cell (the sponge's twentieths, the tiny
    # maps' entries); random draws hit an entry with probability ~2^-53, so they are set here
    ifs = QUADRATURE_SYSTEMS[name]()
    weights = ifs.ratios ** similarity_dimension(ifs)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    edges = np.arange(4096) / 4096  # edges of the cells for every power of two >= 4096 cells
    pool = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1), edges,
                           np.nextafter(edges, 1), np.nextafter(edges[1:], 0)])
    pool = pool[pool < 1.0]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ExactDraws(pool))
    spec = QuadratureSpec(depth=3, mode="chaos_game", sample_count=-(-pool.size // 3), seed=0)
    f = INTEGRANDS[0]
    assert integrate_hausdorff(ifs, f, spec, override_osc=True) == chaos_game_oracle(ifs, f, spec)


@pytest.mark.parametrize("name,spec,loop_peak_mb", [
    ("cantor_dust2", QuadratureSpec(depth=10, mode="chaos_game", sample_count=20000, seed=12345), 2.65),
    ("menger_sponge", QuadratureSpec(depth=4), 4.41),
])
def test_quadrature_peak_memory_stays_at_the_loops(name, spec, loop_peak_mb):
    # loop_peak_mb: the traced peak of the library while it searched each draw and
    # summed one centre at a time (numpy 2.4.6), and 0.5 MB of slack
    ifs, f = preset(name), INTEGRANDS[0]
    integrate_hausdorff(ifs, f, spec)  # first-use allocations (the Generator's) are not the quadrature's
    tracemalloc.start()
    try:
        integrate_hausdorff(ifs, f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (loop_peak_mb + 0.5) * 2**20


def test_integrate_requires_osc_flag():
    spec = QuadratureSpec(depth=4)
    with pytest.raises(ValueError):
        integrate_hausdorff(non_osc(), lambda p: 1.0, spec)
    # explicit override runs and still normalizes weights
    got = integrate_hausdorff(non_osc(), lambda p: 1.0, spec, override_osc=True)
    np.testing.assert_allclose(got, 1.0, atol=1e-10)


def test_weighted_functional_constant_reduces_to_dixmier():
    cs = cantor_set()
    dim = similarity_dimension(cs)
    report = weighted_functional(cs, lambda p: 1.0, dim, 12)
    np.testing.assert_allclose(report.value, 2.0 / LOG2, rtol=1e-5)


def _weighted_per_cube(ifs, f, depth):
    """Per-word loop over iter_placed: the reference for the per-level sums."""
    p = similarity_dimension(ifs)

    def trace_at(zs):
        totals = []
        for z in zs:
            levels = [0.0] * (depth + 1)
            for cube in iter_placed(ifs, depth):
                tau = math.fsum(float(f(v)) for v in cube.vertices)
                levels[cube.level] += cube.e_w ** (z * p) * tau
            c = float(np.sum(ifs.ratios ** (z * p)))
            totals.append(math.fsum(levels) + levels[depth] * c / (1.0 - c))
        return totals

    return _residue_limit(trace_at)[2]


@pytest.mark.parametrize("name,depth", [("cantor_dust2", 5), ("rotation:0.7", 4), ("non_osc", 3)])
def test_weighted_functional_matches_per_cube_loop(name, depth):
    ifs = preset(name)
    f = lambda x: 1.0 + 0.5 * x[0] * x[-1]
    got = weighted_functional(ifs, f, similarity_dimension(ifs), depth).value
    # the sums run in another order, so only the last digits may differ
    assert got == pytest.approx(_weighted_per_cube(ifs, f, depth), rel=1e-12)


def test_weighted_functional_requires_critical_exponent():
    cs = cantor_set()
    with pytest.raises(ValueError):
        weighted_functional(cs, lambda p: 1.0, 1.0, 6)


def test_weighted_factorization_cantor_set():
    report, predicted, rel = weighted_factorization(cantor_set(), lambda p: p[0], 12)
    np.testing.assert_allclose(predicted, (2.0 / LOG2) * 0.5, rtol=1e-6)
    assert abs(report.value - predicted) <= 1e-3


def test_weighted_factorization_dust():
    report, predicted, rel = weighted_factorization(cantor_dust(2), lambda p: p[0], 8)
    np.testing.assert_allclose(predicted, (4.0 / (2.0 * LOG2)) * 0.5, rtol=1e-6)
    assert rel <= 1e-3


def test_eigenvalue_counting_below_one_is_zero(any_preset):
    assert eigenvalue_counting(any_preset, 6, 0.5) == 0


@pytest.mark.parametrize("k", [1, 3, 6])
def test_eigenvalue_counting_cantor_powers(k):
    got = eigenvalue_counting(cantor_set(), 10, 3.0**k)
    assert got == 2 * (2 ** (k + 1) - 1)


def test_eigenvalue_counting_matches_enumeration():
    ifs = non_osc()
    lam = 10.0
    depth = 5
    brute = 0
    for cube in iter_placed(ifs, depth):
        if 1.0 / cube.e_w <= lam * (1.0 + 1e-12):
            brute += 1
    assert eigenvalue_counting(ifs, depth, lam) == 4 * brute


@pytest.mark.parametrize("depth, lam, match", [
    (-1, 5.0, "depth must be >= 0"),
    (5, math.nan, "threshold must be positive"),
    (5, 0.0, "threshold must be positive"),
])
def test_eigenvalue_counting_rejects_bad_input(depth, lam, match):
    with pytest.raises(ValueError, match=match):
        eigenvalue_counting(cantor_set(), depth, lam)


NAN_ROUTES = {
    "dixmier_trace_dirac": lambda ifs: dixmier_trace_dirac(ifs, math.nan),
    "quantized_volume": lambda ifs: quantized_volume(ifs, math.nan),
    "zeta_closed": lambda ifs: zeta_closed(ifs, math.nan),
    "zeta_truncated": lambda ifs: zeta_truncated(ifs, math.nan, 5),
    "residue_limit_samples": lambda ifs: residue_limit_samples(ifs, math.nan),
    "quantized_volume_truncated": lambda ifs: quantized_volume_truncated(ifs, math.nan, 2),
    "weighted_functional": lambda ifs: weighted_functional(ifs, lambda x: x[0], math.nan, 4),
}


@pytest.mark.parametrize("route", sorted(NAN_ROUTES))
def test_nan_exponent_is_refused_before_any_sweep(monkeypatch, route):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a word sweep ran")

    monkeypatch.setattr(spectral, "iter_levels", no_sweep)
    with pytest.raises(ValueError, match="exponent must be a number"):
        NAN_ROUTES[route](cantor_set())


def test_infinite_exponent_keeps_limit_values():
    carpet = sierpinski_carpet()  # n = 2, so n^(h t) is not 1 at t = inf
    assert zeta_closed(carpet, math.inf).value == 4.0
    trunc = zeta_truncated(carpet, math.inf, 3)
    assert (trunc.value, trunc.error_bound) == (4.0, 0.0)
    assert dixmier_trace_dirac(carpet, math.inf).value == 0.0
    assert quantized_volume(carpet, math.inf).value == 0.0
    assert volume_residue_samples(carpet, math.inf)[1] == [0.0] * 4
    volume = quantized_volume_truncated(carpet, math.inf, 2)
    assert (volume.value, volume.error_bound) == (0.0, 0.0)
    with pytest.raises(DivergenceError):
        zeta_closed(carpet, -math.inf)


def test_spectral_dimension_slopes():
    cs = cantor_set()
    assert abs(spectral_dimension_slope(cs, 10) - similarity_dimension(cs)) <= 0.05
    carpet = sierpinski_carpet()
    assert abs(spectral_dimension_slope(carpet, 10) - similarity_dimension(carpet)) <= 0.05


def test_spectral_dimension_slope_needs_two_thresholds():
    cs = cantor_set()
    for depth in range(spectral.SLOPE_K_MIN + 1):
        with pytest.raises(ValueError, match="depth must be at least 4"):
            spectral_dimension_slope(cs, depth)
    # pinned least-squares slopes at the shallowest accepted depth and at 10, by the centred
    # closed form in numpy reductions (np.polyfit's BLAS-kernel bits are not pinned)
    pins = [(cs, 4, 0.6607763365390875), (cs, 10, 0.6379463801378158),
            (non_osc(), 4, 0.9701910139108617), (non_osc(), 10, 1.431262374625812)]
    for ifs, depth, pin in pins:
        assert spectral_dimension_slope(ifs, depth) == pin
        # the same formula in exact rationals on the same log floats: the centring, the
        # products and the two sums of at most 8 terms stay within 4 ulps (2 when pinned)
        classes = _ratio_classes(ifs, depth)
        ks = range(spectral.SLOPE_K_MIN, depth + 1)
        xs = [Fraction(k * math.log(SLOPE_BASE)) for k in ks]
        ys = [Fraction(math.log(_counting(classes, ifs.n, SLOPE_BASE**k))) for k in ks]
        dx = [x - sum(xs) / len(xs) for x in xs]
        dy = [y - sum(ys) / len(ys) for y in ys]
        exact = sum(a * b for a, b in zip(dx, dy)) / sum(a * a for a in dx)
        assert _ulps_from(pin, exact) <= 4


def test_norm_check_constant_function():
    report = commutator_norm_check(cantor_set(), lambda p: 2.0, 4)
    assert report.bound_holds
    assert report.max_weak_ratio == 0.0


def _norm_ratios_per_cube(ifs, f, depth):
    """One word at a time over iter_placed: the reference for the batched check."""
    g = g_matrix(ifs.n)
    weak, sharp = 0.0, 0.0
    for cube in iter_placed(ifs, depth):
        values = np.array([float(f(v)) for v in cube.vertices])
        edge_diffs = (values[0::2][None, :] - values[1::2][:, None]) * g
        bound = np.max(np.abs(edge_diffs))
        norm = float(np.linalg.norm(edge_diffs / math.sqrt(ifs.n), 2))
        if bound > 0.0:
            weak = max(weak, norm / (math.sqrt(ifs.n) * bound))
            sharp = max(sharp, norm / bound)
    return weak, sharp


@pytest.mark.parametrize(
    "name,depth", [("sierpinski_carpet", 3), ("rotation:0.7", 4), ("menger_sponge", 2)]
)
def test_norm_check_matches_per_cube_loop(name, depth):
    ifs = preset(name)
    f = lambda x: np.sin(2.0 * x[0]) + x[-1] ** 2
    report = commutator_norm_check(ifs, f, depth)
    # the same arithmetic on every block; the batched norm may differ in the last bit
    got = [report.max_weak_ratio, report.max_sharp_ratio]
    np.testing.assert_array_max_ulp(got, _norm_ratios_per_cube(ifs, f, depth), maxulp=1)


def test_norm_check_report_types():
    report = commutator_norm_check(preset("sierpinski_carpet"), lambda p: p[0] * p[1], 2)
    assert type(report.blocks) is int
    assert type(report.max_weak_ratio) is float
    assert type(report.max_sharp_ratio) is float
    assert type(report.bound_holds) is bool


def test_norm_check_coordinate_function():
    # for the first coordinate the block norm is exactly e_w / sqrt(n)
    ifs = cantor_dust(2)
    report = commutator_norm_check(ifs, lambda p: p[0], 3)
    assert report.bound_holds
    np.testing.assert_allclose(report.max_sharp_ratio, 1.0 / math.sqrt(2.0), rtol=1e-10)


def test_norm_check_random_lipschitz(rng):
    coeffs = rng.standard_normal(3)

    def f(p):
        return np.sin(coeffs[0] * p[0] + coeffs[1] * p[1]) + coeffs[2] * p[0]

    for name in ("cantor_dust2", "rotation"):
        report = commutator_norm_check(preset(name), f, 4)
        assert report.bound_holds
        assert report.blocks == sum(4**j for j in range(5))
