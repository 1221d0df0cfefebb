"""Zeta functions, Dixmier traces, quantized volumes, and quadrature.

The operator under study scales each word block by the reciprocal composed
ratio, so its trace powers reduce to geometric series over the per-level
ratio sums.  Closed formulas are primary; truncated word sums and sampled
residue limits provide independent verification paths.  The Hausdorff
probability measure is realized by the self-similar weights ratio^dim, which
is exact for systems satisfying the open set condition.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .calculus import matrix_abs, placed_coordinate_form
from .cube import g_matrix
from .errors import BudgetExceededError, DivergenceError
from .ifs import (
    LEVEL_CHUNK,
    IfsSystem,
    default_budget,
    iter_levels,
    iter_placed,
    similarity_dimension,
)

EQUALITY_TOL = 1e-9  # |p - dim_s| below this counts as the critical exponent
PRE_TOL = 1e-12
BLOCK_TOL = 1e-9  # relative deviation of a volume block from a scalar matrix
RESIDUE_DELTAS = tuple(10.0**-k for k in (3, 4, 5, 6))  # sample points z = 1 + delta
SLOPE_BASE = 3.0  # counting-function thresholds SLOPE_BASE^k, k = SLOPE_K_MIN..depth
SLOPE_K_MIN = 3


@dataclass(frozen=True)
class TraceReport:
    """One numerical trace-type quantity with its truncation metadata."""

    quantity: str
    p: float
    value: float
    dim_s: float
    depth: int | None = None
    error_bound: float | None = None


@dataclass(frozen=True)
class QuadratureSpec:
    """How to sample the self-similar measure: fixed-depth nodes or random words."""

    depth: int
    mode: str = "deterministic"
    sample_count: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("deterministic", "chaos_game"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.mode == "chaos_game" and self.sample_count < 1:
            raise ValueError("sample_count must be positive")


def _ratio_power_sum(ifs, p):
    return float(np.sum(ifs.ratios ** p))


def zeta_closed(ifs: IfsSystem, p: float) -> TraceReport:
    """Closed geometric-series value of the trace at exponent p."""
    dim = similarity_dimension(ifs)
    c = _ratio_power_sum(ifs, p)
    if c >= 1.0:
        raise DivergenceError(
            f"trace diverges at p={p}: per-level ratio sum {c:.6g} >= 1 "
            f"(needs p > dim_s = {dim:.12g})"
        )
    value = 2**ifs.n / (1.0 - c)
    return TraceReport(quantity="zeta_closed", p=p, value=value, dim_s=dim)


def zeta_truncated(ifs: IfsSystem, p: float, depth: int, budget: int | None = None) -> TraceReport:
    """Partial trace sum over words of length <= depth.

    The value is the per-level power form, which may sum at most budget level
    terms.  error_bound is the exact geometric tail when the series converges.
    """
    if p <= 0:
        raise ValueError("exponent must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dim = similarity_dimension(ifs)
    c = _ratio_power_sum(ifs, p)
    if budget is None:
        budget = default_budget()
    terms = depth + 1  # the power form stops at its first term of 0.0; c >= 1 has none
    if c < 1.0:
        terms = bisect_left(range(depth + 1), True, key=lambda j: c**j == 0.0)
    if terms > budget:
        raise BudgetExceededError(
            f"the power form at p={p} would sum {terms} level terms, over the budget of {budget}")
    try:  # for c < 1 every term after the first 0.0 is 0.0
        value = 2**ifs.n * math.fsum(takewhile(bool, (c**j for j in range(depth + 1))))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DivergenceError(f"partial trace sum at p={p} overflows by depth {depth}")
    bound = None
    if c < 1.0:
        bound = 2**ifs.n * c ** (depth + 1) / (1.0 - c)
    return TraceReport(
        quantity="zeta_truncated", p=p, value=value, dim_s=dim, depth=depth, error_bound=bound
    )


def _residue_slope(ifs, dim):
    """Derivative scale of the per-level ratio sum at the critical exponent."""
    ratios = ifs.ratios
    slope = -dim * float(np.sum(ratios**dim * np.log(ratios)))
    if slope <= 0.0:
        raise ValueError(
            "degenerate system: the critical residue is undefined for a single contraction"
        )
    return slope


def dixmier_trace_dirac(ifs: IfsSystem, p: float) -> TraceReport:
    """Residue value of the singular trace at exponent p.

    The normalization is Connes' Dixmier trace of T = |D|^(-p): the residue
    lim_{z->1+} (z - 1) Tr(T^z), which equals the log-average
    lim (1/log M) sum_{k<=M} mu_k(T) of the singular values.  Nonzero exactly
    at the critical exponent, where the simple pole of the closed zeta form
    has residue 2^n over the log-weighted ratio sum.
    """
    dim = similarity_dimension(ifs)
    if p < dim - PRE_TOL:
        raise DivergenceError(f"exponent p={p} below the critical value dim_s={dim:.12g}")
    if abs(p - dim) <= EQUALITY_TOL:
        value = 2**ifs.n / _residue_slope(ifs, dim)
    else:
        value = 0.0
    return TraceReport(quantity="dixmier_dirac", p=p, value=value, dim_s=dim)


def residue_limit_samples(ifs: IfsSystem, p: float):
    """Sampled (z-1) * zeta(z p) near z = 1, with polynomial extrapolation to 0.

    Returns (deltas, samples, extrapolated); the samples use the closed zeta
    form, so this is an independent route to the residue value.
    """
    return _residue_limit(lambda zs: [zeta_closed(ifs, z * p).value for z in zs])


def _residue_limit(trace_at):
    """Samples (z - 1) * R(z) at z = 1 + delta and extrapolates them to z = 1.

    trace_at maps the list of sample points z to the list of values R(z).
    Returns (deltas, samples, extrapolated).
    """
    deltas = list(RESIDUE_DELTAS)
    values = trace_at([1.0 + d for d in deltas])
    samples = [d * r for d, r in zip(deltas, values)]
    return deltas, samples, _extrapolate_to_zero(deltas, samples)


def _extrapolate_to_zero(xs, ys):
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    tab = list(ys)
    m = len(xs)
    for k in range(1, m):
        for i in range(m - k):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + k] * tab[i]) / (xs[i] - xs[i + k])
    return tab[0]


def quantized_volume(ifs: IfsSystem, p: float) -> TraceReport:
    """Residue value of the volume-measure trace at exponent p.

    The operator is T = |[F,x_1]...[F,x_n]|^p.  On the block of word w the
    absolute value is e_w^n / n^(n/2) times the identity, whatever the
    orthogonal part of the composed map.  The value uses the normalization of dixmier_trace_dirac:
    the residue of Tr(T^z) at z = 1, which is the log-average of the singular
    values.  It equals n^(-dim_s/2) times the critical residue of the
    reciprocal-ratio trace; nonzero exactly at p = dim_s / n.
    """
    dim = similarity_dimension(ifs)
    q = dim / ifs.n
    if p < q - PRE_TOL:
        raise DivergenceError(f"exponent p={p} below the critical value dim_s/n={q:.12g}")
    if abs(p - q) <= EQUALITY_TOL:
        value = ifs.n ** (-dim / 2.0) * (2**ifs.n / _residue_slope(ifs, dim))
    else:
        value = 0.0
    return TraceReport(quantity="quantized_volume", p=p, value=value, dim_s=dim)


def volume_residue_samples(ifs: IfsSystem, p: float):
    """Sampled residue route for the volume-measure trace at exponent p."""
    n = ifs.n

    def trace_at(z):
        c = _ratio_power_sum(ifs, n * z * p)
        if c >= 1.0:
            raise DivergenceError(f"volume trace diverges at z*p={z * p}")
        return (2**n / n ** (n * z * p / 2.0)) / (1.0 - c)

    return _residue_limit(lambda zs: [trace_at(z) for z in zs])


def quantized_volume_truncated(
    ifs: IfsSystem, p: float, depth: int, budget: int | None = None
) -> TraceReport:
    """Partial volume-trace sum built from actual per-word operator blocks.

    For every word the operator absolute value of the ordered product of
    placed coordinate commutators is formed, a whole iter_levels block at a
    time, and must be scalar within BLOCK_TOL; the scalars feed the sum.
    This exercises the matrix route rather than the closed scalar shortcut.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dim = similarity_dimension(ifs)
    n = ifs.n
    total = 0.0
    for block in iter_levels(ifs, depth, budget=budget):
        block_abs = _volume_block(block)
        scal = block_abs[:, 0, 0]
        dev = np.abs(block_abs - scal[:, None, None] * np.eye(2**n)).max(axis=(1, 2))
        off = np.flatnonzero(dev > BLOCK_TOL * np.maximum(1.0, block.e_w**n / n ** (n / 2.0)))
        if off.size:
            raise AssertionError(f"volume block at word {block.words[off[0]].tolist()} "
                                 f"is not scalar within {BLOCK_TOL:g}")
        for s in scal.tolist():
            total += 2**n * s**p
    c = _ratio_power_sum(ifs, n * p)
    bound = None
    if c < 1.0:
        bound = (2**n / n ** (n * p / 2.0)) * c ** (depth + 1) / (1.0 - c)
    return TraceReport(
        quantity="quantized_volume", p=p, value=total, dim_s=dim, depth=depth, error_bound=bound
    )


def _volume_block(cube):
    """Operator absolute value of the ordered product of the placed coordinate
    forms: one matrix for a single cube, one per row for a block."""
    prod = placed_coordinate_form(cube, 1)
    for alpha in range(2, cube.n + 1):
        prod = prod @ placed_coordinate_form(cube, alpha)
    return matrix_abs(prod)


def abs_volume_block_deviation(ifs: IfsSystem, depth: int, budget: int | None = None) -> float:
    """Max deviation of per-word volume blocks from their predicted scalar."""
    n = ifs.n
    worst = 0.0
    for cube in iter_placed(ifs, depth, budget=budget):
        expected = cube.e_w**n / n ** (n / 2.0)
        worst = max(worst, float(np.max(np.abs(_volume_block(cube) - expected * np.eye(2**n)))))
    return worst


def integrate_hausdorff(
    ifs: IfsSystem,
    f,
    spec: QuadratureSpec,
    override_osc: bool = False,
    budget: int | None = None,
) -> float:
    """Integral of f against the self-similar probability measure.

    Deterministic mode sums ratio^dim_s weights times f at depth-J cube
    centers; chaos-game mode averages f over sample_count random depth-J words
    drawn with the same per-symbol weights; the sample_count * max(1, J)
    placed cubes they visit must fit the budget.  f takes x of shape (n, m),
    coordinate i of m points in x[i], and returns their m values or one
    scalar for all; it is called once per block of centres or of samples.
    """
    if not ifs.osc and not override_osc:
        raise ValueError(
            "self-similar weights realize the Hausdorff measure only under the open "
            "set condition; pass override_osc=True to integrate anyway"
        )
    dim = similarity_dimension(ifs)
    if spec.mode == "deterministic":
        total = 0.0
        for block in iter_levels(ifs, spec.depth, budget=budget):
            if block.level != spec.depth:
                continue
            for e, value in zip(block.e_w.tolist(), _point_values(f, block.centers()).tolist()):
                total += e**dim * value
        return total
    budget = default_budget() if budget is None else budget
    if spec.sample_count * max(1, spec.depth) > budget:  # the placed cubes the samples visit
        raise BudgetExceededError(
            f"drawing {spec.sample_count} sample words of depth {spec.depth} exceeds the "
            f"budget of {budget} placed cubes")
    # inverse-CDF draws, as Generator.choice(p=...) makes them, LEVEL_CHUNK rows at a time
    rng = np.random.default_rng(spec.seed)
    weights = ifs.ratios**dim
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    mats = np.stack([m.matrix for m in ifs.maps])
    trans = np.stack([m.translation for m in ifs.maps])
    ratios = ifs.ratios
    values = np.empty(spec.sample_count)
    for start in range(0, spec.sample_count, LEVEL_CHUNK):
        k = min(LEVEL_CHUNK, spec.sample_count - start)
        draws = cdf.searchsorted(rng.random((k, spec.depth)), side="right")
        pts = np.full((k, ifs.n), 0.5)
        for col in range(spec.depth - 1, -1, -1):
            s = draws[:, col]
            pts = ratios[s, None] * np.einsum("kij,kj->ki", mats[s], pts) + trans[s]
        values[start: start + k] = _point_values(f, pts)
    return float(values.mean())


def weighted_functional(
    ifs: IfsSystem, f, p: float, depth: int, budget: int | None = None
) -> TraceReport:
    """Regularized trace of the function-weighted operator at the critical exponent.

    Per-level vertex sums of f weighted by e_w^{z p} are accumulated to the
    cutoff depth, completed by a geometric tail in the per-level ratio sum,
    multiplied by (z - 1), and extrapolated to z = 1.  f takes (n, m)
    coordinate arrays of whole blocks of vertices, as in integrate_hausdorff.
    """
    dim = similarity_dimension(ifs)
    if abs(p - dim) > EQUALITY_TOL:
        raise ValueError(f"weighted functional is defined at p = dim_s = {dim:.12g}, got {p}")

    def trace_at(zs):
        level_sums = np.zeros((len(zs), depth + 1))
        for block in iter_levels(ifs, depth, budget=budget):
            tau = _vertex_values(f, block).sum(axis=1)
            for m, z in enumerate(zs):
                level_sums[m, block.level] += float(np.dot(block.e_w ** (z * p), tau))
        totals = []
        for m, z in enumerate(zs):
            c = _ratio_power_sum(ifs, z * p)
            if c >= 1.0:
                raise DivergenceError("regularized sum requires z > 1")
            totals.append(float(level_sums[m].sum()) + float(level_sums[m, depth]) * c / (1.0 - c))
        return totals

    _, samples, value = _residue_limit(trace_at)
    err = abs(value - samples[-1])
    return TraceReport(
        quantity="weighted_functional", p=p, value=value, dim_s=dim, depth=depth, error_bound=err
    )


def _point_values(f, points):
    """f at the m rows of points, shape (m, n), from one call on their (n, m) coordinates."""
    return np.broadcast_to(np.asarray(f(points.T), dtype=float), points.shape[:1])


def _vertex_values(f, block):
    """f at every placed vertex of the block, shape (k, 2^n)."""
    v = block.vertices
    return _point_values(f, v.reshape(-1, v.shape[2])).reshape(v.shape[:2])


def weighted_factorization(
    ifs: IfsSystem,
    f,
    depth: int,
    quad_depth: int | None = None,
    budget: int | None = None,
    override_osc: bool = False,
):
    """Weighted functional next to its factorized prediction.

    Returns (report, predicted, rel_diff) where predicted is the critical
    residue value times the quadrature integral of f, which takes (n, m)
    coordinate arrays as in integrate_hausdorff.
    """
    dim = similarity_dimension(ifs)
    report = weighted_functional(ifs, f, dim, depth, budget=budget)
    quad = QuadratureSpec(depth=depth if quad_depth is None else quad_depth)
    integral = integrate_hausdorff(ifs, f, quad, override_osc=override_osc, budget=budget)
    predicted = dixmier_trace_dirac(ifs, dim).value * integral
    scale = max(abs(predicted), 1e-300)
    return report, predicted, abs(report.value - predicted) / scale


def eigenvalue_counting(ifs: IfsSystem, depth: int, lam: float) -> int:
    """Number of reciprocal composed ratios <= lam over words of length <= depth.

    Each word carries a 2^n-dimensional block, so the count is 2^n times the
    number of qualifying words.  Words are grouped by their multiset of
    ratios, which keeps the count polynomial in depth.
    """
    if lam <= 0:
        raise ValueError("threshold must be positive")
    return _counting(_ratio_classes(ifs, depth), ifs.n, lam)


def _ratio_classes(ifs, depth):
    """(log e_w, number of words) of each multiset of ratios over words of length <= depth.

    A multiset is the composition c of the word length over the distinct
    ratios; the words of composition c number sum_i words(c - e_i) * mult_i,
    with mult_i the maps of the i-th ratio, as exact ints.
    """
    uniq, mult = np.unique(ifs.ratios, return_counts=True)
    logs = np.log(uniq)
    level = {(0,) * uniq.size: 1}
    classes = []
    for _ in range(depth + 1):
        classes += [(float(np.dot(combo, logs)), words) for combo, words in level.items()]
        longer = {}
        for combo, words in level.items():
            for i, m in enumerate(mult.tolist()):
                key = combo[:i] + (combo[i] + 1,) + combo[i + 1:]
                longer[key] = longer.get(key, 0) + words * m
        level = longer
    return classes


def _counting(classes, n, lam):
    log_lam = math.log(lam)
    slack = 1e-9 * (1.0 + abs(log_lam))
    return 2**n * sum(words for log_e, words in classes if -log_e <= log_lam + slack)


def spectral_dimension_slope(ifs: IfsSystem, depth: int = 10):
    """Least-squares slope of log counting function against log threshold."""
    classes = _ratio_classes(ifs, depth)
    ks = range(SLOPE_K_MIN, depth + 1)
    xs = np.array([k * math.log(SLOPE_BASE) for k in ks])
    ys = np.array([math.log(_counting(classes, ifs.n, SLOPE_BASE**k)) for k in ks])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


@dataclass(frozen=True)
class NormCheckReport:
    blocks: int
    max_weak_ratio: float  # block norm over sqrt(n) * edge-Lipschitz * e_w
    max_sharp_ratio: float  # block norm over edge-Lipschitz * e_w (logged, not asserted)
    bound_holds: bool


def commutator_norm_check(ifs: IfsSystem, f, depth: int, budget: int | None = None) -> NormCheckReport:
    """Per-word operator norms of the function commutator against the Lipschitz bound.

    Asserts block_norm <= sqrt(n) * L_edge * e_w with L_edge the maximal edge
    difference quotient of f on the placed cube; the sharper constant without
    the sqrt(n) factor is reported but not enforced.  g is +-1 exactly on
    the cube edges (odd row, even column) and 0 elsewhere, so the largest
    entry of |delta * g| is the largest edge difference of f.  f takes (n, m)
    coordinate arrays of whole blocks of vertices, as in integrate_hausdorff.
    """
    n = ifs.n
    g = g_matrix(n)
    sqrt_n = math.sqrt(n)
    max_weak = 0.0
    max_sharp = 0.0
    blocks = 0
    for block in iter_levels(ifs, depth, budget=budget):
        values = _vertex_values(f, block)
        edge_diffs = (values[:, None, 0::2] - values[:, 1::2, None]) * g
        bound = np.max(np.abs(edge_diffs), axis=(1, 2))  # L_edge * e_w
        norm = np.linalg.norm(edge_diffs / sqrt_n, 2, axis=(1, 2))
        blocks += block.e_w.size
        ok = bound != 0.0
        if np.any(norm[~ok] > 1e-14):
            max_weak = math.inf
        max_weak = float(np.max(norm[ok] / (sqrt_n * bound[ok]), initial=max_weak))
        max_sharp = float(np.max(norm[ok] / bound[ok], initial=max_sharp))
    return NormCheckReport(
        blocks=blocks,
        max_weak_ratio=max_weak,
        max_sharp_ratio=max_sharp,
        bound_holds=max_weak <= 1.0 + 1e-12,
    )
