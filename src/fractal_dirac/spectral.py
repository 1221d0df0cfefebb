"""Zeta functions, Dixmier traces, quantized volumes, and quadrature.

Both traced operators have a block spectrum: word w carries 2^n singular
values n^(-h t) e_w^t at t = q p, with (h, q) = (0, 1) for |D|^-1 and
(1/2, n) for the volume form |[F,x_1]...[F,x_n]|, whose block is
e_w^n / n^(n/2).  Their closed sums, tails and critical residues are
geometric in the per-level ratio sum c = sum_i r_i^t and written once
(_closed, _tail, _critical); word sums and sampled residue limits are the
independent routes.  The self-similar weights ratio^dim realize the
Hausdorff probability measure under the open set condition.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .calculus import _polar_abs, placed_coordinate_form
from .cube import g_matrix
from .errors import BudgetExceededError, DivergenceError
from .ifs import (
    LEVEL_CHUNK,
    IfsSystem,
    _shown,
    default_budget,
    iter_levels,
    iter_placed,  # no caller here; perfbench reads spectral.iter_placed
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

    value: float
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


def _check_exponent(p):
    """NaN makes every range check false, so it is refused before any sum or sweep."""
    if math.isnan(p):
        raise ValueError("exponent must be a number, got nan")


def _ratio_power_sum(ifs, t):
    _check_exponent(t)
    return float(np.sum(ifs.ratios ** t))


def _scale(n, h, t):
    """Multiplicity times level-free factor, 2^n n^(-h t); h = 0 keeps 2^n at t = inf."""
    return 2**n / (n ** (h * t) if h else 1)


def _closed(ifs, h, t):
    """Closed geometric sum of the block spectrum at t."""
    c = _ratio_power_sum(ifs, t)
    if c >= 1.0:
        raise DivergenceError(
            f"trace diverges at t={t}: per-level ratio sum {c:.6g} >= 1 (needs t > dim_s)")
    return _scale(ifs.n, h, t) / (1.0 - c)


def _tail(ifs, h, t, depth):
    """Geometric tail of the block spectrum beyond words of length depth; None if divergent."""
    c = _ratio_power_sum(ifs, t)
    if c >= 1.0:
        return None
    return _scale(ifs.n, h, t) * c ** min(depth + 1, 2**63 - 1) / (1.0 - c)  # 0.0 from there


def _volume_scalar(n, e):
    """The volume form's block at edge e: the h = 1/2, t = n block, e^n / n^(n/2)."""
    return e**n / n ** (n / 2.0)


def _critical(ifs, h, q, p):
    """Dixmier trace of the block spectrum: its residue at p = dim_s / q, 0.0 above it.

    Connes' normalization: the residue lim_{z->1+} (z - 1) Tr(T^z), equal to the
    log-average of the singular values, n^(-h dim_s) 2^n over the log-weighted
    ratio sum.  Below dim_s / q the trace diverges.
    """
    _check_exponent(p)
    dim = similarity_dimension(ifs)
    crit = dim / q
    if p < crit - PRE_TOL:
        raise DivergenceError(f"exponent p={p} below the critical value {crit:.12g}")
    if abs(p - crit) > EQUALITY_TOL:
        return 0.0
    slope = -dim * float(np.sum(ifs.ratios**dim * np.log(ifs.ratios)))
    if slope <= 0.0:
        raise ValueError("degenerate system: the critical residue is undefined "
                         "for a single contraction")
    return ifs.n ** (-h * dim) * (2**ifs.n / slope)


def zeta_closed(ifs: IfsSystem, p: float) -> TraceReport:
    """Closed geometric-series value of the trace of |D|^-p."""
    return TraceReport(value=_closed(ifs, 0, p))


def zeta_truncated(ifs: IfsSystem, p: float, depth: int, budget: int | None = None) -> TraceReport:
    """Partial trace sum over words of length <= depth.

    The value is the per-level power form, which may sum at most budget level
    terms.  error_bound is the exact geometric tail when the series converges.
    """
    if p <= 0:
        raise ValueError("exponent must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    c = _ratio_power_sum(ifs, p)
    budget = default_budget() if budget is None else budget
    terms = depth + 1  # the power form stops at its first term of 0.0; c >= 1 has none
    if c < 1.0:  # c <= 1 - 2^-53 makes c**j 0.0 before j = 2^63 - 1, the longest range
        terms = bisect_left(range(min(depth + 1, 2**63 - 1)), True, key=lambda j: c**j == 0.0)
    if terms > budget:
        raise BudgetExceededError(
            f"the power form at p={p} would sum {_shown(terms)} level terms, over the budget of {budget}")
    try:  # for c < 1 every term after the first 0.0 is 0.0
        value = 2**ifs.n * math.fsum(takewhile(bool, (c**j for j in range(depth + 1))))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DivergenceError(f"partial trace sum at p={p} overflows by depth {depth}")
    return TraceReport(value=value, depth=depth, error_bound=_tail(ifs, 0, p, depth))


def dixmier_trace_dirac(ifs: IfsSystem, p: float) -> TraceReport:
    """Dixmier trace of |D|^-p, the residue of Tr(|D|^(-zp)) at z = 1; nonzero only at dim_s."""
    return TraceReport(value=_critical(ifs, 0, 1, p))


def residue_limit_samples(ifs: IfsSystem, p: float):
    """Sampled (z-1) * zeta(z p) near z = 1, with polynomial extrapolation to 0.

    Returns (deltas, samples, extrapolated); the samples use the closed zeta
    form, so this is an independent route to the residue value.
    """
    return _residue_limit(lambda zs: [_closed(ifs, 0, z * p) for z in zs])


def _residue_limit(trace_at):
    """Samples (z - 1) * R(z) at z = 1 + delta and extrapolates them to z = 1.

    trace_at maps the list of sample points z to the list of values R(z).
    Returns (deltas, samples, extrapolated).
    """
    xs = list(RESIDUE_DELTAS)
    samples = [d * r for d, r in zip(xs, trace_at([1.0 + d for d in xs]))]
    tab = list(samples)  # Neville's polynomial extrapolation to delta = 0
    m = len(xs)
    for k in range(1, m):
        for i in range(m - k):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + k] * tab[i]) / (xs[i] - xs[i + k])
    return xs, samples, tab[0]


def quantized_volume(ifs: IfsSystem, p: float) -> TraceReport:
    """Dixmier trace of the volume form |[F,x_1]...[F,x_n]|^p: nonzero exactly at p = dim_s / n.

    Its block of word w is e_w^n / n^(n/2) times the identity, whatever the
    orthogonal part of the composed map, so the residue is n^(-dim_s/2) times
    that of dixmier_trace_dirac.
    """
    return TraceReport(value=_critical(ifs, 0.5, ifs.n, p))


def volume_residue_samples(ifs: IfsSystem, p: float):
    """Sampled residue route for the volume-measure trace at exponent p."""
    return _residue_limit(lambda zs: [_closed(ifs, 0.5, ifs.n * z * p) for z in zs])


def quantized_volume_truncated(
    ifs: IfsSystem, p: float, depth: int, budget: int | None = None
) -> TraceReport:
    """Partial volume-trace sum built from actual per-word operator blocks.

    Per word the ordered product P of placed coordinate commutators is formed,
    a whole iter_levels block at a time; |P|, read off its polar decomposition
    P = det(T) Gamma_n |P|, must be scalar within BLOCK_TOL, and its [0, 0]
    entries, P's own on Gamma_n's pattern, feed the sum: the matrix route.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = ifs.n
    bound = _tail(ifs, 0.5, n * p, depth)
    total = 0.0
    for block in iter_levels(ifs, depth, budget=budget):
        block_abs = _volume_block(block)
        scal = block_abs[:, 0, 0]
        dev = np.abs(block_abs - scal[:, None, None] * np.eye(2**n)).max(axis=(1, 2))
        off = np.flatnonzero(dev > BLOCK_TOL * np.maximum(1.0, _volume_scalar(n, block.e_w)))
        if off.size:
            raise AssertionError(f"volume block at word {block.words[off[0]].tolist()} "
                                 f"is not scalar within {BLOCK_TOL:g}")
        for s in scal.tolist():
            total += 2**n * s**p
    return TraceReport(value=total, depth=depth, error_bound=bound)


def _volume_block(cube):
    """|P| = det(T) Gamma_n^T P for the ordered product P = det(T) (e/sqrt(n))^n Gamma_n of the placed
    coordinate forms (Lawson-Michelsohn, Spin Geometry, I.1-2): one matrix per cube or row of a block."""
    prod = placed_coordinate_form(cube, 1)
    for alpha in range(2, cube.n + 1):
        prod = prod @ placed_coordinate_form(cube, alpha)
    return _polar_abs(cube.n, prod, np.sign(np.linalg.det(cube.transform)))


def abs_volume_block_deviation(ifs: IfsSystem, depth: int, budget: int | None = None) -> float:
    """Max deviation of per-word volume blocks from their predicted scalar."""
    n = ifs.n
    worst = 0.0
    for block in iter_levels(ifs, depth, budget=budget):
        expected = _volume_scalar(n, block.e_w)[:, None, None] * np.eye(2**n)
        worst = max(worst, float(np.max(np.abs(_volume_block(block) - expected))))
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
    placed cubes they visit must fit the budget.  The centre's images under
    the N^L words of their innermost L < J symbols, N^L <= min(sample_count,
    LEVEL_CHUNK), are tabled once in no more placed cubes than the
    sample_count * L steps they save.  f takes x of shape (n, m), coordinate i
    of m points in x[i], and returns their m values or one scalar for all; it
    is called once per block of centres or of samples.
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
            # Python's e**dim once per distinct e_w (numpy's SIMD pow may round otherwise), and the
            # terms summed left to right across blocks: accumulate is sequential, np.sum pairwise
            uniq, which = np.unique(block.e_w, return_inverse=True)
            terms = np.array([e**dim for e in uniq.tolist()])[which] * _point_values(f, block.centers())
            terms[0] += total
            total = float(np.add.accumulate(terms, out=terms)[-1])
        return total
    budget = default_budget() if budget is None else budget
    if spec.sample_count * max(1, spec.depth) > budget:  # the placed cubes the samples visit
        raise BudgetExceededError(
            f"drawing {_shown(spec.sample_count)} sample words of depth {_shown(spec.depth)} "
            f"exceeds the budget of {budget} placed cubes")
    # inverse-CDF draws, as Generator.choice(p=...) makes them, LEVEL_CHUNK rows at a time: a draw in
    # cell c of [0, 1) cut in `cells` counts the first[c] cdf entries <= c / cells, or, if an entry
    # lies inside the cell (crossed), is searched for; small integer types keep a chunk small
    rng = np.random.default_rng(spec.seed)
    weights = ifs.ratios**dim
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    big_n, depth = ifs.num_maps, spec.depth
    cells = 1 << max(12, (16 * big_n).bit_length())
    scaled = cdf * cells
    first = scaled.searchsorted(np.arange(cells), side="right").astype(np.min_scalar_type(big_n - 1))
    crossed = scaled.searchsorted(np.arange(1, cells + 1), side="left") > first

    def step(s, pts):  # map s applied to each row of pts, a fresh array it overwrites: r (M p) + b
        out = pts if ifs.homothety else np.einsum("kij,kj->ki", ifs.matrices.take(s, axis=0), pts)
        out *= ifs.ratios.take(s)[:, None]  # M p = p when every M is I: no gather; take outruns mats[s]
        out += ifs.translations.take(s, axis=0)
        return out

    # row a N^m + b of each level of the table is map a applied to row b of the last
    inner, table = 0, np.full((1, ifs.n), 0.5)
    while inner + 1 < depth and big_n ** (inner + 1) <= min(spec.sample_count, LEVEL_CHUNK):
        inner += 1
        table = step(np.repeat(np.arange(big_n), table.shape[0]), np.tile(table, (big_n, 1)))
    values = np.empty(spec.sample_count)
    for start in range(0, spec.sample_count, LEVEL_CHUNK):
        k = min(LEVEL_CHUNK, spec.sample_count - start)
        u = rng.random((k, depth))
        u *= cells  # in place, and exact: cells is a power of two
        draws = u.astype(np.min_scalar_type(cells - 1))  # each draw's cell, then its symbol
        hit = crossed[draws]
        u = u[hit]  # only the draws in crossed cells are kept
        draws = first[draws]
        draws[hit] = scaled.searchsorted(u, side="right")
        pts = table[draws[:, depth - inner:] @ big_n ** np.arange(inner - 1, -1, -1)]
        for col in range(depth - inner - 1, -1, -1):
            pts = step(draws[:, col], pts)
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
        cs = [_ratio_power_sum(ifs, z * p) for z in zs]
        if max(cs) >= 1.0:
            raise DivergenceError("regularized sum requires z > 1")
        level_sums = np.zeros((len(zs), depth + 1))
        for block in iter_levels(ifs, depth, budget=budget):
            tau = _vertex_values(f, block).sum(axis=1)
            for m, z in enumerate(zs):
                level_sums[m, block.level] += float((block.e_w ** (z * p) * tau).sum())  # not BLAS
        return [float(sums.sum()) + float(sums[depth]) * c / (1.0 - c)
                for sums, c in zip(level_sums, cs)]

    _, samples, value = _residue_limit(trace_at)
    return TraceReport(value=value, depth=depth, error_bound=abs(value - samples[-1]))


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
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not lam > 0:
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
    """Least-squares slope of log counting function against log threshold, by the centred
    closed form sum(dx dy) / sum(dx^2) in numpy reductions, so no BLAS kernel sets its bits."""
    if depth < SLOPE_K_MIN + 1:  # the fit needs two thresholds
        raise ValueError(f"depth must be at least {SLOPE_K_MIN + 1}, got {depth}")
    classes = _ratio_classes(ifs, depth)
    ks = range(SLOPE_K_MIN, depth + 1)
    xs = np.array([k * math.log(SLOPE_BASE) for k in ks])
    ys = np.array([math.log(_counting(classes, ifs.n, SLOPE_BASE**k)) for k in ks])
    dx, dy = xs - xs.mean(), ys - ys.mean()
    return float((dx * dy).sum() / (dx * dx).sum())


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
