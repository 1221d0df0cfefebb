"""Summary statistics and metric assembly for benchmark results."""

import math
import statistics

MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it
FLOAT_MAX = 1.7976931348623157e308  # JSON-safe stand-in for the latency of a failed operation


def tail_percentile(samples, min_beyond=MIN_BEYOND):
    """Highest whole percentile with at least min_beyond samples beyond it.

    Uses the nearest-rank definition: percentile p is the sample of rank
    ceil(p N / 100) in ascending order, so exactly N - rank samples lie beyond
    it.  Returns (percentile, value, samples_beyond).  With N <= min_beyond no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= min_beyond:
        return 100, ordered[-1], 0
    pct = (100 * (n - min_beyond)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct n / 100) in integers, at most n - min_beyond
    return pct, ordered[rank - 1], n - rank


def latency_samples(passes):
    """Pooled per-operation latencies; a failed operation counts as infinitely slow."""
    out = []
    for p in passes:
        for op in p["ops"]:
            out.append(op["latency_s"] if op["ok"] else math.inf)
    return out


def finite(x):
    return x if math.isfinite(x) else FLOAT_MAX


def per_op_means(passes):
    """Mean latency of each named operation over the passes; a failure counts as infinite."""
    by_name = {}
    for p in passes:
        for op in p["ops"]:
            by_name.setdefault(op["name"], []).append(op["latency_s"] if op["ok"] else math.inf)
    return {name: sum(v) / len(v) for name, v in by_name.items()}


def end_to_end(passes, setup_samples, peak_rss_kb):
    """End-to-end metrics of one untraced run, plus the facts recorded next to them.

    wall_s is the mean pass time and op_p50_s the median over operations of
    each operation's mean latency.  Means, because a shared host alternates
    between a fast and a slow speed every few tens of seconds: the median of a
    few passes then jumps between the two, while a mean over the whole run
    moves in proportion to the time spent slow.
    """
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op["ok"])
    total_wall = sum(p["wall_s"] for p in passes)
    lat = latency_samples(passes)
    pct, tail, beyond = tail_percentile(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (total_wall / len(passes), "s"),
        "ops_per_s": ((attempted - failed) / total_wall, "1/s"),
        "op_p50_s": (finite(statistics.median(per_op_means(passes).values())), "s"),
        "op_tail_s": (finite(tail), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(lat),
        "passes": len(passes),
        "setup_samples": list(setup_samples),
    }
    return metrics, facts


def per_op_medians(passes):
    """Median latency of each named operation over the passes."""
    by_name = {}
    for p in passes:
        for op in p["ops"]:
            by_name.setdefault(op["name"], []).append(op["latency_s"])
    return {name: statistics.median(v) for name, v in by_name.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(trace, untraced, traced, imports, cache, setup_trace):
    """Per-layer metrics of one traced run, each normalized to one pass.

    trace is the tracer export of the traced passes, untraced and traced the
    pass records of the same worker with tracing off and on, imports the
    fresh-interpreter import timings, cache the (hits, misses) of the cube
    caches over the worker's life, setup_trace the tracer export of set-up.
    """
    k = len(traced)
    calls = trace["calls"]
    busy = trace["busy"]
    counts = trace["counts"]
    lbusy = trace["layer_busy"]
    lself = trace["layer_self"]

    def c(name):
        return calls.get(name, 0) / k

    def b(name):
        return busy.get(name, 0.0) / k

    def layer_calls(layer):
        return sum(v for key, v in calls.items() if key.startswith(layer + ".")) / k

    # means, like every per-layer total here, so the layers' self times add up to traced_wall
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    untraced_wall = statistics.mean(p["wall_s"] for p in untraced)
    ops = per_op_medians(untraced)
    cli_ops = {}
    for name, value in ops.items():
        if name.startswith("cli."):
            cli_ops.setdefault(name.split(".")[1], []).append(value)
    cubes = counts.get("ifs.iter_placed.items", 0) / k
    visited = c("ktheory.index_pairing") + c("ktheory.compose_child")
    words = counts.get("ktheory.words", 0) / k
    hits = cache[0] + counts.get("cube.cache_hits", 0)  # counts come from CLI child processes
    misses = cache[1] + counts.get("cube.cache_misses", 0)
    m = {
        "cube.calls": (layer_calls("cube"), "count"),
        "cube.busy_s": (lbusy.get("cube", 0.0) / k, "s"),
        "cube.cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "calculus.calls": (layer_calls("calculus"), "count"),
        "calculus.busy_s": (lbusy.get("calculus", 0.0) / k, "s"),
        "calculus.clifford_check.n10_s": (ops.get("clifford_check.n10", 0.0), "s"),
        "calculus.matrix_abs.busy_s": (b("calculus.matrix_abs"), "s"),
        "calculus.placed_coordinate_form.calls": (c("calculus.placed_coordinate_form"), "count"),
        "ifs.iter_placed.cubes": (cubes, "count"),
        "ifs.iter_placed.busy_s": (b("ifs.iter_placed"), "s"),
        "ifs.us_per_cube": (1e6 * _ratio(b("ifs.iter_placed"), cubes), "us"),
        "ifs.blocked_share": (_ratio(b("ifs.iter_placed"), traced_wall), "ratio"),
        "ifs.similarity_dimension.calls": (c("ifs.similarity_dimension"), "count"),
        "ifs.similarity_dimension.busy_s": (b("ifs.similarity_dimension"), "s"),
        "presets.build_s": (setup_trace["layer_busy"].get("presets", 0.0), "s"),
        "components.lp_calls": (c("components.cubes_intersect"), "count"),
        "components.level_one_components.busy_s": (b("components.level_one_components"), "s"),
        "components.scipy_import_s": (imports["scipy_optimize_s"], "s"),
        "spectral.f_calls": (c("spectral.f"), "count"),
        "spectral.f_s": (b("spectral.f"), "s"),
        "ktheory.index_pairing.busy_s": (b("ktheory.index_pairing"), "s"),
        "ktheory.cubes_visited": (visited, "count"),
        "ktheory.prune_ratio": (1.0 - visited / words if words else 0.0, "ratio"),
        "ktheory.us_per_visit": (1e6 * _ratio(b("ktheory.index_pairing"), visited), "us"),
        "ktheory.contains_calls": (c("ktheory.contains"), "count"),
        "ktheory.nonvanish_certificate.busy_s": (b("ktheory.nonvanish_certificate"), "s"),
        "render.render_svg.busy_s": (b("render.render_svg"), "s"),
        "render.svg_bytes": (counts.get("render.svg_bytes", 0) / k, "bytes"),
        "cli.import_s": (imports["cli_import_s"], "s"),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0) / k, "bytes"),
    }
    for fn in ("integrate_hausdorff", "weighted_functional", "quantized_volume_truncated",
               "commutator_norm_check", "zeta_truncated"):
        m[f"spectral.{fn}.busy_s"] = (b(f"spectral.{fn}"), "s")
    for cmd in ("analyze", "pairing", "integrate", "render", "verify"):
        values = cli_ops.get(cmd)
        m[f"cli.{cmd}_s"] = (statistics.median(values) if values else 0.0, "s")
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = (b(f"verify.{check}"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (lself.get(layer, 0.0) / k, "s")
    for row, (op, span) in BASELINE_ROWS.items():
        if span is None:
            value = ops.get(op, 0.0)
        else:
            nested = [o["busy"].get(span, 0.0) for p in traced for o in p["ops"] if o["name"] == op]
            value = statistics.median(nested) if nested else 0.0
        m[f"baseline.{row}_s"] = (value, "s")
    self_sum = sum(lself.values()) / k
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    return m


LAYERS = ("bench", "import", "integrand", "cube", "calculus", "ifs", "presets", "components",
          "spectral", "ktheory", "render", "cli", "verify")
VERIFY_CHECKS = (
    "check_unitarity",
    "check_involution",
    "check_sign_pattern",
    "check_two_path",
    "check_clifford",
    "check_volume_element",
    "check_trace_convergence",
    "check_rotation_blocks",
    "check_pairings",
)
# The rows the roadmap quotes as its baseline.  Each is the untraced median of
# one operation, or, where the row is a call nested inside an operation, that
# call's busy time in the traced passes (which includes the per-span cost).
BASELINE_ROWS = {
    "iter_placed_menger_d4": ("iter_placed.menger_d4", None),
    "integrate_menger_d4": ("integrate.menger_d4", None),
    "integrate_cantor_d16": ("integrate.cantor_d16", None),
    "weighted_functional_dust2_d8": ("weighted_functional.dust2_d8", None),
    "quantized_volume_rotation_d5": ("quantized_volume.rotation_d5", None),
    "level_one_components_menger": ("certificate.menger_sponge",
                                    "components.level_one_components"),
    "render_carpet_d4": ("render.carpet_d4", None),
    "cli_analyze_menger_d5": ("cli.analyze.menger_sponge", None),
    "cli_pairing_pk6": ("cli.pairing.pk6", None),
    "cli_integrate_menger_d3": ("cli.integrate.menger_sponge", None),
    "cli_verify_n8": ("cli.verify.n8", None),
}
