"""Tests of the benchmark's own code: statistics, span arithmetic, failure counting, seeds.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import summary  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Clock that advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# --- the percentile rule -------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 14, 20, 26, 34, 50, 99, 100, 101, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    pct, value, beyond = summary.tail_percentile(samples)
    assert beyond >= 10
    assert sum(1 for s in samples if s > value) == beyond
    # the next whole percentile would leave fewer than ten beyond it
    if pct < 99:
        assert n - math.ceil((pct + 1) * n / 100) < 10


def test_tail_percentile_examples():
    assert summary.tail_percentile(range(100))[:2] == (90, 89)
    assert summary.tail_percentile(range(1000))[:2] == (99, 989)
    assert summary.tail_percentile(range(14)) == (28, 3, 10)


def test_tail_percentile_too_few_samples_reports_the_maximum():
    assert summary.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)
    with pytest.raises(ValueError):
        summary.tail_percentile([])


def test_wall_and_p50_are_means_over_the_passes():
    def op(name, latency):
        return {"name": name, "latency_s": latency, "ok": True}

    passes = [{"wall_s": 3.0, "ops": [op("a", 1.0), op("b", 2.0), op("c", 0.5)]},
              {"wall_s": 5.0, "ops": [op("a", 1.0), op("b", 4.0), op("c", 0.1)]}]
    metrics, _ = summary.end_to_end(passes, [0.5], 1024)
    assert metrics["wall_s"][0] == 4.0
    assert metrics["op_p50_s"][0] == 1.0  # the means are a: 1.0, b: 3.0, c: 0.3


# --- self time on nested and generator spans ------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.push("bench.op", "bench")
    clock.advance(1.0)
    tr.push("spectral.outer", "spectral")
    clock.advance(2.0)
    tr.push("ifs.inner", "ifs")
    clock.advance(3.0)
    tr.pop()
    clock.advance(0.5)
    tr.push("spectral.nested", "spectral")  # same layer nested in itself
    clock.advance(0.25)
    tr.pop()
    tr.pop()
    clock.advance(4.0)
    tr.pop()
    assert tr.layer_self == {"bench": 5.0, "spectral": 2.75, "ifs": 3.0}
    assert sum(tr.layer_self.values()) == tr.busy["bench.op"] == 10.75
    assert tr.layer_busy["spectral"] == 5.75  # the nested span is not counted twice
    assert tr.spans[0][3] == -1 and tr.spans[1][3] == 0 and tr.spans[2][3] == 1


def test_self_time_of_generator_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def produce():
        for i in range(3):
            clock.advance(2.0)  # work done inside next()
            yield i
        clock.advance(1.0)  # the final next() that ends the generator

    tr.push("spectral.consumer", "spectral")
    items = []
    for item in tr.generator(produce(), "ifs.iter_placed", "ifs"):
        clock.advance(0.5)  # consumer work between items
        items.append(item)
    tr.pop()
    assert items == [0, 1, 2]
    assert tr.calls["ifs.iter_placed"] == 4
    assert tr.counts["ifs.iter_placed.items"] == 3
    assert tr.busy["ifs.iter_placed"] == 7.0
    assert tr.layer_self == {"ifs": 7.0, "spectral": 1.5}


def test_wrapped_generator_is_closed_when_the_consumer_stops_early():
    tr = spans.Tracer()
    closed = []

    def produce():
        try:
            yield from range(10)
        finally:
            closed.append(True)

    wrapped = spans.wrap(tr, produce, "ifs.gen", "ifs")
    for item in wrapped():
        if item == 2:
            break
    assert closed == [True]
    assert tr.counts["ifs.gen.items"] == 3


def test_absorbed_child_time_counts_as_covered():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.push("bench.cli", "bench")
    clock.advance(1.0)
    tr.absorb({"calls": {"cli.main": 1}, "busy": {"cli.main": 0.75}, "layer_busy": {"cli": 0.75},
               "layer_self": {"cli": 0.75}, "counts": {}}, 0.75)
    tr.pop()
    assert tr.layer_self == {"bench": 0.25, "cli": 0.75}


def test_install_wraps_every_namespace_and_undoes():
    import fractal_dirac
    from fractal_dirac import ifs, spectral

    original = ifs.iter_placed
    tr = spans.Tracer()
    uninstall = spans.install(tr)
    try:
        assert ifs.iter_placed is spectral.iter_placed is not original
        assert fractal_dirac.iter_placed is ifs.iter_placed
        count = sum(1 for _ in spectral.iter_placed(fractal_dirac.cantor_set(), 3))
    finally:
        uninstall()
    assert ifs.iter_placed is spectral.iter_placed is original
    assert count == 15 and tr.counts["ifs.iter_placed.items"] == 15


# --- failure counting -----------------------------------------------------------------


class StubRunner:
    """Stands in for CliRunner with fixed process outcomes."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.first_stdout = {}

    def run(self, key, args):
        rc, stdout, stderr = self.outcomes[key]
        return key, rc, stdout, stderr

    repeat_check = workloads.CliRunner.repeat_check


def _raise():
    raise ValueError("boom")


def test_failures_are_counted_including_expected_nonzero_exits():
    budget_err = b'{"error": "too many words", "kind": "budget-exceeded"}\n'
    runner = StubRunner({"over": (3, b"", budget_err), "wrong_code": (3, b"", budget_err)})
    wl = workloads.Workload("stub", [
        workloads.Op("ok", lambda: 1.0, workloads._close(1.0, 0.0)),
        workloads.Op("miss", lambda: 1.5, workloads._close(1.0, 1e-9)),
        workloads.Op("raises", _raise, workloads._close(1.0, 0.0)),
        workloads._cli_op(runner, "over", [], 3, workloads._error_check("budget-exceeded")),
        workloads._cli_op(runner, "wrong_code", [], 2, workloads._error_check("invalid-input")),
    ], sizes={})
    passes = worker.run_passes(wl, 2)
    oks = [op["ok"] for op in passes[0]["ops"]]
    assert oks == [True, False, False, True, False]
    metrics, facts = summary.end_to_end(passes, [0.5, 0.7, 0.6], 1024)
    assert facts["attempted"] == 10 and facts["failed"] == 6
    assert facts["ops_failed_frac"] == 0.6
    # three of five operations fail, and a failure counts as slower than any success
    assert metrics["op_p50_s"][0] == summary.FLOAT_MAX
    assert metrics["setup_s"][0] == 0.6 and metrics["peak_rss_mb"][0] == 1.0


def test_cli_stdout_must_repeat_byte_for_byte():
    runner = StubRunner({"a": (0, b'{"value": 1}\n', b"")})
    op = workloads._cli_op(runner, "a", [], 0, workloads._json_check(lambda d: None))
    assert op.check(op.run()) is None
    runner.outcomes["a"] = (0, b'{"value":  1}\n', b"")
    assert op.check(op.run()) is not None


def test_a_wrong_reference_makes_a_real_operation_fail():
    import fractal_dirac as fd

    cantor = fd.cantor_set()
    run = lambda: fd.integrate_hausdorff(cantor, lambda x: x[0], fd.QuadratureSpec(depth=6))  # noqa: E731
    right = workloads.Op("right", run, workloads._close(0.5, workloads.CLOSE_TOL))
    wrong = workloads.Op("wrong", run, workloads._close(0.5 + 1e-6, workloads.CLOSE_TOL))
    passes = worker.run_passes(workloads.Workload("stub", [right, wrong], sizes={}), 1)
    assert [op["ok"] for op in passes[0]["ops"]] == [True, False]


# --- seeded inputs --------------------------------------------------------------------


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert _same(workloads.make_inputs(workload, 7), workloads.make_inputs(workload, 7))
    seeds = [workloads.make_inputs(workload, s) for s in range(6)]
    assert not all(_same(seeds[0], other) for other in seeds[1:])


def test_corner_sign_is_vertex_parity():
    for corner in itertools.product((0, 1), repeat=3):
        assert workloads.corner_sign(corner) == (-1) ** sum(corner)


def test_pass_count_is_fixed_by_the_seconds():
    for name in workloads.WORKLOADS:
        assert workloads.passes_for(name, 1) == workloads.MIN_PASSES
        assert workloads.passes_for(name, 15) == workloads.passes_for(name, 15)


def test_time_cap_stops_after_the_minimum_passes():
    wl = workloads.Workload("stub", [workloads.Op("ok", lambda: 1.0, workloads._close(1.0, 0.0))],
                            sizes={})
    assert len(worker.run_passes(wl, 5, cap_s=0.0)) == workloads.MIN_PASSES
    assert len(worker.run_passes(wl, 5, cap_s=60.0)) == 5
