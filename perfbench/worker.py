"""One workload in one fresh interpreter.

Started by run.py.  The worker imports the library, builds the workload's
inputs and prints ``READY``; the time from process start to that line is one
set-up sample.  It then reads one command from stdin: ``run`` measures the
passes and writes a JSON record to --out, anything else exits.  With
--trace 1 the worker first runs the passes untraced, then again with every
public library function wrapped by the span tracer.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads


def _snapshot(tracer):
    return {"calls": dict(tracer.calls), "busy": dict(tracer.busy), "counts": dict(tracer.counts)}


def _deltas(before, tracer):
    out = {}
    for attr in ("calls", "busy", "counts"):
        old = before[attr]
        now = getattr(tracer, attr)
        out[attr] = {k: v - old.get(k, 0) for k, v in now.items() if v != old.get(k, 0)}
    return out


def run_passes(workload, passes, tracer=None, cap_s=None):
    """Time `passes` passes over the workload's operations and check every result.

    With cap_s, once MIN_PASSES passes are done no pass starts that would end,
    at the mean pass time so far, after cap_s seconds; so a machine far slower
    than the reference one still ends the run in time.
    """
    clock = time.perf_counter
    records = []
    first = clock()
    for _ in range(passes):
        done = len(records)
        if cap_s is not None and done >= workloads.MIN_PASSES:
            elapsed = clock() - first
            if elapsed + elapsed / done > cap_s:
                break
        if tracer is not None:
            tracer.push("bench.pass", "bench")
        start = clock()
        ops = []
        for op in workload.ops:
            if tracer is not None:
                before = _snapshot(tracer)
                tracer.push("bench." + op.name, "bench")
            t0 = clock()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raising operation is a failed one, the pass goes on
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = clock() - t0
            if tracer is not None:
                tracer.pop()
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # an unreadable result misses its reference
                    error = f"check raised {type(exc).__name__}: {exc}"
            rec = {"name": op.name, "latency_s": latency, "ok": error is None}
            if error is not None:
                rec["error"] = error[:400]
            if tracer is not None:
                rec.update(_deltas(before, tracer))
            ops.append(rec)
        wall = clock() - start
        if tracer is not None:
            tracer.pop()
        records.append({"wall_s": wall, "ops": ops})
    return records


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cap-s", type=float, default=None,
                    help="start no pass that would end after this many seconds")
    ap.add_argument("--root", required=True, help="checkout holding src/fractal_dirac")
    ap.add_argument("--out", required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    import fractal_dirac
    from fractal_dirac import _verify  # noqa: F401  (loaded so the tracer can wrap it)

    if Path(fractal_dirac.__file__).resolve().parent != root / "src" / "fractal_dirac":
        raise SystemExit(f"imported fractal_dirac from {fractal_dirac.__file__}, not the checkout")
    tracer = spans.Tracer() if args.trace else None
    uninstall = spans.install(tracer) if tracer else None
    work_parent = root / ".perfbench" / "work"
    work_parent.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_parent)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        wl = workloads.build(args.workload, inputs, root, workdir)
        setup_trace = None
        if tracer is not None:
            uninstall()
            setup_trace = tracer.export()
            tracer.reset()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        record = {"untraced": run_passes(wl, args.passes, cap_s=args.cap_s), "sizes": wl.sizes,
                  "versions": _versions()}
        if tracer is not None:
            uninstall = spans.install(tracer)
            wl.trace_with(tracer)
            record["traced"] = run_passes(wl, args.passes, tracer, args.cap_s)
            uninstall()
            record["trace"] = tracer.export()
            record["setup_trace"] = setup_trace
            record["cache"] = spans.cache_totals()
        who = resource.RUSAGE_CHILDREN if wl.cli is not None else resource.RUSAGE_SELF
        record["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        with open(args.out, "w") as fh:
            json.dump(record, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
