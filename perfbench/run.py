"""Layered benchmark for fractal-dirac.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep_enumeration --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each workload runs in fresh child interpreters (worker.py): several start,
import the library, build the workload's inputs and stop, and the median of
their start-to-ready times is ``setup_s``; the last one then runs a fixed
number of passes over the workload's operations, checking every result
against its reference.  ``--seconds`` sets that number through each
workload's nominal pass time (workloads.py); on a machine so slow that the
passes would take more than CAP_FACTOR times ``--seconds``, the worker runs
fewer.  BLAS threads are pinned to at most BLAS_THREADS.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` half
as many passes, in half the time, run untraced and then as many traced, and
the per-layer metrics are printed, including the tracing overhead (traced
minus untraced mean pass time).
Every run also writes a full record (environment, input sizes, per-operation
latencies, spans) to ``.perfbench/results/`` in the checkout.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
import workloads

BLAS_THREADS = 2
SETUP_RUNS = 3  # fresh interpreters per run whose set-up is timed; the last one measures
IMPORT_RUNS = 3
WORKER_TIMEOUT_S = 170
CAP_FACTOR = 1.25  # no pass may end after this many times --seconds (a far slower machine)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root, threads):
    env = dict(os.environ)
    env.pop("FRACTAL_DIRAC_BUDGET", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


class Worker:
    """A worker process, timed from start to its READY line."""

    def __init__(self, root, env, workload, seed, passes, cap_s, trace, out):
        cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--passes", str(passes), "--cap-s", str(cap_s),
               "--trace", str(trace), "--root", str(root), "--out", str(out)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"{workload} worker failed during set-up")

    def finish(self, command):
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.close()
            rc = self.proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            self.stop()
        if rc != 0:
            raise RuntimeError(f"worker exited with code {rc}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _timed_run(cmd, env, root):
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {proc.stderr[-300:]}")
    return elapsed, proc.stderr


def import_timings(root, env):
    """Fresh-interpreter import costs: the CLI module, and scipy.optimize inside it."""
    py = sys.executable
    bare = statistics.median(_timed_run([py, "-c", "pass"], env, root)[0]
                             for _ in range(IMPORT_RUNS))
    cli = statistics.median(_timed_run([py, "-c", "import fractal_dirac.cli"], env, root)[0]
                            for _ in range(IMPORT_RUNS))
    scipy = []
    for _ in range(IMPORT_RUNS):
        _, err = _timed_run([py, "-X", "importtime", "-c", "import fractal_dirac.cli"], env, root)
        cumulative_us = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                cumulative_us = int(parts[1])
        scipy.append(cumulative_us / 1e6)
    return {"cli_import_s": cli - bare, "scipy_optimize_s": statistics.median(scipy)}


def source_identity(root):
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(root, name, seed, seconds, trace, threads):
    env = child_env(root, threads)
    passes = workloads.passes_for(name, seconds)
    cap_s = CAP_FACTOR * seconds
    if trace:  # half the passes and time untraced and half traced, so the run is not twice as long
        passes = max(workloads.MIN_PASSES, -(-passes // 2))
        cap_s /= 2
    out = root / ".perfbench" / f"worker-{name}-{os.getpid()}.json"
    setup = []
    for i in range(SETUP_RUNS):
        worker = Worker(root, env, name, seed, passes, cap_s, trace, out)
        setup.append(worker.setup_s)
        worker.finish("run" if i == SETUP_RUNS - 1 else "exit")
    with open(out) as fh:
        data = json.load(fh)
    out.unlink()
    e2e, facts = summary.end_to_end(data["untraced"], setup, data["peak_rss_kb"])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            **source_identity(root),
            **data["versions"],
            "nproc": os.cpu_count(),
            "blas_threads": threads,
            "seed": seed,
        },
        "sizes": data["sizes"],
        "facts": facts,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "op_medians_s": summary.per_op_medians(data["untraced"]),
        "passes": [{"wall_s": p["wall_s"], "latency_s": {op["name"]: op["latency_s"] for op in p["ops"]}}
                   for p in data["untraced"]],
        "errors": [op for p in data["untraced"] for op in p["ops"] if not op["ok"]],
    }
    passes_run = data["untraced"]
    if trace:
        passes_run = passes_run + data["traced"]
        layer = summary.per_layer(data["trace"], data["untraced"], data["traced"],
                                  import_timings(root, env), data["cache"], data["setup_trace"])
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["op_deltas"] = [
            {"name": op["name"], "calls": op["calls"], "counts": op["counts"]}
            for op in data["traced"][0]["ops"]
        ]
        record["spans"] = data["trace"]["spans"]
        record["errors"] += [op for p in data["traced"] for op in p["ops"] if not op["ok"]]
    record["attempted"] = sum(len(p["ops"]) for p in passes_run)
    record["failed"] = sum(1 for p in passes_run for op in p["ops"] if not op["ok"])
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record, key):
    print(f"== {record['workload']} (seed {record['seed']}, {record['facts']['passes']} passes, "
          f"{record['failed']}/{record['attempted']} operations failed)")
    for name, m in record[key].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if key == "end_to_end":
        f = record["facts"]
        print(f"  {'ops_failed_frac':42s} {f['ops_failed_frac']:.6g}")
        print(f"  op_tail_s is p{f['op_tail_percentile']} of {f['op_samples']} samples, "
              f"{f['op_tail_samples_beyond']} beyond it")
    for err in record["errors"][:5]:
        print(f"  FAILED {err['name']}: {err.get('error')}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Layered benchmark for fractal-dirac.")
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "fractal_dirac" / "__init__.py").is_file():
        print(f"no fractal_dirac sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    key = "per_layer" if args.trace else "end_to_end"
    records = []
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds, args.trace, threads)
        except (RuntimeError, OSError, subprocess.SubprocessError, KeyError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        _print_record(record, key)
        records.append(record)
    if len(records) == 1:
        metrics = records[0][key]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r[key].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
