"""The four workloads: seeded inputs, their operations and each operation's reference.

Every workload loads a different layer of the library:

- ``deep_enumeration``: full word-tree sweeps (about 600k placed cubes a pass)
  through ``ifs.iter_placed``, bare and in its ``spectral`` and ``render``
  consumers.
- ``operator_algebra``: the dense 2^n x 2^n operators of ``cube`` and
  ``calculus``, plus the ``_verify`` suite; ``ifs`` is nearly absent.
- ``pruned_pairing``: ``ktheory.index_pairing`` on boxes that cut through the
  construction, so almost every subtree is pruned and each visited cube pays a
  membership test; plus the parity certificates and the gap module.
- ``cli_batch``: one client running ``python -m fractal_dirac.cli`` commands
  back to back (a closed loop), where start-up and imports dominate.

The seed generates every random input (integrand coefficients, vertex
functions, chaos-game seeds, box corners, the order of maps in the IFS file);
the library only receives the generated values.  Inputs are chosen among
symmetric images of one another, so the work per pass does not depend on the
seed and every seed has a closed-form reference.
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spans

WORKLOADS = ("deep_enumeration", "operator_algebra", "pruned_pairing", "cli_batch")

# Median duration of one pass on a shared 2-vCPU x86 host.  --seconds is turned
# into a fixed pass count with it, so every run of a workload pools the same
# number of latency samples and the tail percentile is always the same one,
# unless the host is slow enough for run.py's CAP_FACTOR to cut the run short.
NOMINAL_PASS_S = {
    "deep_enumeration": 7.4,
    "operator_algebra": 3.4,
    "pruned_pairing": 5.0,
    "cli_batch": 13.3,
}
MIN_PASSES = 2  # the CLI repeat check compares a command's stdout across passes

CLOSE_TOL = 1e-9
TWO_ROUTE_TOL = 1e-12
VOLUME_TOL = 1e-10
FACTORIZATION_TOL = 1e-6  # weighted functional against its factorized prediction at depth 8
CHAOS_SAMPLES = 200_000
CLI_CHAOS_SAMPLES = 20_000
GAP_DEPTH = 12

CERTIFICATE_PAIRINGS = {  # d0 - d1 of the first unbalanced component, None if all balance
    "cantor_set": 1,
    "lifted_cantor": 1,
    "cantor_dust2": 1,
    "lifted_carpet": 1,
    "rotation": 1,
    "sierpinski_carpet": None,
    "menger_sponge": None,
    "sc3": None,
    "non_osc": None,
}
ANALYZE_PRESETS = (  # (preset, depth, number of maps)
    ("cantor_set", 8, 2),
    ("lifted_cantor", 6, 2),
    ("cantor_dust2", 6, 4),
    ("sierpinski_carpet", 4, 8),
    ("menger_sponge", 5, 20),
    ("lifted_carpet", 4, 8),
    ("rotation", 5, 4),
    ("non_osc", 4, 5),
    ("sc3", 3, 20),
)


def passes_for(workload, seconds):
    """Fixed pass count that fills about `seconds` on the reference machine."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def word_count(num_symbols, depth):
    """Words of length 0..depth over num_symbols symbols."""
    return sum(num_symbols**j for j in range(depth + 1))


def corner_sign(corner):
    """Pairing of the half-width box at a cube corner.

    The box [c/2, c/2 + 1/2]^n holds exactly one vertex of the unit cube, the
    corner c; vertex parity is the coordinate sum mod 2 and even counts +1.
    """
    return 1 if sum(corner) % 2 == 0 else -1


def make_inputs(workload, seed):
    """All random inputs of one workload, as plain values and arrays."""
    rng = random.Random(f"{workload}:{seed}")

    def coef():
        return round(rng.uniform(0.5, 2.0), 3)

    def corner(n):
        return tuple(rng.randrange(2) for _ in range(n))

    if workload == "deep_enumeration":
        return {
            "menger": (coef(), coef()),
            "cantor": (coef(), coef()),
            "dust2": (coef(), coef(), coef()),
            "theta": round(rng.uniform(0.2, 1.3), 6),
            "carpet": (coef(), coef()),
            "chaos": (coef(), coef()),
            "chaos_seed": rng.randrange(2**31),
        }
    if workload == "operator_algebra":
        vrng = np.random.default_rng(rng.randrange(2**63))
        return {
            "values": {n: vrng.standard_normal(2**n) for n in (10, 11)},
            "edge": round(rng.uniform(0.5, 2.0), 6),
        }
    if workload == "pruned_pairing":
        return {
            "carpet": corner(2),
            "menger": corner(3),
            "dust2": corner(2),
            "gap_k": rng.randint(1, 4),
        }
    if workload == "cli_batch":
        order = list(range(8))
        rng.shuffle(order)
        return {
            "integrate": (coef(), coef()),
            "chaos": (coef(), coef()),
            "chaos_seed": rng.randrange(2**31),
            "map_order": order,
            "corner": corner(2),
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Op:
    """One operation: run() is timed; check(result) returns None or why it missed."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    ops: list
    sizes: dict  # input sizes recorded with each result
    integrands: dict = field(default_factory=dict)  # looked up at call time, so tracing can wrap them
    cli: object = None

    def trace_with(self, tracer):
        for key, f in list(self.integrands.items()):
            self.integrands[key] = spans.wrap(tracer, f, "spectral.f", "integrand")
        if self.cli is not None:
            self.cli.tracer = tracer


def _close(expected, tol):
    def check(value):
        if abs(value - expected) > tol:
            return f"got {value!r}, expected {expected!r} within {tol:g}"
        return None

    return check


def _pairing(expected):
    def check(report):
        if report.value != expected or not report.stabilized:
            return f"pairing {report.value} (stabilized={report.stabilized}), expected {expected}"
        return None

    return check


def _deep(fd, inp):
    menger, cantor, dust2, carpet = (
        fd.menger_sponge(), fd.cantor_set(), fd.cantor_dust(2), fd.sierpinski_carpet()
    )
    rot = fd.rotation(inp["theta"])
    f = {}
    (a, b) = inp["menger"]
    f["menger"] = lambda x: a * x[0] + b * x[1] * x[2]
    (ca, cc) = inp["cantor"]
    f["cantor"] = lambda x: ca * x[0] + cc
    (da, db, dc) = inp["dust2"]
    f["dust2"] = lambda x: da * x[0] + db * x[1] + dc
    (ka, kb) = inp["carpet"]
    f["carpet"] = lambda x: ka * x[0] * x[1] + kb * x[1]
    (ha, hb) = inp["chaos"]
    f["chaos"] = lambda x: ha * x[0] + hb * x[1]

    # Every preset here is symmetric under each reflection x_i -> 1 - x_i, so
    # coordinate means are 1/2 and the mean of x2*x3 is half the mean of x3.
    rot_dim = math.log(4) / math.log(2 * math.sqrt(2))
    rot_volume = 4 * 2 ** (-rot_dim / 2) * 6  # 2^n n^(-dim/2) per level, six levels
    chaos_tol = 6 * (ha + hb) / 2 / math.sqrt(CHAOS_SAMPLES)  # six standard deviations at most

    def check_factorization(out):
        _, _, rel = out
        return None if rel <= FACTORIZATION_TOL else f"relative gap {rel:.3g} to the prediction"

    def check_norms(report):
        if report.blocks != word_count(8, 5) or not report.bound_holds:
            return f"{report.blocks} blocks, bound_holds={report.bound_holds}"
        return None

    def check_svg(doc):
        words = word_count(8, 4)
        if doc.count("<polygon ") != words or doc.count("<circle ") != 4 * words:
            return "wrong number of cube outlines or vertex dots"
        return None if doc.endswith("</svg>\n") else "truncated document"

    spec = fd.QuadratureSpec
    ops = [
        Op("integrate.menger_d4",
           lambda: fd.integrate_hausdorff(menger, f["menger"], spec(depth=4)),
           _close(a / 2 + b / 4, CLOSE_TOL * (a + b))),
        Op("iter_placed.menger_d4", lambda: sum(1 for _ in fd.iter_placed(menger, 4)),
           _close(word_count(20, 4), 0)),
        Op("integrate.cantor_d16",
           lambda: fd.integrate_hausdorff(cantor, f["cantor"], spec(depth=16)),
           _close(ca / 2 + cc, CLOSE_TOL * (ca + cc))),
        Op("weighted_functional.dust2_d8",
           lambda: fd.weighted_factorization(dust2, f["dust2"], 8, quad_depth=1),
           check_factorization),
        Op("quantized_volume.rotation_d5",
           lambda: fd.quantized_volume_truncated(rot, rot_dim / 2, 5).value,
           _close(rot_volume, CLOSE_TOL * rot_volume)),
        Op("commutator_norm.carpet_d5",
           lambda: fd.commutator_norm_check(carpet, f["carpet"], 5),
           check_norms),
        Op("render.carpet_d4", lambda: fd.render_svg(carpet, 4), check_svg),
        Op("integrate.chaos_carpet",
           lambda: fd.integrate_hausdorff(
               carpet, f["chaos"],
               spec(depth=10, mode="chaos_game", sample_count=CHAOS_SAMPLES,
                    seed=inp["chaos_seed"])),
           _close((ha + hb) / 2, chaos_tol)),
    ]
    sizes = {
        "words": {
            "integrate.menger_d4": word_count(20, 4),
            "iter_placed.menger_d4": word_count(20, 4),
            "integrate.cantor_d16": word_count(2, 16),
            "weighted_functional.dust2_d8": word_count(4, 8),
            "quantized_volume.rotation_d5": word_count(4, 5),
            "commutator_norm.carpet_d5": word_count(8, 5),
            "render.carpet_d4": word_count(8, 4),
        },
        "chaos_samples": CHAOS_SAMPLES,
    }
    sizes["words_per_pass"] = sum(sizes["words"].values())
    return ops, sizes, f


def _operator_algebra(fd, inp):
    from fractal_dirac import _verify

    values = inp["values"]
    edge = inp["edge"]

    def two_route(n):
        v = values[n]
        return float(np.max(np.abs(fd.commutator_direct(n, v) - fd.commutator_hadamard(n, v))))

    def check_zero(residual):
        return None if residual == 0.0 else f"Clifford residual {residual!r}, expected exactly 0"

    def check_gap(gap):
        return None if gap <= TWO_ROUTE_TOL else f"two-route gap {gap:.3g} > {TWO_ROUTE_TOL:g}"

    def check_volume(blocks):
        for n, block in enumerate(blocks, start=1):
            expected = edge**n / n ** (n / 2)
            dev = float(np.max(np.abs(block - expected * np.eye(2**n))))
            if dev > VOLUME_TOL * max(1.0, expected):
                return f"n={n}: volume element off by {dev:.3g} from e^n/n^(n/2)"
        return None

    def check_suite(results):
        failed = [r.name for r in results if not r.passed]
        if len(results) != 9 or failed:
            return f"{len(results)} checks, failed: {failed}"
        return None

    ops = [Op(f"clifford_check.n{n}", lambda n=n: fd.clifford_check(n), check_zero)
           for n in (8, 9, 10)]
    ops += [Op(f"commutator_two_route.n{n}", lambda n=n: two_route(n), check_gap) for n in (10, 11)]
    ops.append(Op("volume_element_abs.n1_8",
                  lambda: [fd.volume_element_abs(n, edge) for n in range(1, 9)], check_volume))
    ops.append(Op("verify.run_all_n10", lambda: _verify.run_all(max_n=10), check_suite))
    sizes = {"matrix_dim": {f"n{n}": 2**n for n in (8, 9, 10, 11)}}
    return ops, sizes, {}


def _pruned_pairing(fd, inp):
    systems = {name: fd.preset(name) for name in CERTIFICATE_PAIRINGS}

    def quadrant(c):
        lo = 0.5 * np.asarray(c, dtype=float)
        return fd.ProjectionSpec((fd.closed_box(lo, lo + 0.5),))

    cases = (  # (name, system, corner, depth, number of maps)
        ("pairing.carpet_d7", systems["sierpinski_carpet"], inp["carpet"], 7, 8),
        ("pairing.menger_d5", systems["menger_sponge"], inp["menger"], 5, 20),
        ("pairing.dust2_d9", systems["cantor_dust2"], inp["dust2"], 9, 4),
    )
    ops = []
    for name, system, corner, depth, _ in cases:
        proj = quadrant(corner)
        ops.append(Op(name, lambda s=system, p=proj, d=depth: fd.index_pairing(s, p, d),
                      _pairing(corner_sign(corner))))

    def check_cert(expected):
        def check(cert):
            if expected is None:
                return None if cert is None else f"unexpected certificate {cert}"
            if cert is None or cert.pairing != expected or cert.d0 - cert.d1 != expected:
                return f"certificate {cert}, expected pairing {expected}"
            return None if cert.pairing_matches else "pairing does not match d0 - d1"

        return check

    for name, expected in CERTIFICATE_PAIRINGS.items():
        ops.append(Op(f"certificate.{name}",
                      lambda s=systems[name]: fd.nonvanish_certificate(s), check_cert(expected)))
    k = inp["gap_k"]
    ops.append(Op("gap_pairing", lambda: fd.connes_gap_pairing(k, GAP_DEPTH), _close(1, 0)))
    sizes = {
        "words": {name: word_count(m, d) for name, _, _, d, m in cases},
        # cubes each pairing visits; the traced run counts them again
        "visited": {"pairing.carpet_d7": 9657, "pairing.menger_d5": 71021,
                    "pairing.dust2_d9": 2013},
    }
    return ops, sizes, {}


class CliRunner:
    """Runs one CLI command at a time in a fresh interpreter (a closed loop)."""

    def __init__(self, root, workdir):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.tracer = None
        self.first_stdout = {}

    def run(self, key, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fractal_dirac.cli", *args]
            proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, timeout=120)
        else:
            out = self.workdir / "trace.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_traced.py"), *args]
            env = dict(os.environ, PERFBENCH_TRACE_OUT=str(out))
            proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, timeout=120, env=env)
            with open(out) as fh:
                child = json.load(fh)
            self.tracer.absorb(child["trace"], child["covered_s"])
            self.tracer.count("cli.stdout_bytes", len(proc.stdout))
        return key, proc.returncode, proc.stdout, proc.stderr

    def repeat_check(self, key, stdout):
        """None when stdout matches the first run of the same command."""
        first = self.first_stdout.setdefault(key, stdout)
        return None if first == stdout else "stdout differs from an earlier run of the command"


def _cli_op(runner, key, args, expect_rc, parse):
    def check(out):
        _, rc, stdout, stderr = out
        if rc != expect_rc:
            return f"exit {rc}, expected {expect_rc}: {stderr[-300:]!r}"
        return parse(stdout, stderr) or runner.repeat_check(key, stdout)

    return Op(f"cli.{key}", lambda: runner.run(key, args), check)


def _json_check(test):
    def parse(stdout, stderr):
        return test(json.loads(stdout))

    return parse


def _error_check(kind):
    def parse(stdout, stderr):
        if stdout:
            return "error exit wrote to stdout"
        doc = json.loads(stderr.decode().strip().splitlines()[-1])
        return None if doc.get("kind") == kind else f"error kind {doc.get('kind')!r}, expected {kind!r}"

    return parse


def _cli_batch(fd, inp, root, workdir):
    from fractal_dirac.ifs import IfsSystem, save_ifs

    runner = CliRunner(root, workdir)
    carpet = fd.sierpinski_carpet()
    permuted = IfsSystem(n=2, maps=tuple(carpet.maps[i] for i in inp["map_order"]), label="carpet")
    save_ifs(permuted, Path(workdir) / "system.json")
    lo = 0.5 * np.asarray(inp["corner"], dtype=float)
    fd.save_projection(fd.ProjectionSpec((fd.closed_box(lo, lo + 0.5),)),
                       Path(workdir) / "proj.json")

    def analyze_check(name, maps):
        expected_cert = CERTIFICATE_PAIRINGS[name]

        def test(doc):
            dim = doc["dim_s"]
            if name == "rotation":
                gap = abs(dim - math.log(4) / math.log(2 * math.sqrt(2)))
            elif name == "non_osc":  # four ratio-1/3 maps and one ratio-2/3 map
                gap = abs(4 * 3.0**-dim + (2 / 3) ** dim - 1)
            else:
                gap = abs(dim - math.log(maps) / math.log(3))
            if gap > CLOSE_TOL or doc["system"]["num_maps"] != maps:
                return f"dim_s {dim!r} or map count off"
            cert = doc["certificate"]
            if expected_cert is None:
                return None if cert is None else "unexpected certificate"
            if cert is None or cert["pairing"] != expected_cert or not cert["matches"]:
                return f"certificate {cert}"
            return None

        return _json_check(test)

    ops = [_cli_op(runner, f"analyze.{name}",
                   ["analyze", "--preset", name, "--depth", str(depth)], 0,
                   analyze_check(name, maps))
           for name, depth, maps in ANALYZE_PRESETS]

    def pk_test(doc):  # the box [0, 3^-k] pairs to k with the module, to 1 with the gap module
        if doc["value"] != 6 or not doc["stabilized"] or doc["gap_module"] != 1:
            return f"pairing {doc['value']}, gap module {doc['gap_module']}"
        return None

    ops.append(_cli_op(runner, "pairing.pk6",
                       ["pairing", "--preset", "cantor_set", "--pk", "6", "--gap-module",
                        "--depth", "9"], 0,
                       _json_check(pk_test)))
    sign = corner_sign(inp["corner"])
    ops.append(_cli_op(runner, "pairing.file",
                       ["pairing", "--file", "system.json", "--proj", "proj.json", "--depth", "5"],
                       0, _json_check(lambda d: None if d["value"] == sign and d["stabilized"]
                                      else f"pairing {d['value']}, expected {sign}")))
    a, b = inp["integrate"]
    ops.append(_cli_op(runner, "integrate.menger_sponge",
                       ["integrate", "--preset", "menger_sponge", "--depth", "3",
                        "--function", f"{a}*x1 + {b}*x2*x3"], 0,
                       _json_check(lambda d: _close(a / 2 + b / 4, CLOSE_TOL * (a + b))(d["value"]))))
    ha, hb = inp["chaos"]
    tol = 6 * (ha + hb) / 2 / math.sqrt(CLI_CHAOS_SAMPLES)
    ops.append(_cli_op(runner, "integrate.chaos_dust2",
                       ["integrate", "--preset", "cantor_dust2", "--depth", "10",
                        "--function", f"{ha}*x1 + {hb}*x2", "--mode", "chaos_game",
                        "--samples", str(CLI_CHAOS_SAMPLES), "--seed", str(inp["chaos_seed"])], 0,
                       _json_check(lambda d: _close((ha + hb) / 2, tol)(d["value"]))))

    def svg_test(doc):
        if doc != {"written": "carpet.svg"}:
            return f"unexpected document {doc}"
        text = (Path(workdir) / "carpet.svg").read_text()
        return None if text.count("<polygon ") == word_count(8, 3) else "wrong outline count"

    ops.append(_cli_op(runner, "render.carpet",
                       ["render", "--preset", "sierpinski_carpet", "--depth", "3",
                        "--svg", "carpet.svg"], 0, _json_check(svg_test)))

    def verify_parse(stdout, stderr):
        lines = stdout.decode().splitlines()
        if len(lines) != 10 or not all(x.startswith("PASS ") for x in lines[:9]):
            return "verify did not report nine passing checks"
        return None if lines[9] == "9/9 checks passed" else f"summary line {lines[9]!r}"

    ops.append(_cli_op(runner, "verify.n8", ["verify", "--max-n", "8"], 0, verify_parse))
    ops.append(_cli_op(runner, "integrate.over_budget",
                       ["integrate", "--preset", "menger_sponge", "--depth", "8",
                        "--budget", "1000"], 3, _error_check("budget-exceeded")))
    ops.append(_cli_op(runner, "analyze.unknown_preset",
                       ["analyze", "--preset", "no_such_preset"], 2,
                       _error_check("invalid-input")))
    sizes = {"commands_per_pass": len(ops)}
    return ops, sizes, runner


def build(workload, inputs, root, workdir):
    """Build the systems, projections, integrands and files of one workload."""
    import fractal_dirac as fd

    if workload == "deep_enumeration":
        ops, sizes, integrands = _deep(fd, inputs)
        return Workload(workload, ops, sizes, integrands)
    if workload == "operator_algebra":
        ops, sizes, _ = _operator_algebra(fd, inputs)
        return Workload(workload, ops, sizes)
    if workload == "pruned_pairing":
        ops, sizes, _ = _pruned_pairing(fd, inputs)
        return Workload(workload, ops, sizes)
    if workload == "cli_batch":
        ops, sizes, runner = _cli_batch(fd, inputs, root, workdir)
        return Workload(workload, ops, sizes, cli=runner)
    raise ValueError(f"unknown workload {workload!r}")
