"""Self-check suite behind the verify command.

Each check returns its name, pass/fail, the tolerance it enforced, and a
short detail string.
"""

from dataclasses import dataclass

import numpy as np

from . import calculus, cube, ktheory, presets, spectral
from . import ifs as ifs_mod

TWO_PATH_TRIALS = 20  # random complex vertex functions per dimension
TWO_PATH_SEED = 7
TRACE_DEPTH = 8  # truncation depth of the trace tail-bound check
ROTATION_DEPTH = 3  # word depth of the rotated volume-block check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    detail: str


def _result(name, observed, tolerance, extra=""):
    detail = f"max residual {observed:.3g}"
    if extra:
        detail += f" ({extra})"
    return CheckResult(name=name, passed=observed <= tolerance, tolerance=tolerance, detail=detail)


def check_unitarity(max_n=8):
    worst = 0.0
    for n in range(1, max_n + 1):
        u = cube.g_matrix(n).astype(float) / np.sqrt(n)
        worst = max(worst, float(np.max(np.abs(u @ u.T - np.eye(u.shape[0])))))
    return _result("unitarity", worst, 1e-12, f"n<={max_n}")


def check_involution(max_n=8):
    # F F - I, F - F^T and F eps + eps F from the nonzeros (i, j) of F: the
    # product as a sparse row expansion, the other two exactly where F is not 0
    worst = 0.0
    for n in range(1, max_n + 1):
        f = cube.f_matrix(n)
        size = f.shape[0]
        i, j = np.nonzero(f)
        v, d = f[i, j], np.repeat([1.0, -1.0], size // 2)
        start = np.searchsorted(i, np.arange(size + 1))
        reps = np.diff(start)[j]  # each (i, j) meets the nonzeros (j, k) of row j
        jk = np.arange(reps.sum()) + np.repeat(start[j] - np.cumsum(reps) + reps, reps)
        keys = np.concatenate([np.repeat(i, reps) * size + j[jk], np.arange(size) * (size + 1)])
        terms = np.concatenate([np.repeat(v, reps) * v[jk], -np.ones(size)])
        ff = np.bincount(np.unique(keys, return_inverse=True)[1], weights=terms)
        worst = max(worst, float(np.max(np.abs(ff))), float(np.max(np.abs(v - f[j, i]))),
                    float(np.max(np.abs(v * (d[i] + d[j])))))
    return _result("involution_grading", worst, 1e-12, f"n<={max_n}")


def check_sign_pattern(max_n=8):
    worst = 0
    for n in range(1, max_n + 1):
        diff = np.sign(cube.g_matrix(n)) - cube.oriented_edges(n)
        worst = max(worst, int(np.max(np.abs(diff))))
    return _result("edge_sign_pattern", float(worst), 0.0, f"n<={max_n}, exact")


def check_two_path(max_n=8):
    rng = np.random.default_rng(TWO_PATH_SEED)
    worst = 0.0
    for n in range(1, max_n + 1):
        for _ in range(TWO_PATH_TRIALS):
            f = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            d = calculus.commutator_direct(n, f) - calculus.commutator_hadamard(n, f)
            worst = max(worst, float(np.max(np.abs(d))))
    return _result("two_path_commutator", worst, 1e-12, f"n<={max_n}, {TWO_PATH_TRIALS} draws each")


def check_clifford(max_n=8):
    worst = 0.0
    for n in range(1, max_n + 1):
        worst = max(worst, calculus.clifford_check(n))
    return _result("clifford_relation", worst, 1e-11, f"n<={max_n}")


def check_volume_element(max_n=6):
    worst = 0.0
    for n in range(1, max_n + 1):
        for e in (1.0, 1.0 / 3.0, 3.0):
            block = calculus.volume_element_abs(n, e)
            expected = spectral._volume_scalar(n, e)
            worst = max(worst, float(np.max(np.abs(block - expected * np.eye(2**n)))))
    return _result("volume_element", worst, 1e-11, f"n<={max_n}, e in {{1, 1/3, 3}}")


def check_trace_convergence():
    # the truncation gap equals the tail bound in exact arithmetic, so the
    # comparison carries a rounding allowance relative to the closed value
    worst = 0.0
    names = ["cantor_set", "cantor_dust2", "sierpinski_carpet", "menger_sponge", "rotation"]
    for name in names:
        ifs = presets.preset(name)
        p = ifs_mod.similarity_dimension(ifs) + 0.2
        trunc = spectral.zeta_truncated(ifs, p, TRACE_DEPTH)
        closed = spectral.zeta_closed(ifs, p)
        excess = abs(trunc.value - closed.value) - trunc.error_bound
        worst = max(worst, excess / (1.0 + closed.value))
    return _result("trace_tail_bound", worst, 1e-12, f"J={TRACE_DEPTH}, relative bound slack")


def check_rotation_blocks():
    dev = spectral.abs_volume_block_deviation(presets.rotation(), ROTATION_DEPTH)
    return _result("rotation_volume_blocks", dev, 1e-10, f"depth<={ROTATION_DEPTH}")


def check_pairings():
    cs = presets.cantor_set()
    bad = 0
    for k in (1, 2, 3):
        got = ktheory.index_pairing(cs, ktheory.interval_projection(k), k + 3)
        if got.value != k or not got.stabilized:
            bad += 1
        if ktheory.connes_gap_pairing(k, k + 3) != 1:
            bad += 1
    cert = ktheory.nonvanish_certificate(presets.cantor_dust(2))
    if cert is None or not cert.pairing_matches:
        bad += 1
    if ktheory.nonvanish_certificate(presets.sierpinski_carpet()) is not None:
        bad += 1
    return _result("index_pairings", float(bad), 0.0, "integer checks")


def run_all(max_n=8):
    return [
        check_unitarity(max_n=max_n),
        check_involution(max_n=max_n),
        check_sign_pattern(max_n=max_n),
        check_two_path(max_n=min(max_n, 8)),
        check_clifford(max_n=min(max_n, 8)),
        check_volume_element(max_n=min(max_n, 6)),
        check_trace_convergence(),
        check_rotation_blocks(),
        check_pairings(),
    ]
