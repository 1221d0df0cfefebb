import hashlib
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import grading
from fractal_dirac import _verify, cli, cube, ktheory
from fractal_dirac.cli import POW_MAX_BITS, _power, function_from_expression, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_dust(capsys):
    code, out, err = run_cli(capsys, "analyze", "--preset", "cantor_dust2", "--depth", "8")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["dim_s"] - 1.2618595071429148) <= 1e-9
    assert abs(doc["dixmier"]["value"] - 2.8853900817779268) <= 1e-9
    assert doc["vertex_closure"] is True
    assert doc["certificate"]["matches"] is True
    assert doc["components"]["count"] == 4
    assert doc["zeta"]["closed"] is not None


def test_analyze_menger(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "menger", "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["dixmier"]["value"] - 8.0 / math.log(20.0)) <= 1e-9
    assert doc["certificate"] is None


def test_analyze_explicit_exponent(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "cantor_set", "--depth", "6", "-p", "1.0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["zeta"]["p"] == 1.0
    np.testing.assert_allclose(doc["zeta"]["closed"], 6.0, rtol=1e-12)


def test_analyze_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2,
        "maps": [{"ratio": 0.5, "matrix": [1, 0.3, 0, 1], "translation": [0, 0]}],
        "label": "bad",
    }))
    code, out, err = run_cli(capsys, "analyze", "--file", str(bad))
    assert code == 2
    assert json.loads(err)["kind"] == "invalid-input"


def test_analyze_refuses_a_file_past_the_dimension_cap(capsys, tmp_path):
    path = tmp_path / "n13.json"
    path.write_text(json.dumps({"n": 13, "maps": [
        {"ratio": 0.5, "matrix": np.eye(13).ravel().tolist(), "translation": [0.0] * 13}]}))
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "n=13 exceeds the dense-storage cap n<=12", "kind": "invalid-input"}


@pytest.mark.parametrize("text", [
    '{"n": 1, "maps": 5}',
    '{"n": 1, "maps": [1]}',
    '{"n": 1, "maps": [{"ratio": null, "matrix": [1.0], "translation": [0.0]}]}',
    '{"n": 1e400, "maps": []}',
    '{"n": 1.9, "maps": [{"ratio": 0.5, "matrix": [1.0], "translation": [0.0]}]}',
    '{"n": "1", "maps": [{"ratio": 0.5, "matrix": [1.0], "translation": [0.0]}]}',
    '{"n": true, "maps": [{"ratio": 0.5, "matrix": [1.0], "translation": [0.0]}]}',
    '{"n": 2.0, "maps": [{"ratio": 0.5, "matrix": [1, 0, 0, 1], "translation": [0, 0]}]}',
])
def test_malformed_ifs_file_is_invalid_input(capsys, tmp_path, text):
    path = tmp_path / "system.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "invalid-input"
    assert doc["error"].startswith("malformed IFS document")


def test_overflowing_partial_trace_is_invalid_input(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--preset", "cantor_set", "--depth", "2000", "-p", "0.1"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("depth", [2**63 - 2, 2**63 - 1, 10**40, 10**400],
                         ids=["2^63-2", "2^63-1", "10^40", "10^400"])
def test_analyze_at_a_huge_depth_reads_as_a_deep_one(capsys, depth):
    # the power form stops at its first term of 0.0, and the tail is 0.0 long before these
    # depths, so zeta reads as at depth 10000 (from 2^63 - 1 on, once an OverflowError)
    zeta = []
    for d in (10000, depth):
        code, out, err = run_cli(capsys, "analyze", "--preset", "cantor_set", "--depth", str(d))
        assert (code, err) == (0, "")
        zeta.append(json.loads(out)["zeta"])
    assert [(z["truncated"], z["error_bound"]) for z in zeta][1:] == [(zeta[0]["truncated"], 0.0)]


@pytest.mark.parametrize("argv,prefix", [
    (["pairing", "--preset", "cantor_set", "--pk", str(10**400), "--depth", "0"],
     "index pairing to depth ~10^400 exceeds"),
    (["integrate", "--preset", "cantor_set", "--function", "x1", "--depth", str(10**40)],
     "enumerating at least 2^~10^40 words of depth <= ~10^40 exceeds"),
    (["integrate", "--preset", "cantor_set", "--function", "x1", "--depth", str(10**40),
      "--mode", "chaos_game"], "drawing 10000 sample words of depth ~10^40 exceeds"),
    (["analyze", "--preset", "cantor_set", "-p", "0.5", "--depth", str(10**40)],
     "the power form at p=0.5 would sum ~10^40 level terms"),
])
def test_budget_message_names_a_huge_depth_by_its_size(capsys, monkeypatch, argv, prefix):
    monkeypatch.delenv("FRACTAL_DIRAC_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert doc["kind"] == "budget-exceeded" and doc["error"].startswith(prefix)
    assert len(err) < 160


def test_budget_exceeded_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "integrate", "--preset", "menger", "--function", "1", "--depth", "9",
        "--budget", "1000",
    )
    assert code == 3
    assert json.loads(err)["kind"] == "budget-exceeded"


@pytest.mark.parametrize("extra", [["--budget", "1000"], []])
def test_render_budget_exceeded_exit_code(capsys, tmp_path, extra):
    # the word count is checked before anything is drawn or allocated
    code, out, err = run_cli(
        capsys, "render", "--preset", "menger_sponge", "--depth", "20",
        "--svg", str(tmp_path / "m.svg"), *extra,
    )
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "budget-exceeded"
    assert not (tmp_path / "m.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--preset", "cantor_set", "--depth", "20000"],
        ["render", "--preset", "cantor_set", "--depth", "1000000000"],
        ["integrate", "--preset", "cantor_set", "--depth", "1000000000"],
        ["pairing", "--preset", "cantor_set", "--pk", "2", "--depth", "1000000000"],
    ],
)
def test_deep_request_is_refused_before_it_is_sized(capsys, tmp_path, monkeypatch, argv):
    # 2^depth words exceed the budget: refused without forming N^(depth+1) or
    # allocating a per-depth table, so no digit-limit error and no wait
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "budget-exceeded"
    assert list(tmp_path.iterdir()) == []


def _two_map_file(tmp_path, ratio):
    path = tmp_path / "near_one.json"
    entry = {"ratio": ratio, "matrix": [1.0], "translation": [0.0]}
    path.write_text(json.dumps({"n": 1, "maps": [entry, entry]}))
    return str(path)


def test_dimension_above_float_resolution(capsys, tmp_path):
    # dim_s = log 2 / -log 0.99999 = 69314: adjacent floats there lie farther
    # apart than the bisection tolerance, and the bisection still ends
    code, out, _ = run_cli(capsys, "analyze", "--file", _two_map_file(tmp_path, 0.99999))
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["dim_s"], math.log(2) / -math.log(0.99999), rel_tol=1e-9)
    assert math.isclose(doc["dixmier"]["value"], 2 / math.log(2), rel_tol=1e-12)


def test_dimension_beyond_bracket_is_invalid_input(capsys, tmp_path):
    # dim_s = 6.9e6 lies past the bracket the bisection searches
    code, out, err = run_cli(capsys, "analyze", "--file", _two_map_file(tmp_path, 0.9999999))
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "invalid-input"


def test_unknown_preset_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--preset", "nope")
    assert code == 2
    assert "unknown preset" in json.loads(err)["error"]


def test_render_command(capsys, tmp_path):
    out_path = tmp_path / "dust.svg"
    code, out, _ = run_cli(
        capsys, "render", "--preset", "cantor_dust2", "--depth", "3", "--svg", str(out_path)
    )
    assert code == 0
    assert json.loads(out)["written"] == str(out_path)
    assert out_path.read_text().count("<polygon") == 85


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5")
    assert code == 0
    assert out.count("PASS") == 9
    assert "9/9 checks passed" in out


def test_verify_fault_injection(capsys, monkeypatch):
    # negative control for the suite: one flipped sign in the n = 3 edge matrix
    g_matrix = cube.g_matrix

    def faulty(n):
        g = g_matrix(n)
        if n == 3:
            g = g.copy()
            g[0, 0] = -g[0, 0]
        return g

    monkeypatch.setattr(cube, "g_matrix", faulty)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5")
    assert code == 1
    assert "FAIL unitarity" in out


def test_involution_check_reports_the_dense_residual(monkeypatch):
    # the suite forms f eps + eps f entrywise; the residual it reports must be the
    # float of the dense products.  A diagonal perturbation makes f not odd, and
    # f eps + eps f (2 D on the diagonal) the largest of the three residuals.
    rng = np.random.default_rng(3)
    forms = {n: cube.f_matrix(n) + np.diag(1e-3 * rng.standard_normal(2**n)) for n in range(1, 9)}
    monkeypatch.setattr(cube, "f_matrix", forms.__getitem__)
    reported = []
    result = _verify._result

    def capture(name, value, *rest):
        reported.append(value)
        return result(name, value, *rest)

    monkeypatch.setattr(_verify, "_result", capture)
    _verify.check_involution(max_n=8)
    dense = []
    for n, f in forms.items():
        eps = grading(n)
        dense += [np.max(np.abs(f @ f - np.eye(2**n))), np.max(np.abs(f - f.T)),
                  np.max(np.abs(f @ eps + eps @ f))]
    assert reported == [float(max(dense))] == [float(max(dense[2::3]))]


@pytest.mark.parametrize("mirrored", [False, True])
def test_involution_check_fails_on_a_corrupted_off_diagonal_entry(monkeypatch, mirrored):
    # a changed entry of F breaks F = F^T; changed together with its mirror entry
    # it breaks only F F = I.  Either way the check reports the dense residual
    f_matrix = cube.f_matrix

    def faulty(n):
        f = f_matrix(n)
        if n == 6:
            f[5, 34] += 0.3
            if mirrored:
                f[34, 5] += 0.3
        return f

    monkeypatch.setattr(cube, "f_matrix", faulty)
    reported = []
    result = _verify._result

    def capture(name, value, *rest):
        reported.append(value)
        return result(name, value, *rest)

    monkeypatch.setattr(_verify, "_result", capture)
    assert not _verify.check_involution(max_n=6).passed
    f, eps = faulty(6), grading(6)
    dense = max(np.max(np.abs(f @ f - np.eye(64))), np.max(np.abs(f - f.T)),
                np.max(np.abs(f @ eps + eps @ f)))
    assert dense > 0.1
    assert reported[0] == pytest.approx(dense, rel=1e-15, abs=0.0)


def test_import_builds_no_operator_tables():
    # the cube and form tables are built on first use, never while the CLI imports
    script = "\n".join([
        "import fractal_dirac.cli",
        "from fractal_dirac import calculus, cube",
        "caches = [cube.vertex_bits, cube.x_matrix, cube.g_matrix, cube.oriented_edge_set,",
        "          cube._edge_table, calculus._coordinate_perm]",
        "print([c.cache_info().currsize for c in caches])",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0, 0, 0]


def test_pairing_command(capsys):
    code, out, _ = run_cli(
        capsys, "pairing", "--preset", "cantor_set", "--pk", "2", "--depth", "5",
        "--gap-module",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2
    assert doc["stabilized"] is True
    assert doc["gap_module"] == 1


def test_pairing_with_projection_file(capsys, tmp_path):
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({
        "regions": [{
            "lo": [0.0, 0.0], "hi": [0.4, 0.4],
            "lo_closed": [True, True], "hi_closed": [True, True],
        }]
    }))
    code, out, _ = run_cli(
        capsys, "pairing", "--preset", "cantor_dust2", "--proj", str(proj), "--depth", "4"
    )
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_pairing_requires_exactly_one_projection_source(capsys):
    code, _, err = run_cli(capsys, "pairing", "--preset", "cantor_set", "--depth", "4")
    assert code == 2


def test_integrate_command(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--preset", "cantor_set", "--function", "x1", "--depth", "12"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 0.5) <= 1e-6


def test_integrate_chaos_game_seeded(capsys):
    args = (
        "integrate", "--preset", "cantor_set", "--function", "x1", "--depth", "10",
        "--mode", "chaos_game", "--samples", "5000", "--seed", "42",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert abs(json.loads(out1)["value"] - 0.5) <= 3.0 / math.sqrt(5000)


def test_integrate_non_osc_guard(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--preset", "non_osc", "--function", "1", "--depth", "4"
    )
    assert code == 2
    code, out, _ = run_cli(
        capsys, "integrate", "--preset", "non_osc", "--function", "1", "--depth", "4",
        "--override-osc",
    )
    assert code == 0


def test_output_formats(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "cantor_set", "--depth", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "cantor_set", "--depth", "4", "--format", "text"
    )
    assert code == 0
    assert any(line.startswith("dim_s = ") for line in out.splitlines())


def test_analyze_byte_stability(capsys):
    args = ("analyze", "--preset", "rotation", "--depth", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("name, digest", [  # sha256 of the stdout recorded at an earlier commit
    ("cantor_set", "b084bba148452591e94496093d1c77351b7a21bdfcd881c041f6f990716fdab5"),
    ("menger_sponge", "8629945b07cbbbce0cf4302b94b8026378a515b379c48ab3510f7513c6724810"),
    ("rotation", "8392ff9ec2d4b05556104aa54833456ae10aff10a2f73101593fac864c4eb6fb"),
    ("non_osc", "8b3ebf59892418721abc28ae0f9087dba31bd65c5637e087dd95ccdbe2135e56"),
])
def test_analyze_document_matches_recorded_digest(capsys, name, digest):
    code, out, _ = run_cli(capsys, "analyze", "--preset", name, "--depth", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file_option(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "cantor_set", "--depth", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fractal_dirac.cli", "pairing", "--preset", "cantor_set",
         "--pk", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1


def test_function_expressions():
    f = function_from_expression("x1 + 2*x2**2", 2)
    assert f(np.array([1.0, 3.0])) == 19.0
    g = function_from_expression("sin(x1)", 1)
    assert abs(g(np.array([0.5])) - math.sin(0.5)) < 1e-15
    assert type(f(np.array([1.0, 3.0]))) is float
    # coordinate arrays (n, m), x[i] holding coordinate i of m points: one value a point
    got = f(np.array([[1.0, 0.5, -2.0], [3.0, 0.25, 1.0]]))
    assert got.shape == (3,) and got.tolist() == [19.0, 0.625, 0.0]
    with pytest.raises(ValueError):
        function_from_expression("__import__('os')", 1)
    with pytest.raises(ValueError):
        function_from_expression("x9", 1)
    with pytest.raises(ValueError):
        function_from_expression("open('x')", 1)


def test_integer_powers_are_bounded():
    # the bound is read off the operands, so a tower is refused before it is built
    with pytest.raises(OverflowError, match=f"exceed {POW_MAX_BITS} bits"):
        _power(10, 10**10)
    with pytest.raises(ValueError, match=f"exceed {POW_MAX_BITS} bits"):
        function_from_expression("2**10**10**10", 1)(np.array([0.5]))
    assert _power(2, POW_MAX_BITS - 1).bit_length() == POW_MAX_BITS
    f = function_from_expression("2**4095 / 2**4094 + 2**-3 + x1**2", 1)
    assert f(np.array([3.0])) == 11.125


@pytest.mark.parametrize("expr", ["10**10**5", "2**4096 / 2**4095"])
def test_integer_power_over_the_bound_is_invalid_input(capsys, expr):
    code, out, err = run_cli(
        capsys, "integrate", "--preset", "cantor_set", "--function", expr, "--depth", "2"
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "invalid-input"
    assert f"exceed {POW_MAX_BITS} bits" in doc["error"]


@pytest.mark.parametrize("extra", [["--samples", "1000000000000"], ["--samples", "100000000"],
                                   ["--samples", "5000", "--budget", "1000"],
                                   ["--samples", "1", "--depth", "1000000000"],
                                   ["--samples", "1", "--depth", "20000000"]])
def test_chaos_game_samples_over_budget(capsys, monkeypatch, extra):
    # samples times depth, the placed cubes the samples visit, is checked against
    # the word budget before the sample array is allocated
    monkeypatch.delenv("FRACTAL_DIRAC_BUDGET", raising=False)
    code, out, err = run_cli(
        capsys, "integrate", "--preset", "cantor_dust2", "--depth", "3", "--mode", "chaos_game",
        *extra,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "budget-exceeded"


def test_exponent_validation(capsys):
    for bad in ("abc", "nan", "inf"):
        code, out, err = run_cli(capsys, "analyze", "--preset", "cantor_set", "-p", bad)
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("expr", ["1/0", "exp(1000)"])
def test_integrate_arithmetic_error_is_invalid_input(capsys, expr):
    code, out, err = run_cli(
        capsys, "integrate", "--preset", "cantor_set", "--function", expr, "--depth", "2"
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "invalid-input"
    assert expr in doc["error"]


@pytest.mark.parametrize("argv", [["integrate", "--override-osc"], ["render"]])
def test_a_one_map_sweep_past_the_recursion_limit(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # render writes its figure here
    (tmp_path / "one.json").write_text(json.dumps(
        {"n": 1, "maps": [{"ratio": 0.5, "matrix": [1], "translation": [0]}]}))
    code, out, err = run_cli(capsys, *argv, "--file", "one.json", "--depth", "1000")
    assert (code, err) == (0, "")


_INTEGRATE = ["integrate", "--preset", "cantor_set", "--depth", "2"]


@pytest.mark.parametrize("argv,prefix", [
    (["analyze", "--file", "deep.json"], ""),  # a JSON array 100,000 deep
    (["pairing", "--preset", "cantor_set", "--proj", "deep.json"], ""),
    (_INTEGRATE + ["--function=" + "-" * 500 + "x1"], ""),  # 500 nested negations
    (_INTEGRATE + ["--function=log(x1 - x1)"], "cannot evaluate function expression 'log(x1 - x1)'"),
], ids=["ifs-file", "projection-file", "nested-function", "math-domain"])
def test_deep_or_undefined_input_is_invalid_input(capsys, tmp_path, monkeypatch, argv, prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["kind"] == "invalid-input" and doc["error"].startswith(prefix)


def test_verify_takes_only_max_n(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--out", "x.txt")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--out", "x.txt"],
        ["analyze", "--preset", "cantor_set", "-p", "-inf"],
        ["analyze", "--depth", "2"],
        ["pairing", "--preset", "cantor_set", "--depth", "two"],
        ["no_such_command"],
        ["analyze", "--preset", "cantor_set", "--seed", "1"],
        ["render", "--preset", "cantor_set", "--out", "x.svg"],
        ["pairing", "--preset", "cantor_set", "--pk", "1", "-p", "1"],
        ["integrate", "--preset", "cantor_set", "-p", "1"],
        ["verify", "--inject-fault"],
        ["analyze", "--preset", "cantor_set", "--depth", "-1"],
        ["pairing", "--preset", "cantor_set", "--pk", "2", "--depth", "-1"],
        ["analyze", "--preset", "cantor_set", "--budget", "0"],
        ["analyze", "--preset", "cantor_set", "--budget", "-1"],
        ["verify", "--max-n", "0"],
        ["verify", "--max-n", "-3"],
        ["analyze", "--preset", "rotation:nan", "--depth", "2"],
        ["analyze", "--preset", "rotation:inf", "--depth", "2"],
        ["pairing", "--preset", "cantor_set", "--pk", "26", "--depth", "29"],
        ["integrate", "--preset", "cantor_set", "--function", "1e308*10"],
        ["integrate", "--preset", "cantor_set", "--function", "1e308*10", "--format", "csv"],
        ["integrate", "--preset", "cantor_set", "--function", "0 - 1e308*10", "--format", "text"],
        ["pairing", "--preset", "cantor_set", "--pk", "1" + "0" * 400],  # 3.0**-k overflowed
    ],
)
def test_usage_errors_are_json_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "invalid-input"


@pytest.mark.parametrize("argv,scale", [
    (["--pk", "679"], "0 (the narrowest region)"),  # 3.0**-679 is 0.0: a region of zero width
    (["--pk", "40", "--depth", "0"], "3.05e-21 (the smallest edge at depth 43)"),
])
def test_undecided_pairing_names_the_scale_that_failed(capsys, argv, scale):
    code, out, err = run_cli(capsys, "pairing", "--preset", "cantor_set", *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        f"membership is not decided at scale {scale}, at most 2 MEMBERSHIP_TOL")


NAN_SYSTEM = {"n": 1, "maps": [{"ratio": 0.5, "matrix": [1.0], "translation": [float("nan")]},
                               {"ratio": 0.5, "matrix": [1.0], "translation": [0.5]}]}
CARPET = ["pairing", "--preset", "sierpinski_carpet"]


@pytest.mark.parametrize("argv,system,regions", [
    (["analyze"], NAN_SYSTEM, None),  # a NaN translation
    (["integrate", "--override-osc"], NAN_SYSTEM, None),
    (CARPET, None, [([0.0, 0.0], [0.5, 0.5]), ([0.0], [0.5])]),  # a 2-D and a 1-D box
    (CARPET, None, [([float("nan"), 0.0], [0.5, 0.5])]),  # a NaN face
])
def test_non_finite_or_mismatched_files_are_invalid_input(capsys, tmp_path, argv, system, regions):
    if system is not None:
        (tmp_path / "system.json").write_text(json.dumps(system))
        argv = argv + ["--file", str(tmp_path / "system.json")]
    if regions is not None:
        (tmp_path / "proj.json").write_text(json.dumps({"regions": [
            {"lo": lo, "hi": hi, "lo_closed": [True] * len(lo), "hi_closed": [True] * len(lo)}
            for lo, hi in regions]}))
        argv = argv + ["--proj", str(tmp_path / "proj.json")]
    code, out, err = run_cli(capsys, *argv, "--depth", "2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "invalid-input"


def test_non_finite_document_value_is_refused_by_key(capsys):
    code, out, err = run_cli(capsys, "integrate", "--preset", "cantor_set",
                             "--function", "1e308*10")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "document key 'value' holds inf, not a finite number"


def test_usage_error_process_contract():
    # the whole process: exit code, one JSON line on stderr, no usage text or traceback
    proc = subprocess.run(
        [sys.executable, "-m", "fractal_dirac.cli", "analyze", "--preset", "cantor_set",
         "-p", "-inf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert [json.loads(line)["kind"] for line in proc.stderr.splitlines()] == ["invalid-input"]


def _cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "fractal_dirac.cli", *argv], capture_output=True, text=True
    )


def test_refused_render_writes_one_json_line_to_stderr(tmp_path):
    # an n = 1 system is projected onto two axes without a warning ahead of the document
    proc = _cli_process("render", "--preset", "cantor_set", "--depth", "20000",
                        "--svg", str(tmp_path / "c.svg"))
    assert proc.returncode == 3 and proc.stdout == ""
    assert [json.loads(line)["kind"] for line in proc.stderr.splitlines()] == ["budget-exceeded"]
    assert list(tmp_path.iterdir()) == []


def test_render_of_a_projected_system_leaves_stderr_empty(tmp_path):
    out_path = tmp_path / "x.svg"
    proc = _cli_process("render", "--preset", "sc3", "--depth", "1", "--svg", str(out_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["written"] == str(out_path)
    assert out_path.read_text().count("<polygon") == 1 + 20


def test_library_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from fractal_dirac.cli import main",
        "codes = [main(['analyze', '--preset', 'rotation', '--depth', '3']),",
        "         main(['analyze', '--preset', 'menger_sponge', '--depth', '2'])]",
        "sys.exit(0 if codes == [0, 0] else 1)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count('"command": "analyze"') == 2


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fractal-dirac verify")


@pytest.mark.parametrize("expr", ["(-1)**0.5", "sqrt(1, 2)"])
def test_integrate_non_real_value_is_invalid_input(capsys, expr):
    code, out, err = run_cli(
        capsys, "integrate", "--preset", "cantor_set", "--function", expr, "--depth", "2"
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "invalid-input"
    assert expr in doc["error"]


CHAOS_DUST2_DOC = """{
  "config": {
    "budget": 10000000,
    "command": "integrate",
    "depth": 10,
    "file": null,
    "format": "json",
    "preset": "cantor_dust2",
    "samples": 20000,
    "seed": 5
  },
  "function": "1.3*x1 + 0.6*x2",
  "mode": "chaos_game",
  "value": 0.949552640518891
}
"""


def test_integrate_chaos_game_document_is_pinned(capsys, monkeypatch):
    # two sample chunks; the document is the one an unchunked sampler wrote
    monkeypatch.delenv("FRACTAL_DIRAC_BUDGET", raising=False)
    code, out, _ = run_cli(
        capsys, "integrate", "--preset", "cantor_dust2", "--function", "1.3*x1 + 0.6*x2",
        "--mode", "chaos_game", "--samples", "20000", "--seed", "5", "--depth", "10",
    )
    assert code == 0
    assert out == CHAOS_DUST2_DOC


@pytest.mark.parametrize("argv,extra", [
    (["analyze", "--preset", "cantor_set", "--depth", "3"], ["exponent"]),
    (["pairing", "--preset", "cantor_set", "--pk", "1"], []),
    (["integrate", "--preset", "cantor_set", "--depth", "3"], ["samples", "seed"]),
])
def test_config_echoes_only_the_options_a_command_takes(capsys, argv, extra):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    shared = ["budget", "command", "depth", "file", "format", "preset"]
    assert list(json.loads(out)["config"]) == sorted(shared + extra)


def test_analyze_computes_the_components_once(capsys, monkeypatch):
    calls = []
    original = ktheory.level_one_components

    def counted(ifs):
        calls.append(ifs.label)
        return original(ifs)

    monkeypatch.setattr(cli, "level_one_components", counted)
    monkeypatch.setattr(ktheory, "level_one_components", counted)
    code, out, _ = run_cli(capsys, "analyze", "--preset", "cantor_dust2", "--depth", "3")
    assert code == 0
    assert json.loads(out)["certificate"]["matches"] is True
    assert len(calls) == 1


def _limit_address_space():
    # 2 GiB: an enumeration that ignores the dimension cap fails in the child, not the host
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.mark.parametrize("name", ["cantor_dust1000", "sc40", "cantor_dust99999999999"])
def test_oversize_preset_family_exits_2_promptly(name):
    proc = subprocess.run(
        [sys.executable, "-m", "fractal_dirac.cli", "analyze", "--preset", name],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    doc = json.loads(proc.stderr)
    assert doc["kind"] == "invalid-input"
    assert "exceeds the dense-storage cap n<=12" in doc["error"]
    assert "Traceback" not in proc.stderr
