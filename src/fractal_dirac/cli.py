"""Batch command-line surface: analyze | render | verify | pairing | integrate.

Every command reads one system (preset name or IFS JSON file), writes a
machine-readable document to stdout or --out, and exits 0 on success, 1 on a
failed verification, 2 on invalid input, 3 on an exceeded word budget.
Documents are byte-stable for a fixed configuration and seed.
"""

import argparse
import ast
import json
import math
import sys

import numpy as np

from . import _verify
from .components import level_one_components, vertex_closure_check
from .errors import BudgetExceededError, DivergenceError
from .ifs import _json_text, default_budget, load_ifs, similarity_dimension
from .ktheory import (
    component_certificate,
    connes_gap_pairing,
    index_pairing,
    interval_projection,
    load_projection,
)
from .presets import preset, preset_names
from .render import write_svg
from .spectral import (
    QuadratureSpec,
    dixmier_trace_dirac,
    integrate_hausdorff,
    quantized_volume,
    zeta_closed,
    zeta_truncated,
)


def _load_system(args):
    return preset(args.preset) if args.preset is not None else load_ifs(args.file)


_ALLOWED_CALLS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Call,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


POW_MAX_BITS = 4096  # largest integer power an expression may build


def _power(base, exponent):
    """base ** exponent, refusing an integer power of more than POW_MAX_BITS bits."""
    if (isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1
            and exponent >= POW_MAX_BITS / math.log2(abs(base))):
        raise OverflowError(f"an integer power would exceed {POW_MAX_BITS} bits")
    return base**exponent


class _PowerCalls(ast.NodeTransformer):
    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.Call(ast.Name("_power", ast.Load()), [node.left, node.right], [])


def function_from_expression(expr: str, n: int):
    """Compile a small arithmetic expression in x1..xn into an integrand on (n, m)
    coordinate arrays, evaluated once per point; one point of shape (n,) gives a float."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse function expression {expr!r}: {exc}") from exc
    coords = {f"x{i + 1}" for i in range(n)}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax in function expression: {type(node).__name__}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants are allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError("only sin/cos/tan/exp/log/sqrt/abs calls are allowed")
        if isinstance(node, ast.Name) and node.id not in coords | set(_ALLOWED_CALLS):
            raise ValueError(f"unknown name {node.id!r}; coordinates are x1..x{n}")
    code = compile(ast.fix_missing_locations(_PowerCalls().visit(tree)), "<function>", "eval")

    def f(point):
        if np.ndim(point) > 1:  # coordinate arrays (n, m): one point at a time
            return np.array([f(column) for column in np.transpose(point)])
        env = dict(_ALLOWED_CALLS, _power=_power)
        for i in range(n):
            env[f"x{i + 1}"] = float(point[i])
        try:
            return float(eval(code, {"__builtins__": {}}, env))
        except (ArithmeticError, TypeError, ValueError) as exc:  # a complex value, a bad call, log(0)
            raise ValueError(f"cannot evaluate function expression {expr!r}: {exc}") from exc

    return f


def _emit(doc, args) -> None:
    for key, value in sorted(_flatten(doc).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"document key {key!r} holds {value}, not a finite number")
    if args.format == "json":
        text = _json_text(doc)
    else:
        sep, lines = (",", ["key,value"]) if args.format == "csv" else (" = ", [])
        lines += [f"{key}{sep}{value}" for key, value in sorted(_flatten(doc).items())]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(doc, prefix=""):
    flat = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            flat.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for idx, value in enumerate(doc):
            flat.update(_flatten(value, f"{prefix}{idx}."))
    else:
        flat[prefix.rstrip(".")] = doc
    return flat


def _config_echo(args, *extra) -> dict:
    """The options that shaped a document: the shared ones plus the command's own extra."""
    keys = ("command", "preset", "file", "depth", "format", "budget") + extra
    return {key: getattr(args, key) for key in keys}


def cmd_analyze(args) -> int:
    ifs = _load_system(args)
    dim = similarity_dimension(ifs)
    p_zeta = dim + 0.2 if args.exponent == "auto" else args.exponent
    try:
        closed = zeta_closed(ifs, p_zeta).value
    except DivergenceError:
        closed = None
    trunc = zeta_truncated(ifs, p_zeta, args.depth, budget=args.budget)
    components = level_one_components(ifs)
    cert = component_certificate(ifs, components, budget=args.budget)
    doc = {
        "config": _config_echo(args, "exponent"),
        "system": {"label": ifs.label, "n": ifs.n, "num_maps": ifs.num_maps, "osc": ifs.osc},
        "dim_s": dim,
        "vertex_closure": vertex_closure_check(ifs),
        "components": {
            "count": components.count,
            "details": [
                {"cubes": list(c.cubes), "vertices": list(c.vertices), "d0": c.d0, "d1": c.d1}
                for c in components.components
            ],
        },
        "zeta": {
            "p": p_zeta,
            "closed": closed,
            "truncated": trunc.value,
            "depth": trunc.depth,
            "error_bound": trunc.error_bound,
        },
        "dixmier": {"p": dim, "value": dixmier_trace_dirac(ifs, dim).value},
        "quantized_volume": {"p": dim / ifs.n, "value": quantized_volume(ifs, dim / ifs.n).value},
        "certificate": None
        if cert is None
        else {
            "component": cert.component_index,
            "d0": cert.d0,
            "d1": cert.d1,
            "pairing": cert.pairing,
            "matches": cert.pairing_matches,
        },
    }
    _emit(doc, args)
    return 0


def cmd_render(args) -> int:
    ifs = _load_system(args)
    out = args.svg or f"{ifs.label}_depth{args.depth}.svg"
    write_svg(ifs, args.depth, out, budget=args.budget)
    sys.stdout.write(json.dumps({"written": out}, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = _verify.run_all(max_n=args.max_n)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{status} {res.name} (tolerance {res.tolerance:g}): {res.detail}\n")
    failed = sum(not res.passed for res in results)
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def cmd_pairing(args) -> int:
    ifs = _load_system(args)
    if (args.pk is None) == (args.proj is None):
        raise ValueError("pairing needs exactly one of --pk or --proj")
    if args.pk is not None:
        if ifs.n != 1:
            raise ValueError("--pk projections live on the line; use a 1-dimensional system")
        proj = interval_projection(args.pk)
        depth = args.depth if args.depth > 0 else args.pk + 3
    else:
        proj = load_projection(args.proj)
        depth = args.depth
    report = index_pairing(ifs, proj, depth, budget=args.budget)
    doc = {
        "config": _config_echo(args),
        "value": report.value,
        "depth_used": report.depth_used,
        "stabilized": report.stabilized,
        "per_depth": list(report.per_depth),
    }
    if args.gap_module:
        if args.pk is None:
            raise ValueError("--gap-module requires --pk")
        doc["gap_module"] = connes_gap_pairing(args.pk, depth)
    _emit(doc, args)
    return 0


def cmd_integrate(args) -> int:
    ifs = _load_system(args)
    f = function_from_expression(args.function, ifs.n)
    spec = QuadratureSpec(
        depth=args.depth, mode=args.mode, sample_count=args.samples, seed=args.seed
    )
    value = integrate_hausdorff(ifs, f, spec, override_osc=args.override_osc, budget=args.budget)
    doc = {
        "config": _config_echo(args, "seed", "samples"),
        "function": args.function,
        "mode": args.mode,
        "value": value,
    }
    _emit(doc, args)
    return 0


def _at_least(low: int, name: str):
    """An argparse type: an integer >= low (--depth 0, --budget and --max-n 1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return value

    return parse


def _exponent(text: str):
    """-p/--exponent: a finite number, or the string 'auto'."""
    if text == "auto":
        return text
    try:
        exponent = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"exponent must be a number or 'auto', got {text!r}") from None
    if not math.isfinite(exponent):
        raise argparse.ArgumentTypeError(f"exponent must be finite, got {text!r}")
    return exponent


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as invalid input, so they reach the JSON error channel."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="fractal-dirac",
        description="Trace, pairing, and figure reports for self-similar sets on n-cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help, document=True):
        """A subcommand on one system; a document command also takes --format and --out."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="preset name, e.g. " + ", ".join(preset_names()))
        group.add_argument("--file", help="path to an IFS JSON file")
        p.add_argument("--depth", type=_at_least(0, "depth"), default=6, help="word depth cutoff")
        if document:
            p.add_argument("--format", choices=("json", "csv", "text"), default="json")
            p.add_argument("--out", default=None,
                           help="write the document here instead of stdout")
        p.add_argument("--budget", type=_at_least(1, "budget"), default=None,
                       help="max placed cubes per enumeration (default from "
                            "FRACTAL_DIRAC_BUDGET or 10^7)")
        return p

    p_analyze = add_command("analyze", cmd_analyze, "full trace/component/pairing report")
    p_analyze.add_argument("-p", "--exponent", type=_exponent, default="auto",
                           help="trace exponent, or 'auto' for the similarity dimension")

    p_render = add_command("render", cmd_render, "SVG figure of the construction steps",
                           document=False)
    p_render.add_argument("--svg", default=None, help="output SVG path")

    p_verify = sub.add_parser("verify", help="run the operator-identity check suite")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--max-n", type=_at_least(1, "max-n"), default=8)

    p_pairing = add_command("pairing", cmd_pairing, "integer index pairing with a projection")
    p_pairing.add_argument("--pk", type=int, default=None,
                           help="use the closed box [0, 3^-k] on the line")
    p_pairing.add_argument("--proj", default=None, help="path to a projection JSON file")
    p_pairing.add_argument("--gap-module", action="store_true",
                           help="also report the gap-interval module pairing")

    p_int = add_command("integrate", cmd_integrate,
                        "integrate a function against the fractal measure")
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument("--samples", type=int, default=10000)
    p_int.add_argument("--function", default="1", help="expression in x1..xn, e.g. 'x1 + x2**2'")
    p_int.add_argument("--mode", choices=("deterministic", "chaos_game"), default="deterministic")
    p_int.add_argument("--override-osc", action="store_true",
                       help="integrate even without the open set condition flag")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "budget" in args and args.budget is None:  # verify takes no budget
            args.budget = default_budget()
        return args.run(args)
    except BudgetExceededError as exc:
        _error_out(exc, "budget-exceeded")
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError, RecursionError) as exc:  # deep nesting
        _error_out(exc, "invalid-input")
        return 2


def _error_out(exc, kind):
    sys.stderr.write(json.dumps({"error": str(exc), "kind": kind}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
