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
from dataclasses import dataclass

from . import _verify
from .components import level_one_components
from .errors import BudgetExceededError, DivergenceError
from .ifs import default_budget, load_ifs, similarity_dimension, vertex_closure_check
from .ktheory import (
    connes_gap_pairing,
    index_pairing,
    interval_projection,
    load_projection,
    nonvanish_certificate,
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    preset: str | None
    file: str | None
    depth: int
    exponent: object  # float or the string "auto"
    fmt: str
    out: str | None
    seed: int
    budget: int
    samples: int

    def __post_init__(self):
        if (self.preset is None) == (self.file is None):
            raise ValueError("exactly one of --preset/--file must be given")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


def _load_system(config: RunConfig):
    if config.preset is not None:
        return preset(config.preset)
    return load_ifs(config.file)


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
    """Compile a small arithmetic expression in x1..xn into a point function."""
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
        env = dict(_ALLOWED_CALLS, _power=_power)
        for i in range(n):
            env[f"x{i + 1}"] = float(point[i])
        try:
            return float(eval(code, {"__builtins__": {}}, env))
        except (ArithmeticError, TypeError) as exc:  # TypeError: a complex value, a bad call
            raise ValueError(f"cannot evaluate function expression {expr!r}: {exc}") from exc

    return f


def _emit(doc, config: RunConfig) -> None:
    if config.fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        sep, lines = (",", ["key,value"]) if config.fmt == "csv" else (" = ", [])
        lines += [f"{key}{sep}{value}" for key, value in sorted(_flatten(doc).items())]
        text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
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


def _config_echo(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "preset": config.preset,
        "file": config.file,
        "depth": config.depth,
        "exponent": config.exponent,
        "format": config.fmt,
        "seed": config.seed,
        "budget": config.budget,
        "samples": config.samples,
    }


def cmd_analyze(config: RunConfig) -> int:
    ifs = _load_system(config)
    dim = similarity_dimension(ifs)
    p_zeta = dim + 0.2 if config.exponent == "auto" else float(config.exponent)
    try:
        closed = zeta_closed(ifs, p_zeta).value
    except DivergenceError:
        closed = None
    trunc = zeta_truncated(ifs, p_zeta, config.depth, budget=config.budget)
    components = level_one_components(ifs)
    cert = nonvanish_certificate(ifs, budget=config.budget)
    doc = {
        "config": _config_echo(config),
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
    _emit(doc, config)
    return 0


def cmd_render(config: RunConfig, path: str | None) -> int:
    ifs = _load_system(config)
    out = path or config.out or f"{ifs.label}_depth{config.depth}.svg"
    write_svg(ifs, config.depth, out, budget=config.budget)
    sys.stdout.write(json.dumps({"written": out}, sort_keys=True) + "\n")
    return 0


def cmd_verify(max_n: int, inject_fault: bool) -> int:
    results = _verify.run_all(max_n=max_n, inject_fault=inject_fault)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failed += 1
        sys.stdout.write(f"{status} {res.name} (tolerance {res.tolerance:g}): {res.detail}\n")
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def cmd_pairing(config: RunConfig, pk: int | None, proj_path: str | None, gap_module: bool) -> int:
    ifs = _load_system(config)
    if (pk is None) == (proj_path is None):
        raise ValueError("pairing needs exactly one of --pk or --proj")
    if pk is not None:
        if ifs.n != 1:
            raise ValueError("--pk projections live on the line; use a 1-dimensional system")
        proj = interval_projection(pk)
        depth = config.depth if config.depth > 0 else pk + 3
    else:
        proj = load_projection(proj_path)
        depth = config.depth
    report = index_pairing(ifs, proj, depth, budget=config.budget)
    doc = {
        "config": _config_echo(config),
        "value": report.value,
        "depth_used": report.depth_used,
        "stabilized": report.stabilized,
        "per_depth": list(report.per_depth),
    }
    if gap_module:
        if pk is None:
            raise ValueError("--gap-module requires --pk")
        doc["gap_module"] = connes_gap_pairing(pk, depth)
    _emit(doc, config)
    return 0


def cmd_integrate(config: RunConfig, expr: str, mode: str, override_osc: bool) -> int:
    ifs = _load_system(config)
    f = function_from_expression(expr, ifs.n)
    spec = QuadratureSpec(
        depth=config.depth, mode=mode, sample_count=config.samples, seed=config.seed
    )
    value = integrate_hausdorff(ifs, f, spec, override_osc=override_osc, budget=config.budget)
    doc = {
        "config": _config_echo(config),
        "function": expr,
        "mode": mode,
        "value": value,
    }
    _emit(doc, config)
    return 0


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

    def add_common(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="preset name, e.g. " + ", ".join(preset_names()))
        group.add_argument("--file", help="path to an IFS JSON file")
        p.add_argument("--depth", type=int, default=6, help="word depth cutoff")
        p.add_argument("-p", "--exponent", default="auto",
                       help="trace exponent, or 'auto' for the similarity dimension")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write the document here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None,
                       help="max placed cubes per enumeration (default from "
                            "FRACTAL_DIRAC_BUDGET or 10^7)")
        p.add_argument("--samples", type=int, default=10000)

    p_analyze = sub.add_parser("analyze", help="full trace/component/pairing report")
    add_common(p_analyze)

    p_render = sub.add_parser("render", help="SVG figure of the construction steps")
    add_common(p_render)
    p_render.add_argument("--svg", default=None, help="output SVG path")

    p_verify = sub.add_parser("verify", help="run the operator-identity check suite")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p_pairing = sub.add_parser("pairing", help="integer index pairing with a projection")
    add_common(p_pairing)
    p_pairing.add_argument("--pk", type=int, default=None,
                           help="use the closed box [0, 3^-k] on the line")
    p_pairing.add_argument("--proj", default=None, help="path to a projection JSON file")
    p_pairing.add_argument("--gap-module", action="store_true",
                           help="also report the gap-interval module pairing")

    p_int = sub.add_parser("integrate", help="integrate a function against the fractal measure")
    add_common(p_int)
    p_int.add_argument("--function", default="1", help="expression in x1..xn, e.g. 'x1 + x2**2'")
    p_int.add_argument("--mode", choices=("deterministic", "chaos_game"), default="deterministic")
    p_int.add_argument("--override-osc", action="store_true",
                       help="integrate even without the open set condition flag")
    return parser


def _make_config(args) -> RunConfig:
    exponent = args.exponent
    if exponent != "auto":
        try:
            exponent = float(exponent)
        except ValueError as exc:
            raise ValueError(f"exponent must be a number or 'auto', got {exponent!r}") from exc
        if not math.isfinite(exponent):
            raise ValueError(f"exponent must be finite, got {args.exponent!r}")
    budget = args.budget if args.budget is not None else default_budget()
    return RunConfig(
        command=args.command,
        preset=args.preset,
        file=args.file,
        depth=args.depth,
        exponent=exponent,
        fmt=args.format,
        out=args.out,
        seed=args.seed,
        budget=budget,
        samples=args.samples,
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(max_n=args.max_n, inject_fault=args.inject_fault)
        config = _make_config(args)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "render":
            return cmd_render(config, args.svg)
        if args.command == "pairing":
            return cmd_pairing(config, args.pk, args.proj, args.gap_module)
        if args.command == "integrate":
            return cmd_integrate(config, args.function, args.mode, args.override_osc)
        raise ValueError(f"unknown command {args.command!r}")
    except BudgetExceededError as exc:
        _error_out(exc, "budget-exceeded")
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        _error_out(exc, "invalid-input")
        return 2


def _error_out(exc, kind):
    sys.stderr.write(json.dumps({"error": str(exc), "kind": kind}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
