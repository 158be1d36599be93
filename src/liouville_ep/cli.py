"""Command-line front end.

Subcommands: build, polygon, scan, amoeba, scale, encircle.  Data outputs are
JSON (always carrying "schema": 1) or CSV with a documented header, every CSV
through one writer, `_csv`, that formats the floats numerics made (this
module makes none); SVG plots are optional.  Exit codes: 0 success, 2 input
or parse error, 3 precondition violation (a request too large for memory
included), 4 numerical failure.  All invocations are deterministic under a
fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .expr import ParseError, format_poly, parse_expression
from .models import (
    builtin_model,
    char_poly,
    generic_perturbation,
    model_from_dict,
    perturbation_matrix,
)
from .newton import (
    assert_routes_agree,
    directions_to_list,
    polygon_to_dict,
    report_to_dict,
    tentacle_directions,
)
from .numerics import NumericalError, amoeba_sample, encircle, scaling_sweep
from .poly import GaussRational
from .scan import Classification, _classify_points, geometric_multiplicity, scan_parameter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class InputError(Exception):
    """Bad command-line input (maps to exit code 2)."""


# -- argument handling -------------------------------------------------------


def _parse_scalar(text: str) -> GaussRational:
    return parse_expression(text, ()).constant_value()


def _check_printable(value: GaussRational, what: str) -> None:
    """An InputError naming `what` when a number that `str(value)` prints,
    the numerator or denominator of its real or imaginary part, has more
    digits than the interpreter prints of an int (PYTHONINTMAXSTRDIGITS).
    Those numbers are at most a, b and d of (a + b*i)/d in size, and 2^(3k)
    < 10^k, so 3k bits take at most k digits: only past that are the parts
    compared with 10^k."""
    # Python before 3.10.7 has no such limit, which reads as 0
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max(value.a, value.b, value.d, key=abs).bit_length() > 3 * limit:
        if any(abs(n) >= 10**limit for part in (value.re, value.im) for n in (part.numerator, part.denominator)):
            raise InputError(f"{what}: the value has more than {limit} digits, more than this interpreter prints")


def _parse_binding(text: str) -> tuple[str, Fraction]:
    """name=value, the value an exact real expression of the grammar."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise InputError(f"binding {text!r} is not of the form name=value")
    try:
        number = _parse_scalar(value)
    except ParseError as exc:
        raise InputError(f"binding {text!r}: {exc}") from None
    _check_printable(number, f"binding {text!r}")
    if number.b:
        raise InputError(f"binding {text!r}: the value {number} is not real")
    return name.strip(), number.re


def _load_model(ref: str):
    try:
        return builtin_model(ref)
    except ValueError:
        pass
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model {ref!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {ref!r} is not valid JSON: {exc}") from None
    try:
        return model_from_dict(data)
    except (ValueError, TypeError) as exc:  # the message names the field at fault
        raise InputError(f"model file {ref!r}: {exc}") from None


def _bindings_map(bundle, pairs) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for text in pairs or ():
        name, value = _parse_binding(text)
        if name not in bundle.params:
            raise InputError(
                f"unknown parameter {name!r}; model has {list(bundle.params)}"
            )
        if name in out:
            raise InputError(f"parameter {name!r} bound twice")
        out[name] = value
    return out


def _require_all_bound(bundle, bindings) -> None:
    missing = [p for p in bundle.params if p not in bindings]
    if missing:
        raise ValueError(f"unbound parameters: {missing}; bind them with --bind")


def _omega0(args) -> GaussRational:
    if args.omega0 is None:
        raise InputError("--omega0 is required for this subcommand")
    w0 = _parse_scalar(args.omega0)
    _check_printable(w0, f"--omega0 {args.omega0!r}")
    return -w0 if args.shift_sign == "minus" else w0


def _perturbation_name(bundle, args) -> str:
    choice = args.perturb or "generic"
    if choice != "generic" and choice not in bundle.params:
        raise InputError(
            f"--perturb must be 'generic' or one of {list(bundle.params)}"
        )
    return choice


def _perturbation(bundle, bindings, pname, seed):
    if pname == "generic":
        return generic_perturbation(bundle.variables, bundle.dim**2, seed)
    return perturbation_matrix(bundle.generator, pname).substitute(bindings)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _svg_path(args, default: str) -> str:
    if args.out:
        base = args.out.rsplit(".", 1)[0] if "." in args.out.rsplit("/", 1)[-1] else args.out
        return base + ".svg"
    return default


def _figure(title: str, xlabel: str, ylabel: str):
    """A new `svgplot.Figure`; svgplot, and `html` with it, is imported only
    by a command that writes an SVG."""
    from . import svgplot

    return svgplot.Figure(title, xlabel, ylabel)


# rows of a long CSV table formatted at a time, which bounds its cell lists
_CSV_ROWS = 1 << 12


def _float_reprs(values: np.ndarray) -> list[str]:
    """repr() of every float64 of the array in C order, for CSV cells.

    Each distinct value is formatted once: the values are told apart by
    their bit patterns (so -0.0 and 0.0 stay apart), the distinct ones go
    through one list repr split back into its items, each of them
    float.__repr__, and the cells are gathered back through the inverse.
    """
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    cells = np.array(repr(bits.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    return cells[inverse].tolist()


def _csv(summary: str, header: str, *columns) -> str:
    """A CSV table: the `# summary` line, the header row, then one row per
    index of the equally long columns.  A float array's cells are its
    `_float_reprs`, a list of strings is taken as it is."""
    lines = [f"# {summary}", header]
    for i in range(0, len(columns[0]), _CSV_ROWS):
        cells = [
            c[i : i + _CSV_ROWS] if isinstance(c, list) else _float_reprs(c[i : i + _CSV_ROWS])
            for c in columns
        ]
        lines.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(lines) + "\n"


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _classification_dict(c: Classification) -> dict:
    label = {"ep": f"EP({c.order})", "diabolic": "diabolic"}.get(c.kind, "inconclusive")
    return {
        "kind": c.kind,
        "label": label,
        "order": c.order,
        "alg_mult": c.alg_mult,
        "geom_mult": c.geom_mult,
        "jordan_blocks": list(c.jordan_blocks),
        "valuations": report_to_dict(c.report)["valuations"],
        "polygon": polygon_to_dict(c.polygon),
        "seeds": list(c.seeds),
        "notes": list(c.notes),
    }


# -- subcommands ----------------------------------------------------------------


def cmd_build(args) -> int:
    bundle = _load_model(args.model)
    bindings = _bindings_map(bundle, args.bind)
    matrix = bundle.generator
    if bindings:
        matrix = matrix.substitute(bindings)
    for r, row in enumerate(matrix.rows):
        for c, entry in enumerate(row):
            for coeff in entry.terms.values():
                _check_printable(coeff, f"entries[{r}][{c}]")
    payload = {
        "schema": 1,
        "model": bundle.name,
        "dim": bundle.dim**2,
        "params": list(bundle.params),
        "bound": {k: str(v) for k, v in bindings.items()},
        "entries": [[format_poly(e) for e in row] for row in matrix.rows],
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _bound_point(args):
    """The preamble of polygon, amoeba, scale and encircle: the model, the
    bindings, the fully bound generator, the perturbation's name and omega0
    (None for a subcommand without --omega0), with input errors raised in
    that order.  `_perturbation` builds the perturbation itself."""
    bundle = _load_model(args.model)
    bindings = _bindings_map(bundle, args.bind)
    _require_all_bound(bundle, bindings)
    w0 = _omega0(args) if hasattr(args, "omega0") else None
    bound = bundle.generator.substitute(bindings)
    return bundle, bindings, bound, _perturbation_name(bundle, args), w0


def _require_eigenvalue(bound, w0) -> None:
    if geometric_multiplicity(bound, w0) == 0:
        raise ValueError(f"omega0 = {w0} is not an exact eigenvalue")


def cmd_polygon(args) -> int:
    bundle, bindings, bound, pname, w0 = _bound_point(args)
    # one kernel call: a named perturbation's pencil joins classify's batch,
    # which checks w0 exactly first
    named = []
    if pname != "generic":
        named.append((bound, _perturbation(bundle, bindings, pname, args.seed), w0))
    (classification,), fs = _classify_points([(bound, w0)], args.seed, named)
    if named:
        polygon, report = assert_routes_agree(fs[0])
    else:
        # classify's certified seed, --seed unless it was non-generic: its
        # polygon is the generic perturbation's
        polygon, report = classification.polygon, classification.report
    payload = {
        "schema": 1,
        "model": bundle.name,
        "omega0": str(w0),
        "perturbation": pname,
        "seed": args.seed,
        "polygon": polygon_to_dict(polygon),
        "valuations": report_to_dict(report)["valuations"],
        "tentacle_directions": directions_to_list(tentacle_directions(polygon)),
        "classification": _classification_dict(classification),
    }
    _emit(_dumps(payload), args.out)
    if args.svg:
        fig = _figure(f"Newton polygon ({bundle.name})", "omega degree", "epsilon order")
        fig.add_points([(p.i, p.j) for p in polygon.points], r=3.0)
        fig.add_line([(p.i, p.j) for p in polygon.vertices])
        _write(_svg_path(args, "polygon.svg"), fig.render())
    return EXIT_OK


def cmd_scan(args) -> int:
    bundle = _load_model(args.model)
    bindings = _bindings_map(bundle, args.bind)
    free = [p for p in bundle.params if p not in bindings]
    if len(free) != 1:
        raise ValueError(
            f"scan needs exactly one unbound parameter as the target; free: {free}"
        )
    target = free[0]
    result = scan_parameter(
        bundle.generator, target, bindings, bundle.rate_params, seed=args.seed
    )
    candidates = []
    for cand in result.candidates:
        entry = {
            "value": str(cand.value),
            "exact": cand.exact,
            "omega0": [str(w) for w in cand.omega0_values],
            "flags": list(cand.flags),
            "classifications": [
                {"omega0": str(w), **_classification_dict(c)}
                for w, c in cand.classifications
            ],
        }
        candidates.append(entry)
    payload = {
        "schema": 1,
        "model": bundle.name,
        "target": target,
        "bindings": {k: str(v) for k, v in result.bindings.items()},
        "continuum": result.continuum,
        "candidates": candidates,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def cmd_amoeba(args) -> int:
    bundle, bindings, bound, pname, w0 = _bound_point(args)
    _require_eigenvalue(bound, w0)
    f = char_poly(bound, _perturbation(bundle, bindings, pname, args.seed), shift=w0)
    cloud = amoeba_sample(
        f,
        modulus_range=(args.eps_min, args.eps_max),
        moduli=args.eps_points,
        phases=args.phases,
    )
    summary = (
        f"amoeba model={bundle.name} perturbation={pname} omega0={w0} "
        f"grid={cloud.moduli}x{cloud.phases} skips={cloud.skips}"
    )
    _emit(_csv(summary, "logeps,logmag", *cloud.points.T), args.out)
    if args.svg:
        fig = _figure(
            f"Amoeba ({bundle.name}, {pname})", "log10 |omega - omega0|", "log10 |epsilon|"
        )
        fig.add_points([(lm, le) for le, lm in cloud.points])
        _write(_svg_path(args, "amoeba.svg"), fig.render())
    return EXIT_OK


def cmd_scale(args) -> int:
    bundle, bindings, bound, pname, w0 = _bound_point(args)
    _require_eigenvalue(bound, w0)
    if not all(0 < e < math.inf for e in (args.eps_min, args.eps_max)):
        # checked before np.geomspace, which warns on inf/nan and rejects 0
        raise ValueError("epsilon values must be finite and positive")
    # a negative count, which np.geomspace rejects, is an empty sweep:
    # scaling_sweep rejects it with the same message as any short sweep
    eps_values = np.geomspace(args.eps_min, args.eps_max, max(args.eps_points, 0))
    l1 = _perturbation(bundle, bindings, pname, args.seed)
    fit = scaling_sweep(bound, l1, w0, eps_values)
    summary = (
        f"scale model={bundle.name} perturbation={pname} omega0={w0} "
        f"slope={fit.slope!r} intercept={fit.intercept!r} r_squared={fit.r_squared!r} "
        f"npoints={fit.npoints}"
    )
    eps, lam, logeps, logmag = map(np.array, zip(*fit.samples))
    columns = (eps, lam.real, lam.imag, logeps, logmag)
    _emit(_csv(summary, "epsilon,re,im,logeps,logmag", *columns), args.out)
    if args.svg:
        pts = [(x, y) for _, _, x, y in fit.samples if y > -math.inf]
        fig = _figure(
            f"Perturbation scaling ({bundle.name}, {pname})",
            "log10 epsilon",
            "log10 |omega - omega0|",
        )
        fig.add_points(pts)
        if pts:
            xs = [p[0] for p in pts]
            fig.add_line(
                [
                    (min(xs), fit.slope * min(xs) + fit.intercept),
                    (max(xs), fit.slope * max(xs) + fit.intercept),
                ]
            )
        _write(_svg_path(args, "scale.svg"), fig.render())
    return EXIT_OK


def cmd_encircle(args) -> int:
    bundle, bindings, bound, pname, _ = _bound_point(args)
    l1 = _perturbation(bundle, bindings, pname, args.seed)
    report = encircle(bound, l1, radius=args.radius, steps=args.steps)
    cyc = ",".join(str(c) for c in report.cycles)
    perm = ",".join(str(p) for p in report.permutation)
    summary = (
        f"encircle model={bundle.name} perturbation={pname} radius={args.radius!r} "
        f"steps={args.steps} cycles=[{cyc}] permutation=[{perm}] "
        f"residual={report.tracking_residual!r} min_gap={report.min_gap!r}"
    )
    trace = np.array(report.trace)
    steps, width = trace.shape
    index = [str(k) for k in range(width)] * steps
    t = np.repeat(report.ts, width)
    _emit(_csv(summary, "t,index,re,im", t, index, trace.real.ravel(), trace.imag.ravel()), args.out)
    if args.svg:
        fig = _figure(f"Eigenvalue loops ({bundle.name}, {pname})", "Re omega", "Im omega")
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        for k, branch in enumerate(trace.T):
            fig.add_line(list(zip(branch.real.tolist(), branch.imag.tolist())), palette[k % len(palette)])
        _write(_svg_path(args, "encircle.svg"), fig.render())
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, omega0=False, perturb=False, eps=False):
    p.add_argument("--model", required=True, help="builtin name (spin_half, qubit) or JSON path")
    p.add_argument("--bind", action="append", metavar="NAME=RATIONAL", default=[])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=42)
    if omega0:
        p.add_argument("--omega0", default=None, help="exact shift, e.g. -1/2")
        p.add_argument(
            "--shift-sign",
            choices=("plus", "minus"),
            default="plus",
            help="minus negates omega0 on input (opposite shift convention)",
        )
    if perturb:
        p.add_argument("--perturb", default="generic", metavar="PARAM|generic")
        p.add_argument("--svg", action="store_true")
    if eps:
        p.add_argument("--eps-min", type=float, default=1e-6)
        p.add_argument("--eps-max", type=float, default=1e-2)
        p.add_argument("--eps-points", type=int, default=25)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville-ep",
        description="Exact Liouvillian exceptional point toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="dump the exact superoperator")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("polygon", help="Newton polygon, valuations, classification")
    _add_common(p, omega0=True, perturb=True)
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("scan", help="resultant scan over one free parameter")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("amoeba", help="sample the amoeba point cloud (CSV)")
    _add_common(p, omega0=True, perturb=True, eps=True)
    p.set_defaults(eps_points=40)
    p.add_argument("--phases", type=int, default=64)
    p.set_defaults(func=cmd_amoeba)

    p = sub.add_parser("scale", help="perturbation scaling sweep (CSV)")
    _add_common(p, omega0=True, perturb=True, eps=True)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("encircle", help="eigenvalue tracking around a loop (CSV)")
    _add_common(p, perturb=True)
    p.add_argument("--radius", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=400)
    p.set_defaults(func=cmd_encircle)
    return parser


def _preprocess(argv: list[str]) -> list[str]:
    # argparse mistakes a leading '-' on a value ("--omega0 -1/2") for a flag;
    # fold such pairs into the --flag=value form it accepts
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--omega0" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_preprocess(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AssertionError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        # a request too large for this host, e.g. encircle --steps 10^11
        print(f"precondition violated: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
