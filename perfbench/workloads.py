"""Workload definitions and output checks for the closed-loop benchmark.

Each workload is a fixed list of command-line invocations.  The workload seed
only chooses the ``--seed`` each invocation passes to the command line, from
GENERIC_SEEDS, a list whose every entry was checked to give the frozen outputs
in ``reference.json`` (the generic perturbation and the classification seeds
are generic for all of them).

Outputs are checked three ways:

* exact fields (candidate values, omega0, kind/order, multiplicities,
  valuations, polygon segments) must equal the reference exactly;
* numeric fields are held to the exact predictions with the acceptance-suite
  tolerances: monodromy cycles exactly, scaling slopes within 0.05, amoeba
  tentacle slopes within 0.15, amoeba point counts and skips exactly;
* a scan candidate that the reference has as non-exact may improve
  (unverified -> approximate -> exact), but an exact candidate that is lost or
  changed, or a candidate the reference does not know, is a failure.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
LAMBDA3 = os.path.join(HERE, "models", "lambda3.json")
REFERENCE = os.path.join(HERE, "reference.json")

# Seeds 1..24 all reproduce reference.json on every invocation below.
GENERIC_SEEDS = tuple(range(1, 25))

QUBIT_POINT = ["--bind", "gamma_e=1", "--bind", "gamma_f=0", "--bind", "J=1/4"]
SPIN_POINT = ["--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_x=1",
              "--bind", "gamma_y=2"]
LAMBDA3_POINT = ["--model", LAMBDA3, "--bind", "g1=1", "--bind", "g2=1", "--bind", "O=0",
                 "--omega0", "-1/2"]


@dataclass(frozen=True)
class Invocation:
    key: str  # names the entry in reference.json
    argv: tuple[str, ...]  # without --seed

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _inv(key: str, *argv: str) -> Invocation:
    return Invocation(key, argv)


# Why each workload exists (BENCHMARK.json gives the same reasons):
#  exact-2level        exact layer, symbolic regime: char poly and Sylvester /
#                      Bareiss over every parameter plus omega0 (scan), plus
#                      the two README polygons.  Bind-first moves only this.
#  classify-3level     exact layer, bound bivariate regime, no resultant: a
#                      4-fold diabolic point of the 9x9 lambda3 generator.
#  numeric-validation  the numerics module: amoeba (root route), scale and
#                      encircle (eigenvalue route) on acceptance 4-6 inputs.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "exact-2level": (
        _inv("scan-spin_half-gamma_x", "scan", "--model", "spin_half",
             "--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_y=2"),
        _inv("scan-qubit-gamma_f", "scan", "--model", "qubit",
             "--bind", "gamma_e=1", "--bind", "J=1/4"),
        _inv("scan-qubit-J", "scan", "--model", "qubit",
             "--bind", "gamma_e=1", "--bind", "gamma_f=0"),
        _inv("polygon-qubit-gamma_f", "polygon", "--model", "qubit", *QUBIT_POINT,
             "--omega0", "-1/2", "--perturb", "gamma_f"),
        _inv("polygon-spin_half-generic", "polygon", "--model", "spin_half", *SPIN_POINT,
             "--omega0", "-3"),
    ),
    "classify-3level": (
        _inv("polygon-lambda3-generic", "polygon", *LAMBDA3_POINT),
        _inv("polygon-lambda3-O", "polygon", *LAMBDA3_POINT, "--perturb", "O"),
    ),
    "numeric-validation": (
        _inv("amoeba-qubit-gamma_f", "amoeba", "--model", "qubit", *QUBIT_POINT,
             "--omega0", "-1/2", "--perturb", "gamma_f"),
        _inv("amoeba-qubit-J", "amoeba", "--model", "qubit", *QUBIT_POINT,
             "--omega0", "-1/2", "--perturb", "J", "--eps-min", "1e-4", "--eps-max", "1"),
        _inv("scale-spin_half-generic", "scale", "--model", "spin_half", *SPIN_POINT,
             "--omega0", "-3"),
        _inv("scale-qubit-gamma_f", "scale", "--model", "qubit", *QUBIT_POINT,
             "--omega0", "-1/2", "--perturb", "gamma_f"),
        _inv("scale-qubit-J", "scale", "--model", "qubit", *QUBIT_POINT,
             "--omega0", "-1/2", "--perturb", "J"),
        _inv("encircle-spin_half-generic", "encircle", "--model", "spin_half", *SPIN_POINT),
        _inv("encircle-qubit-gamma_f", "encircle", "--model", "qubit", *QUBIT_POINT,
             "--perturb", "gamma_f"),
        _inv("encircle-qubit-J", "encircle", "--model", "qubit", *QUBIT_POINT,
             "--perturb", "J"),
    ),
}

SUBCOMMANDS = ("scan", "polygon", "amoeba", "scale", "encircle")


def models(workload: str) -> list[str]:
    """The --model arguments of the workload's invocations, each once, in order.

    setup_s imports the CLI and builds these.
    """
    found = (inv.argv[inv.argv.index("--model") + 1] for inv in WORKLOADS[workload])
    return list(dict.fromkeys(found))


def plan(workload: str, seed: int) -> list[tuple[Invocation, list[str]]]:
    """The workload's invocations with the --seed each one gets from `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    return [
        (inv, [*inv.argv, "--seed", str(rng.choice(GENERIC_SEEDS))])
        for inv in WORKLOADS[workload]
    ]


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- views of the exact fields -------------------------------------------------


def classification_view(c: dict) -> dict:
    view = {k: c[k] for k in ("kind", "order", "alg_mult", "geom_mult", "valuations")}
    view["segments"] = c["polygon"]["segments"]
    if "omega0" in c:
        view["omega0"] = c["omega0"]
    return view


def polygon_view(out: dict) -> dict:
    return {
        "omega0": out["omega0"],
        "perturbation": out["perturbation"],
        "segments": out["polygon"]["segments"],
        "valuations": out["valuations"],
        "tentacle_directions": out["tentacle_directions"],
        "classification": classification_view(out["classification"]),
    }


def candidate_view(c: dict) -> dict:
    """Exact fields of a scan candidate; non-exact ones keep their status only."""
    if not c["exact"]:
        status = "approximate" if "approximate" in c["flags"] else "unverified"
        return {"value": c["value"], "exact": False, "status": status}
    return {
        "value": c["value"],
        "exact": True,
        "omega0": c["omega0"],
        "flags": c["flags"],
        "classifications": [classification_view(k) for k in c["classifications"]],
    }


def scan_view(out: dict) -> dict:
    return {
        "continuum": out["continuum"],
        "candidates": [candidate_view(c) for c in out["candidates"]],
    }


# -- checks ----------------------------------------------------------------------

_RANK = {"unverified": 0, "approximate": 1, "exact": 2}


def _status(c: dict) -> str:
    return "exact" if c["exact"] else c["status"]


def _close(a: str, b: str, parse_value) -> bool:
    za, zb = parse_value(a), parse_value(b)
    return abs(za - zb) <= 1e-6 * max(1.0, abs(zb))


def check_scan(got: dict, ref: dict, parse_value) -> str | None:
    if got["continuum"] != ref["continuum"]:
        return f"continuum {got['continuum']} != {ref['continuum']}"
    exact_ref = [c for c in ref["candidates"] if c["exact"]]
    loose_ref = [c for c in ref["candidates"] if not c["exact"]]
    got_c = got["candidates"]
    for c in exact_ref:
        if c not in got_c:
            return f"exact candidate {c['value']} lost or changed"
    for c in got_c:
        if c in exact_ref:
            continue
        match = [r for r in loose_ref if _close(c["value"], r["value"], parse_value)]
        if not match:
            return f"unexpected candidate {c['value']}"
        if _RANK[_status(c)] < _RANK[_status(match[0])]:
            return f"candidate {c['value']} regressed to {_status(c)}"
    for r in loose_ref:
        if not any(_close(c["value"], r["value"], parse_value) for c in got_c):
            return f"candidate {r['value']} ({r['status']}) lost"
    return None


def _csv_header(text: str) -> tuple[dict, list[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing CSV summary line")
    fields = dict(w.split("=", 1) for w in lines[0][2:].split()[1:])
    return fields, lines[2:]


def check_amoeba(text: str, ref: dict, numerics) -> str | None:
    fields, rows = _csv_header(text)
    if fields["grid"] != ref["grid"] or int(fields["skips"]) != ref["skips"]:
        return f"grid/skips {fields['grid']}/{fields['skips']} != {ref['grid']}/{ref['skips']}"
    if len(rows) != ref["points"]:
        return f"{len(rows)} amoeba points, expected {ref['points']}"
    pts = np.array([[float(v) for v in r.split(",")] for r in rows], dtype=float)
    moduli, phases = (int(v) for v in ref["grid"].split("x"))
    cloud = numerics.AmoebaCloud(pts, ref["skips"], tuple(ref["window"]), moduli, phases)
    fits = numerics.fit_tentacles(cloud, [None if d is None else int(d) for d in ref["directions"]])
    for k, slope in ref["slopes"].items():
        fitted = fits[int(k)].fitted_slope
        if fitted is None or abs(fitted - slope) > 0.15:
            return f"tentacle {ref['directions'][int(k)]}: fitted {fitted}, expected {slope}"
    return None


def check_scale(text: str, ref: dict) -> str | None:
    fields, rows = _csv_header(text)
    slope = float(fields["slope"])
    if int(fields["npoints"]) != ref["npoints"] or len(rows) != ref["npoints"]:
        return f"npoints {fields['npoints']}, expected {ref['npoints']}"
    if abs(slope - ref["slope"]) > 0.05:
        return f"slope {slope}, expected {ref['slope']}"
    return None


def check_encircle(text: str, ref: dict) -> str | None:
    fields, rows = _csv_header(text)
    if fields["cycles"] != ref["cycles"]:
        return f"cycles {fields['cycles']}, expected {ref['cycles']}"
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, expected {ref['rows']}"
    return None


def check(inv: Invocation, text: str, reference: dict, lib) -> str | None:
    """None when the output matches the reference, else what is wrong.

    `lib` is the imported package; its parser reads candidate values and its
    tentacle fit is the one the acceptance suite uses.
    """
    ref = reference[inv.key]
    try:
        sub = inv.subcommand
        if sub == "scan":
            return check_scan(scan_view(json.loads(text)), ref, _value_parser(lib))
        if sub == "polygon":
            got = polygon_view(json.loads(text))
            return None if got == ref else f"polygon output differs: {got}"
        if sub == "amoeba":
            return check_amoeba(text, ref, lib.numerics)
        if sub == "scale":
            return check_scale(text, ref)
        return check_encircle(text, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _value_parser(lib):
    def parse(text: str) -> complex:
        return complex(lib.expr.parse_expression(text, ()).constant_value())

    return parse
