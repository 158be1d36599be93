"""Span recording around calls into the package, from outside it.

The package imports functions by name (``from .poly import det_bareiss``), so
a wrapper has to replace the function in every module namespace that binds
it; ``MultiPoly.exact_div`` is replaced on the class.  The patches are undone
when the ``installed`` block ends, so untraced passes run the plain code.

A span is [name, start, end, parent, op, self_s, attrs]: parent is the index
of the enclosing span (None for a root), op the invocation id, self_s the
duration minus the time covered by child spans, attrs problem sizes read off
the arguments and the result.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "liouville_ep"

def _char_poly_sizes(args, result):
    matrix = getattr(args[0], "matrix", args[0])
    return {"dim": matrix.shape[0], "out_terms": len(result.terms)}


def _resultant_sizes(args, result):
    return {"out_terms": len(result.terms), "out_degree": max(result.degree(), 0)}


def _scan_sizes(args, result):
    return {
        "candidates": len(result.candidates),
        "exact": sum(1 for c in result.candidates if c.exact),
    }


def _amoeba_sizes(args, result):
    grid = result.moduli * result.phases
    return {"grid": grid, "useful": grid - result.skips}


# (module, attribute path, sizes); span names are "<module>.<function>".
TARGETS = (
    ("poly", "det_bareiss", None),
    ("poly", "det_cofactor", None),
    ("poly", "MultiPoly.exact_div", None),
    ("poly", "sylvester_resultant", _resultant_sizes),
    ("poly", "gcd_univariate", None),
    ("expr", "parse_expression", None),
    ("models", "char_poly", _char_poly_sizes),
    ("models", "builtin_model", None),
    ("models", "model_from_dict", None),
    ("newton", "lower_hull", None),
    ("newton", "assert_routes_agree", None),
    ("numerics", "roots_aberth", None),
    ("numerics", "eigenvalues", None),
    ("numerics", "amoeba_sample", _amoeba_sizes),
    ("numerics", "encircle", None),
    ("numerics", "scaling_sweep", None),
    ("scan", "scan_parameter", None),
    ("scan", "solve_candidates", _scan_sizes),
    ("scan", "classify", None),
    ("scan", "geometric_multiplicity", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def _wrap(self, name, fn, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1][0] if stack else None, self.op, 0.0, None]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = {"error": type(exc).__name__}
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2], span[5] = t0, t1, (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if sizes is not None:
                span[6] = sizes(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target in every package namespace that binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        patches = []
        for modname, path, sizes in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{modname}.{attr}", orig, sizes)
            homes = [owner] if cls else modules
            for home in homes:
                for bound in [k for k, v in vars(home).items() if v is orig]:
                    patches.append((home, bound, orig))
                    setattr(home, bound, wrapper)
        try:
            yield
        finally:
            for home, bound, orig in reversed(patches):
                setattr(home, bound, orig)

    def records(self):
        """Spans as [name, start, end, parent, op] rows for the trace file."""
        return [s[:5] + ([s[6]] if s[6] else []) for s in self.spans]


def layer_totals(spans) -> dict[str, float]:
    """Per-span-name totals: .calls, .self_s, .failures and summed sizes."""
    out: dict[str, float] = defaultdict(float)
    for name, _start, _end, _parent, _op, self_s, attrs in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        for key, value in (attrs or {}).items():
            if key == "error":
                out[f"{name}.failures"] += 1
            else:
                out[f"{name}.{key}"] += value
    return out
