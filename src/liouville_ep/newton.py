"""Newton polygons and tropical root data for shifted characteristic polynomials.

Input is a bivariate polynomial f(omega, epsilon) = sum_i c_i(epsilon) omega^i
(ambient variables beyond those two must already be substituted away).  Each
omega-degree i with nonzero c_i contributes the point (i, val(c_i)) where val
is the lowest epsilon-exponent.  The lower-left convex hull of those points
encodes the leading Puiseux behavior of the roots near epsilon = 0:

  * a hull segment of slope -p/q and horizontal span h covers h roots scaling
    like epsilon^(p/q) (valuation p/q = -slope);
  * when the minimal omega-degree is positive, that many roots are identically
    zero for all epsilon; they are reported with valuation infinity and drawn
    as a vertical marker at the left end of the hull.

The tropicalization trop(f)(w) = min_i(val(c_i) + i*w) is computed separately
(direct lower-envelope walk, no hull reuse) so the two routes cross-check each
other: the tropical breakpoints with multiplicities must equal the finite
valuation entries of the polygon report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .models import EPSILON, OMEGA
from .poly import MultiPoly

INF = math.inf


@dataclass(frozen=True)
class NewtonPoint:
    i: int  # omega-degree
    j: int  # lowest epsilon-exponent of the coefficient


@dataclass(frozen=True)
class Segment:
    """One lower-hull segment.  slope None encodes the vertical marker at the
    left end (identically vanishing roots); its hspan is 0 by definition."""

    start: NewtonPoint
    end: NewtonPoint
    slope: Fraction | None

    @property
    def hspan(self) -> int:
        return self.end.i - self.start.i


@dataclass(frozen=True)
class NewtonPolygon:
    points: tuple[NewtonPoint, ...]
    vertices: tuple[NewtonPoint, ...]
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class EPReport:
    """Root valuations with multiplicities, ascending; INF entries last.

    entries: ((valuation, multiplicity), ...) where valuation is a Fraction or
    math.inf.  Multiplicities sum to the omega-degree of the polynomial.
    """

    entries: tuple[tuple[Fraction | float, int], ...]

    def finite(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((v, m) for v, m in self.entries if not math.isinf(v))

    def max_order(self) -> int | None:
        """Largest n >= 2 such that some root valuation equals 1/n."""
        best = None
        for v, _ in self.finite():
            if v > 0 and v.numerator == 1 and v.denominator >= 2:
                n = v.denominator
                best = n if best is None else max(best, n)
        return best


def newton_points(f: MultiPoly) -> list[NewtonPoint]:
    """Support points (omega-degree, epsilon-valuation of coefficient)."""
    if f.is_zero():
        raise ValueError("Newton points of the zero polynomial")
    if not f.uses_only([OMEGA, EPSILON]):
        raise ValueError("polynomial has unsubstituted variables besides omega/epsilon")
    oi = f.vars.index(OMEGA)
    ei = f.vars.index(EPSILON)
    vals: dict[int, int] = {}
    for e in f.terms:
        i, j = e[oi], e[ei]
        if i not in vals or j < vals[i]:
            vals[i] = j
    return [NewtonPoint(i, j) for i, j in sorted(vals.items())]


def _cross(o: NewtonPoint, a: NewtonPoint, b: NewtonPoint) -> int:
    return (a.i - o.i) * (b.j - o.j) - (a.j - o.j) * (b.i - o.i)


def lower_hull(points: Sequence[NewtonPoint]) -> NewtonPolygon:
    """Lower-left convex hull with collinear points merged.

    Finite segment slopes strictly increase left to right.  When the minimal
    omega-degree is positive a vertical marker segment is prepended.
    """
    ordered = tuple(sorted(set(points), key=lambda p: (p.i, p.j)))
    if not ordered:
        raise ValueError("no points")
    by_i: dict[int, NewtonPoint] = {}
    for p in ordered:
        if p.i not in by_i:  # keep lowest j per abscissa
            by_i[p.i] = p
    pts = [by_i[i] for i in sorted(by_i)]
    hull: list[NewtonPoint] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    segments: list[Segment] = []
    leftmost = hull[0]
    if leftmost.i > 0:
        segments.append(Segment(leftmost, leftmost, None))
    for a, b in zip(hull, hull[1:]):
        segments.append(Segment(a, b, Fraction(b.j - a.j, b.i - a.i)))
    return NewtonPolygon(ordered, tuple(hull), tuple(segments))


def ep_orders(polygon: NewtonPolygon) -> EPReport:
    """Valuation/multiplicity table of the root branches near epsilon = 0."""
    entries: list[tuple[Fraction | float, int]] = []
    for seg in polygon.segments:
        if seg.slope is None:
            entries.append((INF, seg.start.i))
        else:
            entries.append((-seg.slope, seg.hspan))
    finite = sorted((e for e in entries if not math.isinf(e[0])), key=lambda e: e[0])
    infinite = [e for e in entries if math.isinf(e[0])]
    return EPReport(tuple(finite + infinite))


def tentacle_directions(polygon: NewtonPolygon) -> list[Fraction | None]:
    """Amoeba tentacle slopes in the (log|omega - omega0|, log|epsilon|) frame.

    A hull segment of slope -p/q (roots ~ epsilon^(p/q)) gives tentacle slope
    q/p; the vertical marker gives a horizontal tentacle (slope 0, identically
    zero roots); a slope-0 hull segment (valuation-0 roots that stay at finite
    distance) gives a vertical tentacle (None).
    """
    out = []
    for seg in polygon.segments:
        if seg.slope is None:
            out.append(Fraction(0))
        elif seg.slope == 0:
            out.append(None)
        else:
            out.append(Fraction(-1, 1) / seg.slope)
    return out


# -- tropical route ------------------------------------------------------------


@dataclass(frozen=True)
class TropicalFunction:
    """Piecewise-linear min of affine forms val + i*w, one per omega-degree."""

    pieces: tuple[tuple[int, int], ...]  # (slope i, offset val(c_i))

    def __call__(self, w: Fraction) -> Fraction:
        return min(off + i * Fraction(w) for i, off in self.pieces)


def tropicalize(f: MultiPoly) -> TropicalFunction:
    pts = newton_points(f)
    return TropicalFunction(tuple((p.i, p.j) for p in pts))


def tropical_roots(tf: TropicalFunction) -> list[tuple[Fraction, int]]:
    """Breakpoints of the tropical function with multiplicities.

    Walks the lower envelope directly: start from the steepest form (active as
    w -> -infinity) and repeatedly find the earliest crossing with a shallower
    form.  Multiplicity at a breakpoint is the drop in active slope.  This is
    intentionally independent of the convex-hull code so the two agree only if
    both are right.  A crossing w = num/den (den > 0) is compared with others
    by cross-multiplication, so only a kept breakpoint becomes a Fraction.
    """
    forms = {}
    for i, off in tf.pieces:
        if i not in forms or off < forms[i]:
            forms[i] = off
    if not forms:
        raise ValueError("empty tropical function")
    active = max(forms)  # steepest slope wins at very negative w
    roots: list[tuple[Fraction, int]] = []
    current: tuple[int, int] | None = None  # the last breakpoint, num/den
    while True:
        best: tuple[int, int] | None = None
        crossing: list[int] = []
        for i, off in forms.items():
            if i >= active:
                continue
            num, den = off - forms[active], active - i
            if current is not None and num * current[1] < current[0] * den:
                continue
            if best is None or num * best[1] < best[0] * den:
                best, crossing = (num, den), [i]
            elif num * best[1] == best[0] * den:
                crossing.append(i)
        if best is None:
            break
        # among forms crossing at the earliest w, the envelope continues with
        # the shallowest; the slope drop is the breakpoint multiplicity
        new_active = min(crossing)
        roots.append((Fraction(*best), active - new_active))
        active = new_active
        current = best
    return roots


def assert_routes_agree(f: MultiPoly) -> tuple[NewtonPolygon, EPReport]:
    """The Newton polygon of f and its report, after asserting that the
    tropical route (which never sees the hull) gives the same valuations."""
    points = newton_points(f)
    polygon = lower_hull(points)
    report = ep_orders(polygon)
    trop = tropical_roots(TropicalFunction(tuple((p.i, p.j) for p in points)))
    finite = [(v, m) for v, m in report.finite()]
    if trop != finite:
        raise AssertionError(f"tropical roots {trop} disagree with polygon report {finite}")
    return polygon, report


# -- serialization --------------------------------------------------------------


def _slope_str(slope: Fraction | None) -> str:
    return "vertical" if slope is None else str(slope)


def polygon_to_dict(polygon: NewtonPolygon) -> dict:
    return {
        "points": [[p.i, p.j] for p in polygon.points],
        "vertices": [[p.i, p.j] for p in polygon.vertices],
        "segments": [
            {
                "slope": _slope_str(s.slope),
                "start": [s.start.i, s.start.j],
                "end": [s.end.i, s.end.j],
                "hspan": s.hspan,
            }
            for s in polygon.segments
        ],
    }


def report_to_dict(report: EPReport) -> dict:
    return {
        "valuations": [
            {"valuation": "inf" if math.isinf(v) else str(v), "multiplicity": m}
            for v, m in report.entries
        ]
    }


def directions_to_list(directions: Sequence[Fraction | None]) -> list[str]:
    return [_slope_str(d) for d in directions]
