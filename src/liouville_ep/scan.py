"""Exact location and classification of spectral degeneracies.

Pipeline: a one-parameter scan binds every model parameter but the target to
an exact rational and takes the characteristic polynomial q(omega) =
det(L - omega I), a polynomial in omega and the target only.  An eigenvalue is
degenerate exactly where q and q' share a root, so the discriminant
Res_omega(q', q) is one polynomial in the target whose zeros carry every
double point; det of the Sylvester matrix S is the omega^0 coefficient of
det(S - omega I) from the dense kernel that gives every char poly.  One helper
serves every root: it solves the square-free part numerically (a linear
factor exactly), snaps the roots back to rationals and certifies each by exact
evaluation.  The scan applies it to the discriminant (a value is exact where
the discriminant vanishes exactly) and then to gcd(q, q') at each exact value
for the double eigenvalues, and classifies every degeneracy through the Newton
polygon of a seeded generic perturbation plus an exact geometric multiplicity
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .models import OMEGA, generic_perturbation, char_poly
from .newton import (
    EPReport,
    NewtonPolygon,
    assert_routes_agree,
    lower_hull,
    newton_points,
)
from .numerics import NumericalError, roots_aberth
from .poly import (
    GR_ZERO,
    GaussRational,
    MultiPoly,
    PolyMatrix,
    char_poly_berkowitz,
    gcd_univariate,
    sylvester_matrix,
)


# -- exact rank / geometric multiplicity ---------------------------------------


def _constant_rows(matrix: PolyMatrix) -> list[list[GaussRational]]:
    rows = []
    for row in matrix.rows:
        out = []
        for entry in row:
            if not entry.is_constant():
                raise ValueError("matrix entry is not constant; bind parameters first")
            out.append(entry.constant_value())
        rows.append(out)
    return rows


def rank_exact(matrix: PolyMatrix) -> int:
    """Rank of a constant matrix by exact Gaussian elimination."""
    work = _constant_rows(matrix)
    nrows = len(work)
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        for r in range(rank + 1, nrows):
            if work[r][col].is_zero():
                continue
            factor = work[r][col] / inv
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def geometric_multiplicity(matrix: PolyMatrix, eigenvalue: GaussRational) -> int:
    """dim ker(M - lambda I) over the exact constant field."""
    n, m = matrix.shape
    if n != m:
        raise ValueError("square matrix required")
    lam = MultiPoly.constant(matrix.vars, eigenvalue)
    shifted = matrix - PolyMatrix.identity(matrix.vars, n).scale(lam)
    return n - rank_exact(shifted)


# -- candidate solving -----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of the polygon + multiplicity analysis at one exact point."""

    kind: str  # 'ep' | 'diabolic' | 'inconclusive'
    order: int | None
    alg_mult: int
    geom_mult: int
    report: EPReport
    polygon: NewtonPolygon
    seeds: tuple[int, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Candidate:
    """One root of the discriminant, snapped to an exact value."""

    param: str
    value: GaussRational
    exact: bool
    omega0_values: tuple[GaussRational, ...]
    flags: tuple[str, ...]
    classifications: tuple[tuple[GaussRational, Classification], ...] = ()


@dataclass(frozen=True)
class ScanResult:
    param: str
    bindings: dict
    continuum: bool
    candidates: tuple[Candidate, ...]


# Numeric roots snap to the nearest rational with at most this denominator.
MAX_DENOMINATOR = 10**6


def _rationalize(z: complex) -> GaussRational:
    return GaussRational(
        Fraction(z.real).limit_denominator(MAX_DENOMINATOR),
        Fraction(z.imag).limit_denominator(MAX_DENOMINATOR),
    )


def _to_univariate_complex(p: MultiPoly, var: str) -> list[complex]:
    return [complex(c.constant_value()) for c in p.coefficient_list(var)]


def _square_free(p: MultiPoly, var: str) -> MultiPoly:
    """Exact square-free part p / gcd(p, p'), so every root becomes simple.

    Multiple resultant roots are the norm at diabolic points; floating-point
    root finders only locate an m-fold root to ~eps^(1/m), which would defeat
    the rational snap-back.  Dividing out the repeated factors keeps the
    numeric step well conditioned.
    """
    d = p.derivative(var)
    if d.is_zero():
        return p
    g = gcd_univariate(p, d, var)
    if g.degree(var) < 1:
        return p
    return p.exact_div(g)


def _exact_roots_univariate(g: MultiPoly, var: str) -> list[tuple[GaussRational, bool]]:
    """Roots of a non-constant univariate polynomial, each with its exactness.

    The roots of the square-free part are snapped to nearby rationals (a
    linear factor is solved exactly); a snapped value is exact when the
    polynomial vanishes there exactly.  Each snapped value is reported once.
    """
    g = _square_free(g, var)
    coeffs = g.coefficient_list(var)
    if len(coeffs) == 2:
        return [(GR_ZERO - coeffs[0].constant_value() / coeffs[1].constant_value(), True)]
    out: dict[GaussRational, bool] = {}
    for r in roots_aberth(_to_univariate_complex(g, var)):
        value = _rationalize(complex(r))
        if value not in out:
            out[value] = g.substitute({var: value}).is_zero()
    return list(out.items())


# A snapped value where q and q' have no exact common root is 'approximate'
# when they have roots within VERIFY_TOL of each other, else 'unverified'.
VERIFY_TOL = 1e-8


def solve_candidates(q: MultiPoly, target: str, bindings: Mapping[str, Fraction]) -> ScanResult:
    """Solve the discriminant of a bound char poly for one parameter and verify the roots.

    `q` is det(L - omega I) with every parameter but `target` bound (to
    `bindings`, which the result records).  Its discriminant Res_omega(q', q)
    vanishing identically means a continuum of degeneracies (flagged, not an
    error).  Each root is snapped to a nearby rational; since q leads with
    (-1)^n in omega, the discriminant at a value v is Res(q'(., v), q(., v)),
    so the value is exact when the discriminant vanishes there exactly.  The
    double eigenvalues of an exact value are back-solved from gcd(q, q') by
    the same snap; one that is not rational flags the candidate
    'approximate'.  A value that is not exact is kept with an 'approximate'
    flag when q and q' have roots within VERIFY_TOL of each other, or
    'unverified' when they do not.
    """
    if not q.uses_only([target, OMEGA]):
        raise ValueError("bindings must fix every parameter except the target")
    deg = q.degree(OMEGA)
    if deg < 2:
        raise ValueError(f"need deg_omega >= 2 for a double eigenvalue, got {deg}")
    dq = q.derivative(OMEGA)
    disc = char_poly_berkowitz(sylvester_matrix(dq, q, OMEGA), OMEGA).coefficient_list(OMEGA)[0]
    if disc.is_zero():
        return ScanResult(target, dict(bindings), True, ())
    if disc.is_constant():
        return ScanResult(target, dict(bindings), False, ())
    candidates: list[Candidate] = []
    for value, on_disc in _exact_roots_univariate(disc, target):
        q_at = q.substitute({target: value})
        dq_at = dq.substitute({target: value})
        if on_disc:
            shifts = _exact_roots_univariate(gcd_univariate(q_at, dq_at, OMEGA), OMEGA)
            exact = all(ok for _, ok in shifts)
            omega0_values = tuple(w for w, _ in shifts)
            flags = () if exact else ("approximate",)
        else:
            exact = False
            near = _near_common_roots(q_at, dq_at)
            omega0_values = tuple(_rationalize(w) for w in near)
            flags = ("approximate",) if near else ("unverified",)
        candidates.append(Candidate(target, value, exact, omega0_values, flags))
    # conjugate roots share a real part up to rounding, so the float order of
    # the roots is not an order of the candidates
    candidates.sort(key=lambda c: (c.value.re, c.value.im))
    return ScanResult(target, dict(bindings), False, tuple(candidates))


def _near_common_roots(q_at: MultiPoly, dq_at: MultiPoly) -> list[complex]:
    """Roots of q_at within VERIFY_TOL of a root of its derivative dq_at."""
    try:
        roots_q = roots_aberth(_to_univariate_complex(q_at, OMEGA))
        roots_dq = roots_aberth(_to_univariate_complex(dq_at, OMEGA))
    except NumericalError:
        return []
    return [complex(r) for r in roots_q if any(abs(r - s) <= VERIFY_TOL for s in roots_dq)]


# -- classification -----------------------------------------------------------------


CLASSIFY_SEEDS = 3


def classify(bound_matrix: PolyMatrix, omega0: GaussRational, seed: int = 42) -> Classification:
    """Classify an exact degeneracy of a fully bound generator.

    Requires omega0 to be an exact eigenvalue, that is M - omega0 I singular
    (a geometric multiplicity of at least one by exact rank).  The Newton
    polygon of a seeded generic perturbation is recomputed for CLASSIFY_SEEDS
    consecutive seeds from `seed`; disagreement marks the point inconclusive.
    The algebraic multiplicity is the lowest omega-degree of the polygon's
    points on epsilon = 0, the order of omega = 0 as a root of f(omega, 0).
    Rules:

      * EP(n): some root valuation equals 1/n with n >= 2 and the geometric
        multiplicity is below the algebraic one (defective);
      * diabolic: every finite positive valuation equals 1 and the geometric
        multiplicity equals the algebraic one (semisimple linear splitting);
      * anything else: inconclusive.
    """
    n, m = bound_matrix.shape
    if n != m:
        raise ValueError("square matrix required")
    geom_mult = geometric_multiplicity(bound_matrix, omega0)
    if geom_mult == 0:
        raise ValueError("omega0 is not an exact eigenvalue of the bound generator")
    notes: list[str] = []
    polygons = []
    reports = []
    seed_list = tuple(range(seed, seed + CLASSIFY_SEEDS))
    for s in seed_list:
        l1 = generic_perturbation(bound_matrix.vars, n, s)
        f = char_poly(bound_matrix, l1, shift=omega0)
        report = assert_routes_agree(f)
        polygons.append(lower_hull(newton_points(f)))
        reports.append(report)
    signature = {tuple((seg.slope, seg.hspan) for seg in p.segments) for p in polygons}
    agree = len(signature) == 1
    if not agree:
        notes.append("seed-disagreement")
    report = reports[0]
    polygon = polygons[0]
    alg_mult = min(p.i for p in polygon.points if p.j == 0)
    positive = [(v, mult) for v, mult in report.finite() if v > 0]
    vanishing = sum(mult for _, mult in positive)
    inf_mult = sum(mult for v, mult in report.entries if math.isinf(v))
    if vanishing + inf_mult != alg_mult:
        notes.append("perturbation-multiplicity-mismatch")
    order = report.max_order()
    if not agree:
        kind = "inconclusive"
        order = None
    elif order is not None and geom_mult < alg_mult:
        kind = "ep"
    elif positive and all(v == 1 for v, _ in positive) and geom_mult == alg_mult:
        kind = "diabolic"
        order = None
    else:
        kind = "inconclusive"
        order = None
    return Classification(
        kind, order, alg_mult, geom_mult, report, polygon, seed_list, tuple(notes)
    )


def scan_parameter(
    generator: PolyMatrix,
    target: str,
    bindings: Mapping[str, Fraction],
    rate_params: Sequence[str] = (),
    seed: int = 42,
) -> ScanResult:
    """Full scan: bind -> char poly -> discriminant -> candidates -> classification.

    `generator` is the symbolic superoperator matrix; `bindings` fixes every
    model parameter except `target` before the char poly det(L - omega I) is
    taken, so it is a polynomial in omega and the target only.  Candidates
    with exact verification are classified at each back-solved eigenvalue
    omega0; candidates binding a dissipation rate (listed in rate_params) to a
    negative or non-real value are flagged nonphysical but never dropped.
    """
    bound_generator = generator.substitute(dict(bindings))
    result = solve_candidates(char_poly(bound_generator), target, bindings)
    negative_binding = any(
        Fraction(bindings[name]) < 0 for name in rate_params if name in bindings
    )
    enriched: list[Candidate] = []
    for cand in result.candidates:
        flags = cand.flags
        if negative_binding or (
            target in rate_params and (cand.value.im != 0 or cand.value.re < 0)
        ):
            flags += ("nonphysical",)
        classifications = ()
        if cand.exact:
            bound = bound_generator.substitute({target: cand.value})
            classifications = tuple(
                (w0, classify(bound, w0, seed=seed)) for w0 in cand.omega0_values
            )
        enriched.append(replace(cand, flags=flags, classifications=classifications))
    return replace(result, candidates=tuple(enriched))
