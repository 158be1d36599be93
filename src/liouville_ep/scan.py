"""Exact location and classification of spectral degeneracies.

Pipeline: a one-parameter scan binds every model parameter but the target to
an exact rational and takes the characteristic polynomial q(omega) =
det(L - omega I), a polynomial in omega and the target only.  An eigenvalue is
degenerate exactly where q and q' share a root, so the discriminant
Res_omega(q', q) is one polynomial in the target whose zeros carry every
double point.  From there on every object is univariate, and the scan works
on the dense Gaussian-integer layer of `poly` with q's denominators cleared
once: the discriminant is the subresultant-PRS resultant at integer points of
the target, interpolated exactly.  One helper serves every root: it solves the
square-free part p/gcd(p, p') numerically (a linear part exactly), snaps the
roots back to rationals and certifies each by exact Horner evaluation.  The
scan applies it to the discriminant (a value is exact where the discriminant
vanishes exactly) and then, for the double eigenvalues, to gcd(q, q') at each
exact value, the last nonzero remainder of the same PRS.  It classifies every
degeneracy through the Newton polygon of a seeded generic perturbation,
certified by the point's exact Jordan blocks, which predict that polygon; the
char polys of every point of one classification batch come from one kernel
call, and a seed that fails the certificate is retried with the next one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .models import OMEGA, char_poly, char_polys, perturbation_draws
from .newton import EPReport, NewtonPolygon, assert_routes_agree
from .numerics import NumericalError, roots_aberth
from .poly import (
    GR_ONE,
    GR_ZERO,
    Dense,
    GaussRational,
    MultiPoly,
    PolyMatrix,
    _derivative,
    _inverse_vandermonde,
    _reduced,
    _subresultant_prs,
    _trim,
    horner,
    square_free,
)


# -- exact rank / geometric multiplicity ---------------------------------------


def _rank(work: list[list[GaussRational]]) -> int:
    """Rank of fresh rows of constants, eliminated in place."""
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


def _shifted_rows(matrix: PolyMatrix, eigenvalue: GaussRational) -> list[list[GaussRational]]:
    """M - lambda I of a square matrix of constants, as fresh rows."""
    n, m = matrix.shape
    if n != m:
        raise ValueError("square matrix required")
    lam = GaussRational.coerce(eigenvalue)
    rows = matrix.constant_rows()
    for i in range(n):
        rows[i][i] = rows[i][i] - lam
    return rows


def geometric_multiplicity(matrix: PolyMatrix, eigenvalue: GaussRational) -> int:
    """dim ker(M - lambda I) over the exact constant field."""
    rows = _shifted_rows(matrix, eigenvalue)
    return len(rows) - _rank(rows)


def _jordan_blocks(matrix: PolyMatrix, eigenvalue: GaussRational) -> tuple[int, ...]:
    """Sizes of the Jordan blocks of lambda in M, descending, by exact rank;
    () when lambda is not an eigenvalue.

    The Weyr characteristic: with r_k the rank of A^k, A = M - lambda I and
    r_0 = n, exactly r_(k-1) - r_k blocks have size k or more, and r_k falls
    until k reaches the largest block.  The row space of A^k is the row space
    of A^(k-1) times A, so each step multiplies the basis rows that `_rank`
    leaves on top by A and ranks those; r_1 is the geometric multiplicity's
    rank, so geometric_multiplicity = len(blocks).
    """
    a = _shifted_rows(matrix, eigenvalue)
    work = [row[:] for row in a]
    ranks = [len(a)]
    while (rank := _rank(work)) < ranks[-1]:
        ranks.append(rank)
        if not rank:
            break
        work = [_row_times(row, a) for row in work[:rank]]
    # steps[k - 1] blocks have size k or more: the sizes are its conjugate
    steps = [r - s for r, s in zip(ranks, ranks[1:])]
    return tuple(sum(step > j for step in steps) for j in range(steps[0] if steps else 0))


def _row_times(row: list[GaussRational], a: list[list[GaussRational]]) -> list[GaussRational]:
    """The row vector times the matrix of rows `a`, skipping zero products."""
    out = [GR_ZERO] * len(a[0])
    for x, a_row in zip(row, a):
        if x.is_zero():
            continue
        for c, y in enumerate(a_row):
            if not y.is_zero():
                out[c] = out[c] + x * y
    return out


# -- candidate solving -----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of the polygon + Jordan-structure analysis at one exact point.

    `jordan_blocks` are the sizes of omega0's Jordan blocks, descending;
    `seeds` are the seeds tried, in order, and `polygon` and `report` belong
    to the last of them, the certified one unless no seed was.
    """

    kind: str  # 'ep' | 'diabolic' | 'inconclusive'
    order: int | None
    alg_mult: int
    geom_mult: int
    jordan_blocks: tuple[int, ...]
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


def _exact_roots(p: Dense, factor: GaussRational = GR_ONE) -> list[tuple[GaussRational, bool]]:
    """Roots of a non-constant dense polynomial, each with its exactness.

    The roots of the square-free part are snapped to nearby rationals (a
    linear part is solved exactly); a snapped value is exact when the part
    vanishes there exactly.  Each snapped value is reported once.  Multiple
    roots are the norm at diabolic points, and a floating-point root finder
    only locates an m-fold root to ~eps^(1/m), which would defeat the snap.
    The root finder sees the part scaled to the leading coefficient `factor`,
    as exact Gaussian rationals, so its input does not depend on how p was
    scaled; `roots_aberth` makes them floats, and a coefficient that
    overflows or vanishes as a float is its ValueError.
    """
    part = square_free(p)
    if len(part) == 2:
        return [(GR_ZERO - GaussRational.of(*part[1]) / GaussRational.of(*part[0]), True)]
    # part * factor / lc(part), as Gaussian integers over one integer divisor
    (tr, ti), fa, fb = part[0], factor.a, factor.b
    mr, mi = fa * tr + fb * ti, fb * tr - fa * ti
    norm = factor.d * (tr * tr + ti * ti)
    coeffs = [_reduced(cr * mr - ci * mi, cr * mi + ci * mr, norm) for cr, ci in reversed(part)]
    out: dict[GaussRational, bool] = {}
    for r in roots_aberth(coeffs):
        value = _rationalize(r)
        if value not in out:
            out[value] = horner(part, (value.a, value.b), value.d) == (0, 0)
    return list(out.items())


def _cleared_rows(q: MultiPoly, target: str) -> tuple[list[Dense], int]:
    """D*q, D the lcm of q's denominators, as rows of Gaussian-integer pairs:
    row k is the coefficient of omega^(n-k) as a dense polynomial in the
    target, every row padded to deg_target(q) + 1 entries.  Returns the rows
    and D."""
    n, d = q.degree(OMEGA), max(q.degree(target), 0)
    iw, it = q.vars.index(OMEGA), q.vars.index(target)
    denom = math.lcm(*(c.d for c in q.terms.values()))
    rows = [[(0, 0)] * (d + 1) for _ in range(n + 1)]
    for expo, c in q.terms.items():
        rows[n - expo[iw]][d - expo[it]] = (c.a * (denom // c.d), c.b * (denom // c.d))
    return rows, denom


def _discriminant(rows: list[Dense], denom: int) -> tuple[Dense, int]:
    """Res_omega(q', q) of q = rows/denom (see `_cleared_rows`), as a dense
    polynomial in the target and one integer divisor.

    Collins' evaluation scheme: the resultant of the rows at each integer
    point 0..B of the target, by the subresultant PRS, then exact
    interpolation.  Evaluation commutes with the resultant because q and q'
    lead in omega with constants.  B bounds the degree of det S, S the
    Sylvester matrix of q' and q, as `char_poly_berkowitz` bounds a
    determinant's: the lesser of the sums over the rows and over the columns
    of S of the greatest entry degree.  The resultant of D*q' and D*q
    carries D^(2n-1).
    """
    n = len(rows) - 1
    # the target degree of each omega coefficient, a zero one counting 0
    degs = [next((len(row) - 1 - j for j, c in enumerate(row) if c != (0, 0)), 0) for row in rows]
    sylvester = [[0] * s + degs[:-1] + [0] * (n - 1 - s) for s in range(n)]
    sylvester += [[0] * s + degs + [0] * (n - 2 - s) for s in range(n - 1)]
    bound = min(sum(map(max, sylvester)), sum(map(max, zip(*sylvester))))
    values = []
    for t in range(bound + 1):
        at = [horner(row, (t, 0), 1) for row in rows]
        values.append(_subresultant_prs(_derivative(at), at)[0])
    re, im = [v[0] for v in values], [v[1] for v in values]
    w = _inverse_vandermonde(bound)
    disc = [(sum(map(mul, row, re)), sum(map(mul, row, im))) for row in reversed(w)]
    return _trim(disc), math.factorial(bound) * denom ** (2 * n - 1)


# A snapped value where q and q' have no exact common root is 'approximate'
# when they have roots within VERIFY_TOL of each other, else 'unverified'.
VERIFY_TOL = 1e-8


def solve_candidates(q: MultiPoly, target: str, bindings: Mapping[str, Fraction]) -> ScanResult:
    """Solve the discriminant of a bound char poly for one parameter and verify the roots.

    `q` is det(L - omega I) with every parameter but `target` bound (to
    `bindings`, which the result records); its leading coefficient in omega
    must be a constant.  Denominators are cleared once, and the rest is
    dense Gaussian-integer arithmetic.  The discriminant Res_omega(q', q)
    comes from a subresultant PRS at integer points of the target and exact
    interpolation; vanishing identically, it means a continuum of
    degeneracies (flagged, not an error).  Each root of its square-free part
    is snapped to a nearby rational; since q leads with a constant in
    omega, the discriminant at a value v is Res(q'(., v), q(., v)), so the
    value is exact when the part vanishes there, by Horner in integers.  The
    double eigenvalues of an exact value are back-solved by the same snap
    from gcd(q, q'), the last nonzero remainder of the PRS of q and q' at v;
    one that is not rational flags the candidate 'approximate'.  A value
    that is not exact is kept with an 'approximate' flag when q and q' have
    roots within VERIFY_TOL of each other, or 'unverified' when they do not
    or when that check's coefficients overflow or vanish as floats.
    """
    if not q.uses_only([target, OMEGA]):
        raise ValueError("bindings must fix every parameter except the target")
    deg = q.degree(OMEGA)
    if deg < 2:
        raise ValueError(f"need deg_omega >= 2 for a double eigenvalue, got {deg}")
    rows, denom = _cleared_rows(q, target)
    if any(c != (0, 0) for c in rows[0][:-1]):
        raise ValueError(f"the leading coefficient in omega must not involve {target!r}")
    disc, scale = _discriminant(rows, denom)
    if len(disc) < 2:
        return ScanResult(target, dict(bindings), not disc, ())
    candidates: list[Candidate] = []
    for value, on_disc in _exact_roots(disc, _reduced(*disc[0], scale)):
        num, den = (value.a, value.b), value.d
        # denom * den^deg_target(q) * q(omega, value)
        q_at = [horner(row, num, den) for row in rows]
        if on_disc:
            shifts = _exact_roots(_subresultant_prs(q_at, _derivative(q_at))[1])
            exact = all(ok for _, ok in shifts)
            omega0_values = tuple(w for w, _ in shifts)
            flags = () if exact else ("approximate",)
        else:
            exact = False
            near = _near_common_roots(q_at, denom * den ** (len(rows[0]) - 1))
            omega0_values = tuple(_rationalize(w) for w in near)
            flags = ("approximate",) if near else ("unverified",)
        candidates.append(Candidate(target, value, exact, omega0_values, flags))
    # conjugate roots share a real part up to rounding, so the float order of
    # the roots is not an order of the candidates
    candidates.sort(key=lambda c: (c.value.re, c.value.im))
    return ScanResult(target, dict(bindings), False, tuple(candidates))


def _near_common_roots(q_at: Dense, scale: int) -> list[complex]:
    """Roots of q_at / scale, handed over exactly, within VERIFY_TOL of a root
    of its derivative; none when a coefficient overflows or vanishes as a
    float or the root finder fails, so that only this candidate goes unverified."""

    def coeffs(p: Dense) -> list[GaussRational]:
        return [_reduced(re, im, scale) for re, im in reversed(p)]

    try:
        roots_q = roots_aberth(coeffs(q_at))
        roots_dq = roots_aberth(coeffs(_derivative(q_at)))
    except (ValueError, NumericalError):
        return []
    return [r for r in roots_q if any(abs(r - s) <= VERIFY_TOL for s in roots_dq)]


# -- classification -----------------------------------------------------------------


# the most seeds `classify` tries at one point
CLASSIFY_SEEDS = 3


def classify(bound_matrix: PolyMatrix, omega0: GaussRational, seed: int = 42) -> Classification:
    """Classify an exact degeneracy of a fully bound generator.

    Requires omega0 to be an exact eigenvalue, that is M - omega0 I singular.
    Its Jordan blocks come exactly from the ranks of (M - omega0 I)^k, and
    they predict the Newton polygon of a generic perturbation (Lidskii; Moro,
    Burke & Overton 1997): r blocks of size n give the root valuation 1/n
    with multiplicity n*r, and nothing else vanishes.  The polygon of the
    seeded generic perturbation `seed` is certified when its positive finite
    valuations are that prediction; a seed whose polygon is not, a
    non-generic one, is noted `non-generic-seed` and the next seed is tried,
    up to CLASSIFY_SEEDS seeds, after which the point is inconclusive with
    the note `no-generic-seed`.  The algebraic multiplicity is the sum of
    the blocks and the geometric one their count.  Rules, on the certified
    polygon:

      * EP(n): some root valuation equals 1/n with n >= 2 and the geometric
        multiplicity is below the algebraic one (defective);
      * diabolic: every finite positive valuation equals 1 and the geometric
        multiplicity equals the algebraic one (semisimple linear splitting);
      * anything else: inconclusive.

    This is the one-point case of `_classify_points`.
    """
    return _classify_points([(bound_matrix, omega0)], seed)[0][0]


def _classify_points(
    points: Sequence[tuple[PolyMatrix, GaussRational]],
    seed: int,
    pencils: Sequence[tuple[PolyMatrix, PolyMatrix, GaussRational]] = (),
) -> tuple[list[Classification], list[MultiPoly]]:
    """`classify` at every (bound matrix, omega0) point, in order, and the
    char polys of `pencils`, (l0, perturbation, shift) as `char_polys`
    takes them, in order.

    Every point's Jordan blocks are computed first, in order, so the first
    point that is not an exact eigenvalue raises; then one `char_polys` call
    takes every point's pencil of `seed`, followed by `pencils`, and each
    later seed one call for the points still uncertified.  The matrices must
    share one shape and one variable tuple.
    """
    blocks = []
    for bound_matrix, omega0 in points:
        point_blocks = _jordan_blocks(bound_matrix, omega0)
        if not point_blocks:
            raise ValueError("omega0 is not an exact eigenvalue of the bound generator")
        blocks.append(point_blocks)
    size = points[0][0].shape[0]
    seeds: list[list[int]] = [[] for _ in points]
    notes: list[list[str]] = [[] for _ in points]
    last: list[tuple[NewtonPolygon, EPReport, bool] | None] = [None] * len(points)
    pending = list(range(len(points)))
    named, named_fs = list(pencils), None
    for s in range(seed, seed + CLASSIFY_SEEDS):
        # one batch shares its shape, so the seed's draws serve every point
        draws = perturbation_draws(size, s)
        fs = char_polys([(points[i][0], draws, points[i][1]) for i in pending] + named)
        if named_fs is None:
            named_fs, named = fs[len(pending):], []
        failed = []
        for i, f in zip(pending, fs):
            polygon, report = assert_routes_agree(f)
            certified = [(v, m) for v, m in report.finite() if v > 0] == _lidskii(blocks[i])
            seeds[i].append(s)
            last[i] = (polygon, report, certified)
            if not certified:
                notes[i].append("non-generic-seed")
                failed.append(i)
        pending = failed
        if not pending:
            break
    for i in pending:
        notes[i].append("no-generic-seed")
    classifications = [
        _classification(blocks[i], *last[i], seeds[i], notes[i]) for i in range(len(points))
    ]
    return classifications, named_fs


def _lidskii(blocks: tuple[int, ...]) -> list[tuple[Fraction, int]]:
    """The positive root valuations, ascending with multiplicities, of a
    generic perturbation of an eigenvalue with these Jordan blocks: the r
    blocks of size n give 1/n with multiplicity n*r."""
    sizes = sorted(set(blocks), reverse=True)
    return [(Fraction(1, n), n * blocks.count(n)) for n in sizes]


def _classification(
    blocks: tuple[int, ...],
    polygon: NewtonPolygon,
    report: EPReport,
    certified: bool,
    seeds: list[int],
    notes: list[str],
) -> Classification:
    """Apply `classify`'s rules to one point's polygon, inconclusive unless
    it is certified."""
    alg_mult, geom_mult = sum(blocks), len(blocks)
    positive = [v for v, _ in report.finite() if v > 0]
    order = report.max_order()
    if not certified:
        kind, order = "inconclusive", None
    elif order is not None and geom_mult < alg_mult:
        kind = "ep"
    elif positive and all(v == 1 for v in positive) and geom_mult == alg_mult:
        kind, order = "diabolic", None
    else:
        kind, order = "inconclusive", None
    return Classification(
        kind, order, alg_mult, geom_mult, blocks, report, polygon, tuple(seeds), tuple(notes)
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
    omega0, every such point of the scan through one `_classify_points` call
    and so one batched kernel call; candidates binding a dissipation rate
    (listed in rate_params) to a negative or non-real value are flagged
    nonphysical but never dropped.
    """
    bound_generator = generator.substitute(dict(bindings))
    result = solve_candidates(char_poly(bound_generator), target, bindings)
    negative_binding = any(
        Fraction(bindings[name]) < 0 for name in rate_params if name in bindings
    )
    # every exact candidate's (bound generator, omega0) points, in candidate
    # order, classified through one kernel call
    points = []
    for cand in result.candidates:
        if cand.exact:
            bound = bound_generator.substitute({target: cand.value})
            points.extend((bound, w0) for w0 in cand.omega0_values)
    classified = iter(_classify_points(points, seed)[0] if points else ())
    enriched: list[Candidate] = []
    for cand in result.candidates:
        flags = cand.flags
        if negative_binding or (
            target in rate_params and (cand.value.im != 0 or cand.value.re < 0)
        ):
            flags += ("nonphysical",)
        classifications = ()
        if cand.exact:
            classifications = tuple((w0, next(classified)) for w0 in cand.omega0_values)
        enriched.append(replace(cand, flags=flags, classifications=classifications))
    return replace(result, candidates=tuple(enriched))
