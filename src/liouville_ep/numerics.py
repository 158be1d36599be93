"""Floating-point validation layer.

Everything exact lives in poly/newton; this module turns exact predictions
into numerical experiments: polynomial roots (simultaneous Aberth iteration),
eigenvalues of constant matrices (LAPACK via numpy.linalg.eigvals), epsilon
scaling sweeps, adiabatic encircling of a degeneracy, amoeba point clouds, and
tentacle slope fits.

Accuracy note on degenerate spectra: a defective eigenvalue of multiplicity m
is only computable to about eps_machine^(1/m) per root by any backward-stable
dense method, but the centroid of the computed cluster is first-order
accurate.  `eigenvalues` therefore accepts an optional collapse tolerance that
replaces clustered roots by their mean (keeping multiplicity); callers that
track nearly-degenerate but genuinely distinct eigenvalues must leave it off
or pass a tolerance well below the smallest true splitting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .models import EPSILON, OMEGA
from .poly import MultiPoly, PolyMatrix


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its convergence contract."""

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce a constant PolyMatrix / nested list / ndarray to complex ndarray."""
    if isinstance(matrix, PolyMatrix):
        rows = []
        for row in matrix.rows:
            out = []
            for entry in row:
                if not entry.is_constant():
                    raise ValueError(
                        "matrix entry is not constant; substitute parameters first"
                    )
                out.append(complex(entry.constant_value()))
            rows.append(out)
        return np.array(rows, dtype=complex)
    return np.asarray(matrix, dtype=complex)


# -- polynomial roots ----------------------------------------------------------


def _horner_pair(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate p and p' at the points x; coeffs ascending."""
    p = np.full_like(x, coeffs[-1])
    dp = np.zeros_like(x)
    for c in coeffs[-2::-1]:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _eval_scale(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k |c_k| |x|^k, the natural backward-error scale of p at x."""
    ax = np.abs(x)
    s = np.full_like(ax, abs(coeffs[-1]))
    for c in coeffs[-2::-1]:
        s = s * ax + abs(c)
    return s


def roots_aberth(
    coeffs: Sequence[complex],
    max_sweeps: int = 200,
    residual_tol: float = 1e-10,
) -> np.ndarray:
    """All complex roots by simultaneous (Ehrlich-Aberth) iteration.

    `coeffs` is ascending: coeffs[k] multiplies x^k; the leading coefficient
    must be nonzero.  Exact zero low-order coefficients are stripped first and
    contribute exact zero roots (they arise from polynomials with a monomial
    factor and must stay exactly zero).  Convergence contract: every returned
    root r satisfies |p(r)| <= residual_tol * sum_k |c_k||r|^k; otherwise a
    NumericalError carrying the best iterate is raised.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    nz = 0
    while nz < c.size - 1 and c[nz] == 0:
        nz += 1
    zero_roots = np.zeros(nz, dtype=complex)
    c = c[nz:]
    n = c.size - 1
    if n == 0:
        return zero_roots
    if n == 1:
        return np.concatenate([zero_roots, [-c[0] / c[1]]])

    cauchy = 1.0 + np.max(np.abs(c[:-1] / c[-1]))
    k = np.arange(n)
    x = cauchy * np.exp(1j * (2.0 * np.pi * k / n + 0.7))

    # Iterate to the rounding floor rather than stopping at the first pass of
    # the residual bar: a root of multiplicity m converges only linearly and
    # its location error scales like the m-th root of the residual, so early
    # stopping at 1e-10 would leave a quadruple root smeared over ~2e-3.
    floor = 8.0 * np.finfo(float).eps
    prev_worst = np.inf
    stall = 0
    for _ in range(max_sweeps):
        p, dp = _horner_pair(c, x)
        scale = _eval_scale(c, x)
        resid = np.abs(p) / scale
        worst = float(resid.max())
        if worst <= floor:
            break
        if worst <= residual_tol:  # contract met; polish until gains stop
            if worst >= 0.5 * prev_worst:
                stall += 1
                if stall >= 4:
                    break  # no further progress against rounding noise
            else:
                stall = 0
        prev_worst = min(prev_worst, worst)
        at_floor = resid <= floor
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        # nudge colliding iterates apart rather than dividing by zero
        diff = np.where(diff == 0, 1e-12 * (1 + 1j), diff)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        delta = np.where(at_floor, 0.0, w / denom)
        x = x - delta

    p, _ = _horner_pair(c, x)
    scale = _eval_scale(c, x)
    resid = np.abs(p) / scale
    if not np.all(resid <= residual_tol):
        raise NumericalError(
            f"root iteration failed to converge (worst residual {resid.max():.3e})",
            best=np.concatenate([zero_roots, x]),
            residual=float(resid.max()),
        )
    return np.concatenate([zero_roots, x])


# -- eigenvalues ---------------------------------------------------------------


def collapse_clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clustering; members of each cluster replaced by the mean.

    The mean of m computed copies of an m-fold root is far more accurate than
    any individual copy, which scatter at radius ~ noise^(1/m).
    """
    # imported here: scipy.cluster takes tens of ms to import, and only
    # `eigenvalues` with a collapse tolerance (encircle) calls this
    from scipy.cluster.hierarchy import DisjointSet

    vals = np.asarray(values, dtype=complex)
    clusters = DisjointSet(range(vals.size))
    close = np.abs(vals[:, None] - vals[None, :]) <= tol
    for i, j in zip(*np.nonzero(close)):
        clusters.merge(i, j)
    out = vals.copy()
    for members in clusters.subsets():
        if len(members) > 1:
            idx = sorted(members)
            out[idx] = vals[idx].mean()
    return out


def _sorted_complex(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def eigenvalues(matrix, collapse_tol: float | None = None) -> np.ndarray:
    """Eigenvalues of a constant square matrix by LAPACK (backward stable);
    sorted by (re, im)."""
    values = np.linalg.eigvals(as_complex_matrix(matrix))
    if collapse_tol is not None:
        values = collapse_clusters(values, collapse_tol)
    return _sorted_complex(values)


# -- scaling sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log10|omega - omega0| against log10(eps)."""

    slope: float
    intercept: float
    r_squared: float
    samples: tuple[tuple[float, complex], ...]  # (eps, tracked eigenvalue)

    @property
    def npoints(self) -> int:
        return len(self.samples)


def scaling_sweep(
    l0,
    l1,
    omega0: complex,
    eps_values: Sequence[float],
    branch: str | int = "largest",
    cluster_tol: float = 1e-3,
) -> ScalingFit:
    """Track one eigenvalue branch emerging from the degeneracy at omega0.

    The unperturbed matrix must have an eigenvalue cluster at omega0 (within
    cluster_tol); the tracked branch is seeded at the smallest epsilon among
    the cluster's children and continued by nearest-neighbor matching.  The
    default 'largest' selector picks the child farthest from omega0, i.e. the
    most fractional branch.  cluster_tol defaults to 1e-3 because an m-fold
    defective eigenvalue is only locatable to roughly the m-th root of the
    coefficient noise (about 5e-4 for a quadruple point in double precision).
    """
    a0 = as_complex_matrix(l0)
    a1 = as_complex_matrix(l1)
    eps_values = sorted(float(e) for e in eps_values)
    if len(eps_values) < 3:
        raise ValueError("need at least 3 epsilon values")
    if eps_values[0] <= 0:
        raise ValueError("epsilon values must be positive")
    base = eigenvalues(a0)
    cluster_size = int(np.sum(np.abs(base - omega0) <= cluster_tol))
    if cluster_size < 2:
        raise ValueError(
            f"no eigenvalue cluster at omega0={omega0} within {cluster_tol}"
        )
    samples: list[tuple[float, complex]] = []
    tracked = None
    for eps in eps_values:
        eig = eigenvalues(a0 + eps * a1)
        if tracked is None:
            children = eig[np.argsort(np.abs(eig - omega0))][:cluster_size]
            by_dist = children[np.argsort(-np.abs(children - omega0))]
            if branch == "largest":
                tracked = by_dist[0]
            elif branch == "smallest":
                tracked = by_dist[-1]
            elif isinstance(branch, int):
                tracked = by_dist[branch]
            else:
                raise ValueError(f"unknown branch selector {branch!r}")
        else:
            tracked = eig[np.argmin(np.abs(eig - tracked))]
        samples.append((eps, complex(tracked)))
    xs, ys = [], []
    for eps, lam in samples:
        d = abs(lam - omega0)
        if d == 0:
            continue  # exactly invariant eigenvalue carries no scaling signal
        xs.append(math.log10(eps))
        ys.append(math.log10(d))
    if len(xs) < 3:
        raise NumericalError("tracked branch shows no displacement from omega0")
    x = np.array(xs)
    y = np.array(ys)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2, tuple(samples))


# -- encircling -------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationReport:
    """Monodromy of the spectrum along eps = radius * e^(i t), t in [0, 2pi].

    permutation[i] = j: the eigenvalue starting at slot i ends on the
    eigenvalue that started at slot j.  Slots refer to the sorted spectrum at
    t = 0, with degenerate clusters occupying consecutive slots.
    """

    permutation: tuple[int, ...]
    cycles: tuple[int, ...]
    tracking_residual: float
    min_gap: float
    start_eigenvalues: tuple[complex, ...]
    ts: tuple[float, ...] = ()
    trace: tuple[tuple[complex, ...], ...] = ()  # trace[step][slot]


def _cluster_reps(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Group exactly equal (post-collapse) values into (reps, multiplicities)."""
    reps: list[complex] = []
    mults: list[int] = []
    for v in values:  # values sorted; equal entries adjacent
        if reps and v == reps[-1]:
            mults[-1] += 1
        else:
            reps.append(complex(v))
            mults.append(1)
    return np.array(reps, dtype=complex), mults


ENCIRCLE_COLLAPSE_TOL = 1e-4


def encircle(l0, l1, radius: float = 0.01, steps: int = 400) -> PermutationReport:
    """Track all eigenvalues of L0 + radius*e^(it)*L1 around one full loop.

    Exactly coincident eigenvalues (collapsed within ENCIRCLE_COLLAPSE_TOL at
    every step) are tracked as one representative with multiplicity, so persistent
    degeneracies come out as fixed slots rather than arbitrary 2-cycles.
    Raises NumericalError when the matching is ambiguous (residual not below
    half the minimal gap along the path) or the cluster structure changes;
    both are cured by more steps or a smaller radius.
    """
    a0 = as_complex_matrix(l0)
    a1 = as_complex_matrix(l1)
    if steps < 8:
        raise ValueError("need at least 8 steps")
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    init_vals = eigenvalues(a0 + radius * a1, ENCIRCLE_COLLAPSE_TOL)  # t = 0
    reps, mults = _cluster_reps(init_vals)
    start_reps = reps.copy()
    start_mults = list(mults)
    tracking_residual = 0.0
    min_gap = math.inf

    def expand(rs):
        row = []
        for rep, m in zip(rs, mults):
            row.extend([complex(rep)] * m)
        return tuple(row)

    trace = [expand(reps)]
    for t in ts[1:]:
        vals = eigenvalues(a0 + radius * cmath.exp(1j * t) * a1, ENCIRCLE_COLLAPSE_TOL)
        new_reps, new_mults = _cluster_reps(vals)
        if sorted(new_mults) != sorted(start_mults):
            raise NumericalError(
                "degeneracy structure changed along the loop; "
                "increase steps or shrink the radius"
            )
        cost = np.abs(reps[:, None] - new_reps[None, :])
        rows, cols = linear_sum_assignment(cost)
        order = np.empty(len(new_reps), dtype=int)
        order[rows] = cols
        matched = new_reps[order]
        matched_mults = [new_mults[j] for j in order]
        if matched_mults != mults:
            raise NumericalError(
                "eigenvalue multiplicities were exchanged between clusters; "
                "increase steps"
            )
        tracking_residual = max(tracking_residual, float(cost[rows, cols].max()))
        if len(new_reps) > 1:
            d = np.abs(new_reps[:, None] - new_reps[None, :])
            np.fill_diagonal(d, np.inf)
            min_gap = min(min_gap, float(d.min()))
        reps = matched
        trace.append(expand(reps))
    # close the loop: map the continued representatives back onto the start set
    cost = np.abs(reps[:, None] - start_reps[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm_rep = np.empty(len(reps), dtype=int)
    perm_rep[rows] = cols
    tracking_residual = max(tracking_residual, float(cost[rows, cols].max()))
    for i, j in enumerate(perm_rep):
        if start_mults[i] != start_mults[j]:
            raise NumericalError("loop closure mixes clusters of different size")
    if not tracking_residual < min_gap / 2:
        raise NumericalError(
            f"tracking ambiguous: residual {tracking_residual:.3e} is not below "
            f"half the minimal gap {min_gap:.3e}; increase steps",
            residual=tracking_residual,
        )
    # expand cluster slots: cluster i occupies consecutive slots in the sorted
    # start spectrum
    offsets = []
    total = 0
    for m in start_mults:
        offsets.append(total)
        total += m
    perm = [0] * total
    for i, j in enumerate(perm_rep):
        for k in range(start_mults[i]):
            perm[offsets[i] + k] = offsets[j] + k
    seen = [False] * total
    cycles = []
    for i in range(total):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    cycles.sort(reverse=True)
    return PermutationReport(
        tuple(perm),
        tuple(cycles),
        tracking_residual,
        float(min_gap),
        tuple(complex(v) for v in init_vals),
        tuple(float(t) for t in ts),
        tuple(trace),
    )


# -- amoeba sampling ---------------------------------------------------------------


@dataclass(frozen=True)
class AmoebaCloud:
    """Log-log point cloud of the variety f(omega, eps) = 0.

    points[:, 0] = log10|eps|, points[:, 1] = log10|omega| for every root with
    |omega| above the zero cutoff (identically zero roots are excluded from
    the Log-map domain).  Deterministic for a fixed grid.
    """

    points: np.ndarray
    skips: int
    modulus_range: tuple[float, float]
    moduli: int
    phases: int


# Roots at or below this modulus count as identically zero and leave the cloud.
AMOEBA_ZERO_CUTOFF = 1e-14


def amoeba_sample(
    f: MultiPoly,
    modulus_range: tuple[float, float] = (1e-6, 1e-2),
    moduli: int = 40,
    phases: int = 64,
) -> AmoebaCloud:
    """Sample the amoeba of a bivariate polynomial over a log-spaced eps grid."""
    if not f.uses_only([OMEGA, EPSILON]):
        raise ValueError("polynomial has unsubstituted variables besides omega/epsilon")
    lo, hi = modulus_range
    if not (0 < lo < hi):
        raise ValueError("modulus range must satisfy 0 < lo < hi")
    coeff_polys = f.coefficient_list(OMEGA)
    base_assignment = {v: 0.0 + 0.0j for v in f.vars}
    radii = np.geomspace(lo, hi, moduli)
    angles = 2.0 * np.pi * np.arange(phases) / phases
    rows = []
    skips = 0
    for r in radii:
        logeps = math.log10(r)
        for th in angles:
            eps_val = r * cmath.exp(1j * th)
            assignment = dict(base_assignment)
            assignment[EPSILON] = eps_val
            coeffs = [cp.evaluate(assignment) for cp in coeff_polys]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) <= 1:
                skips += 1
                continue
            try:
                roots = roots_aberth(coeffs)
            except NumericalError:
                skips += 1
                continue
            for root in roots:
                mag = abs(root)
                if mag > AMOEBA_ZERO_CUTOFF:
                    rows.append((logeps, math.log10(mag)))
    pts = np.array(rows, dtype=float) if rows else np.empty((0, 2))
    return AmoebaCloud(pts, skips, (float(lo), float(hi)), moduli, phases)


# -- tentacle fitting -----------------------------------------------------------------


@dataclass(frozen=True)
class TentacleFit:
    """Fitted asymptotic slope for one expected tentacle direction.

    Slopes live in the frame x = log10|omega - omega0|, y = log10|eps|; the
    expected slope is the reciprocal of the root valuation (0 = horizontal).
    direction None encodes the vertical tentacle of valuation-0 roots, which
    has support but no finite fitted slope.
    """

    direction: Fraction | None
    fitted_slope: float | None
    intercept: float | None
    support: int


TAIL_DECADES = 1.0
MIN_TAIL_SUPPORT = 3  # tail points needed for a fitted slope


def fit_tentacles(cloud: AmoebaCloud, directions: Sequence) -> list[TentacleFit]:
    """Assign cloud points to expected tentacle directions and fit slopes.

    Works in the frame x = log10|omega|, y = log10|eps|.  `directions` holds
    tentacle slopes as `tentacle_directions` returns them (a Fraction, or an
    int) or None for vertical.  Each direction's intercept is seeded from the
    densest band of the point cloud, refined by a few reassignment rounds, and
    the fit is restricted to the asymptotic tail: the lowest TAIL_DECADES of y
    for sloped/vertical tentacles and of x for horizontal ones (that is where
    each tentacle runs off to -infinity).
    """
    pts = cloud.points
    if pts.shape[0] == 0:
        raise ValueError("empty amoeba cloud")
    y = pts[:, 0]  # log10|eps|
    x = pts[:, 1]  # log10|omega|
    if y.max() - y.min() < 2.0 - 1e-9:
        raise ValueError("amoeba cloud must span at least two decades in |eps|")
    slopes = [None if d is None else Fraction(d) for d in directions]

    def band_values(s: Fraction | None) -> np.ndarray:
        if s is None:
            return x  # vertical: constant log|omega|
        return y - float(s) * x  # sloped: constant intercept

    def densest(values: np.ndarray) -> float:
        width = 0.25
        lo = values.min()
        bins = np.floor((values - lo) / width).astype(int)
        counts = np.bincount(bins)
        best = int(np.argmax(counts))
        center = lo + (best + 0.5) * width
        near = values[np.abs(values - center) <= 2 * width]
        return float(np.median(near))

    intercepts = [densest(band_values(s)) for s in slopes]
    assign = np.zeros(pts.shape[0], dtype=int)
    for _ in range(4):
        dists = []
        for s, c in zip(slopes, intercepts):
            if s is None:
                dists.append(np.abs(x - c))
            else:
                dists.append(np.abs(y - float(s) * x - c) / math.hypot(1.0, float(s)))
        dmat = np.stack(dists, axis=0)
        assign = np.argmin(dmat, axis=0)
        for k, s in enumerate(slopes):
            members = assign == k
            if members.any():
                intercepts[k] = float(np.median(band_values(s)[members]))
    fits: list[TentacleFit] = []
    for k, s in enumerate(slopes):
        members = assign == k
        xk, yk = x[members], y[members]
        if s is not None and s == 0:
            tail = xk <= (xk.min() + TAIL_DECADES) if xk.size else np.zeros(0, bool)
        else:
            tail = yk <= (yk.min() + TAIL_DECADES) if yk.size else np.zeros(0, bool)
        xt, yt = xk[tail], yk[tail]
        support = int(xt.size)
        if support < MIN_TAIL_SUPPORT:
            fits.append(TentacleFit(s, None, None, support))
            continue
        if s is None:
            fits.append(TentacleFit(None, None, float(np.median(xt)), support))
            continue
        if np.ptp(xt) == 0:
            fits.append(TentacleFit(s, None, None, support))
            continue
        slope, intercept = np.polyfit(xt, yt, 1)
        fits.append(TentacleFit(s, float(slope), float(intercept), support))
    return fits
