"""Floating-point validation layer.

Everything exact lives in poly/newton; this module turns exact predictions
into numerical experiments: eigenvalues of constant matrices or stacks of them
(LAPACK via numpy.linalg.eigvals, one call per stack), which also gives the
scan's polynomial roots as companion-matrix eigenvalues (`roots_aberth`),
epsilon scaling sweeps (one stacked eigenvalue call, then each epsilon's
farthest child), adiabatic encircling of a degeneracy (the loop built and
diagonalised in blocks of steps, for a conjugate-symmetric pencil only up to
t = pi, the rest copied from their conjugates; then one batched
nearest-neighbour matching of the whole stack of spectra), amoeba point clouds
(the whole epsilon grid through one batched root routine, `_aberth_roots`:
Aberth-Ehrlich sweeps from tropical starts, the Newton polygon of each grid
point's polynomial in omega; for a real polynomial only the phases up to pi,
the rest copied from their conjugates; each grid point's moduli in ascending
order), and tentacle slope fits, with numpy alone.  Every exact value of the
package becomes a float here, through `_complex_array`, which names in a
ValueError a value that overflows a float or a nonzero one that vanishes as
one.

Accuracy note on degenerate spectra: a defective eigenvalue of multiplicity m
is only computable to about eps_machine^(1/m) per root by any backward-stable
dense method, but the centroid of the computed cluster is first-order
accurate.  `eigenvalues` therefore accepts an optional collapse tolerance that
replaces clustered roots by their mean (keeping multiplicity, one call for a
whole stack); callers that track nearly-degenerate but genuinely distinct
eigenvalues must leave it off or pass a tolerance well below the smallest
true splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .models import EPSILON, OMEGA
from .poly import GaussRational, MultiPoly, PolyMatrix


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its convergence contract."""

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _complex_array(values, what: str) -> np.ndarray:
    """Exact values (GaussRational, Fraction, int) or numbers, alone or in
    nested lists or an ndarray, as a complex ndarray: the package's one
    conversion of exact values.  A value beyond the float range, or a nonzero
    one whose float is 0, is a ValueError naming `what`; a numeric ndarray
    holds floats already and passes unchecked."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return np.asarray(values, dtype=complex)
    exact = np.asarray(values, dtype=object)
    try:
        out = exact.astype(complex)
    except OverflowError:
        raise ValueError(f"{what} overflows a complex float") from None
    held = exact[out == 0].tolist()
    if not all(v.is_zero() if isinstance(v, GaussRational) else v == 0 for v in held):
        raise ValueError(f"{what} vanishes as a complex float")
    return out


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce a constant PolyMatrix / nested list / ndarray to complex ndarray;
    an entry beyond the float range is a ValueError."""
    if isinstance(matrix, PolyMatrix):
        matrix = matrix.constant_rows()
    return _complex_array(matrix, "a matrix entry")


# -- polynomial roots ----------------------------------------------------------


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate p row by row: c is (batch, n+1) ascending, x is (batch, m)."""
    p = np.repeat(c[:, -1:], x.shape[1], axis=1)
    for k in range(c.shape[1] - 2, -1, -1):
        p = p * x + c[:, k : k + 1]
    return p


# Convergence contract of the root finders (see `roots_aberth`).
ROOT_RESIDUAL_TOL = 1e-10

# Rows per block times n^2: bounds each block's (rows, n, n) stack (the
# pairwise differences of `_aberth_roots` or `collapse_clusters`) to about
# 1 MiB whatever the batch size.
_ROOT_BLOCK = 1 << 16

# Bini's angle offset for the tropical starts: no multiple of pi / n, so the
# starts of a real polynomial are not symmetric about the real axis
_START_OFFSET = 0.7

# Aberth-Ehrlich sweeps per row at most; a row still moving then is judged by
# the residual contract as it stands
_MAX_SWEEPS = 60

# 4 ulps: a root is settled once its correction is within this share of |z|,
# or its residual within this share of sum_k |c_k||z|^k
_SETTLED_ULPS = 4 * np.finfo(float).eps


def _worst_residual(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Each row's worst residual max |p(r)| / sum_k |c_k||r|^k, the backward
    error the contract bounds; NaN where a root is not finite."""
    with np.errstate(all="ignore"):
        # hypot gives libm's rounding, as abs() of one complex does
        resid = np.abs(_horner(c, roots)) / _horner(np.hypot(c.real, c.imag), np.abs(roots))
    return resid.max(axis=1)


def _tropical_starts(size: np.ndarray) -> np.ndarray:
    """Starting points for the roots of each row of coefficient moduli `size`
    (batch, n+1), ascending, with nonzero first and last entries (Bini, Numer.
    Algorithms 13, 179, 1996).

    The upper convex hull of the points (k, log size_k), an exact zero at
    -inf, is the row's Newton polygon in one variable: an edge from vertex i
    to vertex j puts j - i starts on the circle of radius (size_i /
    size_j)^(1/(j - i)), evenly spaced and turned by 2 pi j / n plus
    `_START_OFFSET`.  The caller silences numpy's warnings on log 0 and on
    the rows of points off the hull."""
    batch, n = size.shape[0], size.shape[1] - 1
    k = np.arange(n + 1)
    # slope from every point i to every later point j, the columns taking j
    # from n down: only rows i on the hull are read, and those are finite
    span = k[::-1] - k[:, None]
    height = np.log(size)
    slope = height[:, None, ::-1] - height[:, :, None]
    slope[:, span <= 0] = -np.inf
    slope /= np.where(span > 0, span, 1)
    # from a vertex the next one is the steepest later point, the farthest on a tie
    after = n - np.argmax(slope, axis=2)
    rows = np.arange(batch)
    vertex = np.zeros((batch, n + 1), dtype=bool)
    at = np.zeros(batch, dtype=np.intp)
    while True:
        vertex[rows, at] = True
        if (at == n).all():
            break
        at = after[rows, at]
    # slot k lies on the edge from the last vertex at or before k
    first = np.maximum.accumulate(np.where(vertex, k, 0), axis=1)[:, :n]
    last = np.take_along_axis(after, first, axis=1)
    angle = 2 * np.pi * ((k[:n] - first) / (last - first) + last / n) + _START_OFFSET
    return np.exp(1j * angle - slope[rows[:, None], first, n - last])


def _aberth_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of a batch of polynomials of one degree n >= 1.

    `c` has shape (batch, n+1), ascending, with nonzero constant and leading
    coefficients.  Each row starts from its tropical starts and takes
    Aberth-Ehrlich sweeps (Aberth, Math. Comp. 27, 339, 1973),
    z_k <- z_k - p / (p' - p sum_{j != k} 1 / (z_k - z_j)), with p and p'
    from one Horner pass, until each root is settled (its correction within
    `_SETTLED_ULPS` of |z_k|, or its residual at the rounding level of its
    evaluation) or `_MAX_SWEEPS` have run.  A settled row is frozen, so a
    row's roots do not depend on the other rows of the batch.  The rows go
    through in blocks whose (rows, n, n) pairwise tables hold at most
    `_ROOT_BLOCK` entries.  Returns the (batch, n) roots and each row's worst
    residual (`_worst_residual`; NaN where a coefficient or an iterate is not
    finite).
    """
    c = np.asarray(c, dtype=complex)
    batch, n = c.shape[0], c.shape[1] - 1
    rows = max(1, _ROOT_BLOCK // (n * n))
    roots = np.full((batch, n), np.nan, dtype=complex)
    # a row that overflows ends non-finite or misses the residual contract,
    # so numpy's floating-point warnings are only noise here
    with np.errstate(all="ignore"):
        for i in range(0, batch, rows):
            live = i + np.flatnonzero(np.isfinite(c[i : i + rows]).all(axis=1))
            block = c[live]
            size = np.hypot(block.real, block.imag)
            z = _tropical_starts(size)
            size *= _SETTLED_ULPS
            for _ in range(_MAX_SWEEPS):
                if not live.size:
                    break
                # p, p' and a few ulps of sum_k |c_k||z|^k by one Horner pass
                r = np.abs(z)
                dp = block[:, -1:]
                p = dp * z + block[:, -2:-1]
                noise = size[:, -1:] * r + size[:, -2:-1]
                for k in range(n - 2, -1, -1):
                    dp = dp * z + p
                    p = p * z + block[:, k : k + 1]
                    noise = noise * r + size[:, k : k + 1]
                gap = z[:, :, None] - z[:, None, :]
                gap.reshape(-1, n * n)[:, :: n + 1] = np.inf
                # einsum sums each row in one order, whatever the batch
                pull = np.einsum("rkj->rk", np.reciprocal(gap, out=gap))
                step = p / (dp - p * pull)
                z = z - step
                settled = (np.abs(step) <= _SETTLED_ULPS * r) | (np.abs(p) <= noise)
                done = settled.all(axis=1)
                if done.any():
                    roots[live[done]] = z[done]
                    live, block, size, z = live[~done], block[~done], size[~done], z[~done]
            roots[live] = z
    return roots, _worst_residual(c, roots)


def roots_aberth(coeffs: Sequence[complex]) -> np.ndarray:
    """All complex roots, as the eigenvalues of the companion matrix (LAPACK,
    backward stable; Edelman & Murakami 1995).

    `coeffs` is ascending: coeffs[k] multiplies x^k; the leading coefficient
    must be nonzero; exact ones are read through `_complex_array`.  Exact
    zero low-order coefficients are stripped first and contribute exact zero
    roots (they arise from polynomials with a monomial factor and must stay
    exactly zero).  Convergence contract: every returned root r satisfies
    |p(r)| <= ROOT_RESIDUAL_TOL * sum_k |c_k||r|^k; otherwise a
    NumericalError carrying the computed roots is raised (NaN roots where the
    companion matrix overflows).
    """
    c = _complex_array(list(coeffs), "a polynomial coefficient")
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    nz = 0
    while nz < c.size - 1 and c[nz] == 0:
        nz += 1
    zero_roots = np.zeros(nz, dtype=complex)
    if nz == c.size - 1:
        return zero_roots
    c = c[nz:]
    n = c.size - 1
    comp = np.eye(n, k=-1, dtype=complex)
    with np.errstate(all="ignore"):
        # first row -c_{n-1}/c_n, ..., -c_0/c_n (the numpy.roots form): with
        # the coefficients in the last column instead, roots spread over many
        # decades miss the residual contract
        comp[0] = -c[-2::-1] / c[-1]
        finite = np.isfinite(comp[0]).all()
        roots = np.linalg.eigvals(comp) if finite else np.full(n, np.nan, dtype=complex)
    worst = _worst_residual(c[None], roots[None])[0]
    roots = np.concatenate([zero_roots, roots])
    if not worst <= ROOT_RESIDUAL_TOL:
        raise NumericalError(
            f"root computation missed the residual contract (worst residual {worst:.3e})",
            best=roots,
            residual=float(worst),
        )
    return roots


# -- eigenvalues ---------------------------------------------------------------


def collapse_clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clustering of each spectrum of a stack (..., n): members
    of a cluster (a connected component of |v_i - v_j| <= tol, found by
    propagating the least label) are replaced by their mean, which for m
    computed copies of an m-fold root is far more accurate than any one copy.

    Spectra are independent, so the stack is taken in blocks of rows whose
    (rows, n, n) temporaries stay near 1 MiB, as `_aberth_roots` does.
    """
    vals = np.asarray(values, dtype=complex)
    n = vals.shape[-1]
    flat = vals.reshape(-1, n)
    out = np.empty_like(flat)
    rows = max(1, _ROOT_BLOCK // max(1, n * n))
    for i in range(0, flat.shape[0], rows):
        block = flat[i : i + rows]
        close = np.abs(block[:, :, None] - block[:, None, :]) <= tol
        labels = np.broadcast_to(np.arange(n), block.shape)
        while True:
            spread = np.where(close, labels[:, None, :], n).min(axis=-1, initial=n)
            if np.array_equal(spread, labels):
                break
            labels = spread
        same = labels[:, :, None] == labels[:, None, :]
        # members packed first, in index order: a sum ignores where its members sit
        members = np.where(same, block[:, None, :], 0)
        packed = np.take_along_axis(members, np.argsort(~same, axis=-1, kind="stable"), -1)
        size = same.sum(axis=-1)
        out[i : i + rows] = np.where(size > 1, packed.sum(axis=-1) / size, block)
    return out.reshape(vals.shape)


def eigenvalues(matrix, collapse_tol: float | None = None) -> np.ndarray:
    """Eigenvalues of a constant square matrix, or of each matrix of a stack
    (..., n, n), by LAPACK (backward stable); each spectrum sorted by (re, im).

    A stack costs one call: LAPACK still factors each matrix on its own, so
    every spectrum is the one a call on that matrix alone returns.
    """
    values = np.linalg.eigvals(as_complex_matrix(matrix))
    if collapse_tol is not None:
        values = collapse_clusters(values, collapse_tol)
    order = np.lexsort((values.imag, values.real))
    return np.take_along_axis(values, order, axis=-1)


def _pencil_bound(a0: np.ndarray, a1: np.ndarray, eps: float) -> float:
    """||a0||_F + eps ||a1||_F, inf if it overflows: a bound on every entry
    and eigenvalue modulus of a0 + e a1 for |e| <= eps.  The norms are taken
    by hypot, so no square overflows on the way."""
    with np.errstate(over="ignore"):
        f0, f1 = (float(np.hypot.reduce(np.abs(a), axis=None)) for a in (a0, a1))
    return f0 + eps * f1


# -- scaling sweep ---------------------------------------------------------------

# scaling_sweep's relative distance tie, as of a conjugate pair up to rounding
_TIE_RTOL = 1e-8


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log10|omega - omega0| against log10(eps).

    Each sample is (eps, picked eigenvalue, log10 eps, log10|omega -
    omega0|), the last -inf where the eigenvalue sits exactly on omega0; the
    fit skips those samples.
    """

    slope: float
    intercept: float
    r_squared: float
    samples: tuple[tuple[float, complex, float, float], ...]

    @property
    def npoints(self) -> int:
        return len(self.samples)


def scaling_sweep(
    l0,
    l1,
    omega0,
    eps_values: Sequence[float],
    cluster_tol: float = 1e-3,
) -> ScalingFit:
    """Fit the most fractional eigenvalue branch emerging from the degeneracy
    at omega0, an exact value or a number.

    The unperturbed matrix must have a cluster of m eigenvalues at omega0
    (within cluster_tol).  Each epsilon's sample is, on its own spectrum, the
    farthest from omega0 of its m nearest eigenvalues; ties within _TIE_RTOL
    go to the largest imaginary part, then the smallest real part.
    cluster_tol defaults to 1e-3 because an m-fold defective eigenvalue is
    only locatable to roughly the m-th root of the coefficient noise (about
    5e-4 for a quadruple point in double precision).  A sweep whose largest
    epsilon could overflow a matrix or an eigenvalue's distance to omega0
    (checked on the Frobenius norms, before any eigenvalue call) raises
    ValueError naming that epsilon.
    """
    a0 = as_complex_matrix(l0)
    a1 = as_complex_matrix(l1)
    omega0 = _complex_array(omega0, "omega0").item()
    eps_values = sorted(float(e) for e in eps_values)
    if len(set(eps_values)) < 3:
        raise ValueError("need at least 3 distinct epsilon values")
    if not all(0 < e < math.inf for e in eps_values):
        raise ValueError("epsilon values must be finite and positive")
    bound = _pencil_bound(a0, a1, eps_values[-1]) + abs(omega0.real) + abs(omega0.imag)
    if not math.isfinite(bound):
        raise ValueError(f"epsilon {eps_values[-1]!r} overflows the sweep matrices")
    eps_column = np.array(eps_values)[:, None, None]
    spectra = eigenvalues(np.concatenate([a0[None], a0 + eps_column * a1]))
    cluster_size = int(np.sum(np.abs(spectra[0] - omega0) <= cluster_tol))
    if cluster_size < 2:
        raise ValueError(f"no eigenvalue cluster at omega0={omega0} within {cluster_tol}")
    dist = np.abs(spectra[1:] - omega0)
    reach = np.sort(dist, axis=1)[:, cluster_size - 1, None]
    farthest = (dist <= reach) & (dist >= (1 - _TIE_RTOL) * reach)
    pick = np.where(farthest, spectra[1:].imag, -np.inf).argmax(axis=1)
    picked = spectra[np.arange(1, len(spectra)), pick]
    samples: list[tuple[float, complex, float, float]] = []
    for eps, lam in zip(eps_values, picked.tolist()):
        d = abs(lam - omega0)
        samples.append((eps, lam, math.log10(eps), math.log10(d) if d > 0 else -math.inf))
    # an exactly invariant eigenvalue carries no scaling signal
    fitted = [(x, y) for _, _, x, y in samples if y > -math.inf]
    if len(fitted) < 3:
        raise NumericalError("picked branch shows no displacement from omega0")
    x, y = np.array(fitted).T
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
    ts: tuple[float, ...] = ()
    trace: tuple[tuple[complex, ...], ...] = ()  # trace[step][slot]


_SHARED_NEIGHBOUR = "tracking ambiguous: two eigenvalues share a nearest neighbour; increase steps"


def _nearest(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, float]:
    """Match old[i] to its nearest new value new[order[i]]; returns order and
    the largest matched distance.  Within `encircle`'s contract (that distance
    below half the smallest gap) nearest values are unique and this is the
    least-cost matching, so two old values sharing one raise NumericalError."""
    cost = np.abs(old[:, None] - new[None, :])
    order = np.argmin(cost, axis=1)
    if len(set(order.tolist())) < order.size:
        raise NumericalError(_SHARED_NEIGHBOUR)
    return order, float(cost[np.arange(order.size), order].max())


ENCIRCLE_COLLAPSE_TOL = 1e-4


def encircle(l0, l1, radius: float = 0.01, steps: int = 400) -> PermutationReport:
    """Track all eigenvalues of L0 + radius*e^(it)*L1 around one full loop.

    Exactly coincident eigenvalues (collapsed within ENCIRCLE_COLLAPSE_TOL at
    every step) are tracked as one representative with multiplicity, so persistent
    degeneracies come out as fixed slots rather than arbitrary 2-cycles.
    Raises NumericalError when the matching is ambiguous (two eigenvalues
    share a nearest neighbour, or the residual is not below half the minimal
    gap along the path), when the cluster structure changes, or when clusters
    of different multiplicity trade places; all are cured by more steps or a
    smaller radius.  A radius that is not finite and positive encircles
    nothing and raises ValueError, as does one so large that a loop matrix or
    the differences of its eigenvalues could overflow (checked on the Frobenius
    norms, before any matrix is built).

    The loop's matrices are built and diagonalised in blocks of steps, and the
    whole stack of spectra is matched at once: a nearest neighbour does not
    depend on how the previous step's clusters are labelled, so each step's
    sorted clusters are matched to the step before's by one argmin, and the
    tracked slots are the composition of those matchings.  A failure is
    reported at the first step that fails, with the message step-by-step
    tracking gives there.  The distance tables are taken in blocks of steps
    too, so memory stays bounded however long the loop.

    When conj(L0) = P L0 P and conj(L1) = P L1 P for one permutation P, the
    identity (a real pencil) or, for n = d^2, the vec transpose (j, k) <->
    (k, j) (a Hermiticity-preserving Liouvillian, L(rho^dag) = L(rho)^dag, with
    any named perturbation), the pencil at 2pi - t is P conj(pencil at t) P.
    Both checks are exact on the float matrices.  Then only the steps 0 ..
    steps // 2 are diagonalised, and each later step k is the (re, im)-sorted
    conjugate of step steps - k's collapsed spectrum: it differs from LAPACK's
    own spectrum there at rounding level.  Any other pencil, such as one with
    the generic perturbation, is diagonalised at every step.
    """
    a0 = as_complex_matrix(l0)
    a1 = as_complex_matrix(l1)
    if steps < 8:
        raise ValueError("need at least 8 steps")
    if not (0 < radius < math.inf):
        raise ValueError("loop radius must be finite and > 0")
    n = a0.shape[-1]
    # eigenvalues differ by up to twice the bound, and a cluster sums to n times it
    if not math.isfinite(2 * n * _pencil_bound(a0, a1, radius)):
        raise ValueError(f"loop radius {radius!r} overflows the loop matrices")
    # the candidate P of conj(A) = P A P: the identity, and the vec transpose
    d = math.isqrt(n)
    perms = [np.arange(n)]
    if d * d == n:
        perms.append(perms[0].reshape(d, d).T.ravel())
    mirrored = any(all(np.array_equal(a.conj(), a[p][:, p]) for a in (a0, a1)) for p in perms)
    solved = steps // 2 + 1 if mirrored else steps + 1
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    loop = radius * np.exp(1j * ts[:solved])
    rows = max(1, _ROOT_BLOCK // max(1, n * n))

    spectra = np.concatenate(
        [
            eigenvalues(a0 + loop[i : i + rows, None, None] * a1, ENCIRCLE_COLLAPSE_TOL)
            for i in range(0, solved, rows)
        ]
    )
    if mirrored:
        # step k past steps/2 is step steps - k conjugated, sorted again
        tail = spectra[steps - solved :: -1].conj()
        order = np.lexsort((tail.imag, tail.real))
        spectra = np.concatenate([spectra, np.take_along_axis(tail, order, -1)])

    # clusters: runs of equal values in each sorted, collapsed spectrum;
    # steps 0 .. last-1 share the cluster structure of t = 0
    first = np.ones(spectra.shape, dtype=bool)
    first[:, 1:] = spectra[:, 1:] != spectra[:, :-1]
    counts = first.sum(axis=1)
    last = int(np.argmax(counts != counts[0])) or steps + 1
    pos = np.nonzero(first[:last])[1].reshape(last, -1)
    mults = np.diff(pos, axis=1, append=n)
    changed = (np.sort(mults, axis=1) != np.sort(mults[0])).any(axis=1)
    last = int(np.argmax(changed)) or last
    reps, mults = np.take_along_axis(spectra[:last], pos[:last], 1), mults[:last]

    # match step k-1 to step k for every k; under the checks below each
    # matching is a bijection that keeps multiplicities
    m = reps.shape[1]
    nearest = np.empty((last - 1, m), dtype=np.intp)
    moved = np.empty(last - 1)
    gaps = np.empty(last - 1)
    block = max(1, _ROOT_BLOCK // max(1, m * m))
    for i in range(1, last, block):
        j = min(i + block, last)
        new = reps[i:j]
        cost = np.abs(reps[i - 1 : j - 1, :, None] - new[:, None, :])
        nn = cost.argmin(axis=2)
        nearest[i - 1 : j - 1] = nn
        moved[i - 1 : j - 1] = np.take_along_axis(cost, nn[:, :, None], 2).max(axis=(1, 2))
        gap = np.abs(new[:, :, None] - new[:, None, :])
        gap[:, np.arange(m), np.arange(m)] = math.inf  # one cluster: no gap, inf
        gaps[i - 1 : j - 1] = gap.min(axis=(1, 2))
    ranked = np.sort(nearest, axis=1)
    shared = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    exchanged = (np.take_along_axis(mults[1:], nearest, 1) != mults[:-1]).any(axis=1)
    bad = shared | exchanged
    if bad.any():
        if shared[np.argmax(bad)]:
            raise NumericalError(_SHARED_NEIGHBOUR)
        raise NumericalError(
            "eigenvalue multiplicities were exchanged between clusters; increase steps"
        )
    if last <= steps:
        raise NumericalError(
            "degeneracy structure changed along the loop; increase steps or shrink the radius"
        )

    # slots[k] = nearest[k-1][slots[k-1]]: a prefix composition by doubling
    slots = np.concatenate([np.arange(m)[None], nearest])
    span = 1
    while span <= steps:
        slots[span:] = np.take_along_axis(slots[span:], slots[:-span], 1)
        span *= 2
    tracked = np.take_along_axis(reps, slots, 1)
    tracking_residual = float(moved.max())
    min_gap = float(gaps.min())
    # close the loop: map the continued representatives back onto the start set
    perm_rep, residual = _nearest(tracked[-1], reps[0])
    tracking_residual = max(tracking_residual, residual)
    start_mults = mults[0]
    if (start_mults[perm_rep] != start_mults).any():
        raise NumericalError("loop closure mixes clusters of different size")
    if not tracking_residual < min_gap / 2:
        raise NumericalError(
            f"tracking ambiguous: residual {tracking_residual:.3e} is not below "
            f"half the minimal gap {min_gap:.3e}; increase steps",
            residual=tracking_residual,
        )
    # expand cluster slots: cluster i occupies consecutive slots in the sorted
    # start spectrum
    offsets = pos[0].tolist()
    perm = [offsets[j] + k for i, j in enumerate(perm_rep.tolist()) for k in range(start_mults[i])]
    total = len(perm)
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
        min_gap,
        tuple(ts.tolist()),
        tuple(map(tuple, np.repeat(tracked, start_mults, axis=1).tolist())),
    )


# -- amoeba sampling ---------------------------------------------------------------


@dataclass(frozen=True)
class AmoebaCloud:
    """Log-log point cloud of the variety f(omega, eps) = 0.

    points[:, 0] = log10|eps|, points[:, 1] = log10|omega| for every root with
    |omega| above the zero cutoff (identically zero roots are excluded from
    the Log-map domain), grid point by grid point and each grid point's in
    ascending modulus.  Deterministic for a fixed grid.
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
    """Sample the amoeba of a bivariate polynomial over a log-spaced eps grid.

    The omega-coefficients are evaluated over the whole grid at once, grid
    points are grouped by their lowest and highest nonzero coefficient (exact
    zero roots and degree drops are decided on the evaluated coefficients,
    before any root finding), and each group goes through one call of the
    batched root routine `_aberth_roots`.  A grid point whose coefficients
    are all zero, whose polynomial is constant, or whose roots miss the
    convergence contract counts as a skip.
    Points come out grid point by grid point in (modulus, phase) order, and
    within a grid point in ascending modulus.

    When every coefficient of f is real, f(omega, conj eps) = conj f(conj
    omega, eps): the grid points at phases k and P - k have equal root moduli
    and skip alike, so only the phases 0 .. P // 2 are evaluated and solved,
    and each phase past P // 2 is a copy of its mirror's moduli and skip flag.
    A non-real coefficient keeps the whole grid.
    """
    if not f.uses_only([OMEGA, EPSILON]):
        raise ValueError("polynomial has unsubstituted variables besides omega/epsilon")
    lo, hi = modulus_range
    if not (0 < lo < hi < math.inf):
        raise ValueError("modulus range must satisfy 0 < lo < hi < inf")
    if moduli < 1 or phases < 1:
        raise ValueError("the epsilon grid needs at least one modulus and one phase")
    radii = np.geomspace(lo, hi, moduli)
    # the solved phase that stands for each phase of the grid
    mirror = np.arange(phases)
    if not any(c.b for c in f.terms.values()):
        mirror = np.minimum(mirror, phases - mirror)
    solved = int(mirror.max()) + 1
    angles = 2.0 * np.pi * np.arange(solved) / phases
    eps = (radii[:, None] * np.exp(1j * angles)).ravel()
    iw, ie = f.vars.index(OMEGA), f.vars.index(EPSILON)
    degree = max((e[iw] for e in f.terms), default=0)
    terms = sorted(f.terms)  # a fixed summation order: equal f, equal cloud
    values = _complex_array([f.terms[e] for e in terms], "a char-poly coefficient")
    coeffs = np.zeros((eps.size, degree + 1), dtype=complex)
    # a grid point whose coefficients overflow is a skip, counted below
    with np.errstate(all="ignore"):
        eps_powers = [np.ones_like(eps)]
        for _ in range(max((e[ie] for e in f.terms), default=0)):
            eps_powers.append(eps_powers[-1] * eps)
        for e, c in zip(terms, values):
            coeffs[:, e[iw]] += c * eps_powers[e[ie]]

    nonzero = coeffs != 0
    low = np.argmax(nonzero, axis=1)
    top = degree - np.argmax(nonzero[:, ::-1], axis=1)
    solvable = nonzero.any(axis=1) & (top > 0)
    # moduli of the nonzero roots; exact zero roots and skipped points stay 0
    mags = np.zeros((eps.size, degree))
    skipped = ~solvable
    groups = np.unique(np.stack([low, top], axis=1)[solvable & (low < top)], axis=0)
    for a, b in groups:
        rows = np.flatnonzero(solvable & (low == a) & (top == b))
        roots, worst = _aberth_roots(coeffs[rows, a : b + 1])
        ok = worst <= ROOT_RESIDUAL_TOL
        skipped[rows[~ok]] = True
        mags[rows[ok], a:b] = np.hypot(roots[ok].real, roots[ok].imag)
    # ascending within a grid point: one order whatever the sweeps'
    mags.sort(axis=1)
    mags = mags.reshape(moduli, solved, degree)[:, mirror].reshape(moduli * phases, degree)
    skips = int(skipped.reshape(moduli, solved)[:, mirror].sum())

    keep = mags > AMOEBA_ZERO_CUTOFF
    logeps = np.repeat([math.log10(r) for r in radii], phases)
    pts = np.column_stack(
        [np.broadcast_to(logeps[:, None], mags.shape)[keep], np.log10(mags[keep])]
    )
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
