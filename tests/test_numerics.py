"""Floating-point layer: root finding, eigenvalues, sweeps, amoebas, fits."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_ep import numerics
from liouville_ep.expr import parse_expression
from liouville_ep.models import (
    builtin_model,
    char_poly,
    generic_perturbation,
    perturbation_matrix,
)
from liouville_ep.numerics import (
    AMOEBA_ZERO_CUTOFF,
    AmoebaCloud,
    NumericalError,
    amoeba_sample,
    as_complex_matrix,
    collapse_clusters,
    eigenvalues,
    encircle,
    fit_tentacles,
    _companion_roots,
    _nearest,
    roots_aberth,
    scaling_sweep,
)
from liouville_ep.poly import GaussRational, MultiPoly, PolyMatrix

BIV = ("omega", "epsilon")


def biv(text):
    return parse_expression(text, BIV)


def jordan_pair(n):
    """Nilpotent shift block and the closing corner entry: x^n - eps."""
    l0 = np.diag(np.ones(n - 1), 1)
    l1 = np.zeros((n, n))
    l1[n - 1][0] = 1.0
    return l0, l1


def bound_pencil(model, perturbation):
    """A built-in model's generator at its README point (the qubit's 4-fold
    EP, the spin_half slice) and a named perturbation or, for an int, the
    generic one of that seed, as float matrices."""
    m = builtin_model(model)
    point = {
        "qubit": {"gamma_e": 1, "gamma_f": 0, "J": Fraction(1, 4)},
        "spin_half": {"Omega": 1, "gamma_minus": 0, "gamma_x": 1, "gamma_y": 2},
    }[model]
    point = {k: Fraction(v) for k, v in point.items()}
    if isinstance(perturbation, int):
        l1 = generic_perturbation(m.variables, m.dim**2, perturbation)
    else:
        l1 = perturbation_matrix(m.generator, perturbation).substitute(point)
    return as_complex_matrix(m.generator.substitute(point)), as_complex_matrix(l1)


NAMED_PENCILS = [("qubit", "gamma_f"), ("qubit", "J"), ("spin_half", "gamma_x")]


class TestRootsAberth:
    def test_simple_roots(self):
        roots = np.sort_complex(roots_aberth([2, -3, 1]))
        assert np.allclose(roots, [1.0, 2.0], atol=1e-12)

    def test_residual_contract(self):
        coeffs = [3 - 1j, 0, 2.5, -1, 1j, 4]
        roots = roots_aberth(coeffs)
        for r in roots:
            p = np.polyval(list(reversed(coeffs)), r)
            scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
            assert abs(p) <= 1e-10 * scale

    def test_quadruple_root_scatter(self):
        # (x + 1/2)^4; an m-fold root is locatable only to ~ noise^(1/m)
        coeffs = [1 / 16, 1 / 2, 3 / 2, 2, 1]
        roots = roots_aberth(coeffs)
        assert np.all(np.abs(roots + 0.5) < 1e-3)
        # the cluster mean cancels the first-order scatter, leaving O(noise^(2/4))
        assert abs(roots.mean() + 0.5) < 1e-6

    def test_exact_zero_stripping(self):
        roots = roots_aberth([0, 0, 1, 1])  # x^2 (x + 1)
        zeros = roots[np.abs(roots) < 1e-15]
        assert len(zeros) == 2
        assert np.all(zeros == 0)
        assert np.any(np.abs(roots + 1.0) < 1e-12)

    def test_constant_has_no_roots(self):
        assert roots_aberth([5.0]).size == 0

    def test_linear(self):
        assert np.allclose(roots_aberth([3, -2]), [1.5])

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            roots_aberth([1.0, 0.0])
        with pytest.raises(ValueError):
            roots_aberth([])

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        # (x + 1/2)^4 meets the contract; a tolerance of zero it cannot
        monkeypatch.setattr(numerics, "ROOT_RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError) as exc:
            roots_aberth([1 / 16, 1 / 2, 3 / 2, 2, 1])
        assert exc.value.best is not None
        assert len(exc.value.best) == 4
        assert np.all(np.abs(exc.value.best + 0.5) < 1e-3)
        assert exc.value.residual > 0.0

    def test_overflowing_coefficients_fail_the_contract(self):
        with pytest.raises(NumericalError) as exc:
            roots_aberth([1.0, 0.0, 1e-320])
        assert len(exc.value.best) == 2

    def test_exact_coefficients(self):
        # exact zeros, whatever their type, are zeros: x^3 - x
        coeffs = [GaussRational.of(0), GaussRational.of(-1), Fraction(0), 1]
        roots = np.sort_complex(roots_aberth(coeffs))
        assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_coefficient_that_vanishes_as_a_float(self):
        with pytest.raises(ValueError, match="^a polynomial coefficient vanishes as a complex float$"):
            roots_aberth([Fraction(1, 10**400), 0, 1])

    def test_wide_range_roots(self):
        # roots over five decades of modulus, on both axes and of both signs
        expected = np.array([10, 100j, -1000, 1e5, 1e6, -1e6, 1e6j])
        coeffs = np.polynomial.polynomial.polyfromroots(expected)
        roots = roots_aberth(coeffs)
        for r in expected:
            assert np.min(np.abs(roots - r)) <= 1e-12 * abs(r)


class TestCompanionKernel:
    @pytest.mark.parametrize("block", [numerics._ROOT_BLOCK, 32], ids=["one-block", "blocks"])
    def test_rows_are_independent(self, monkeypatch, block):
        # a block of 32 entries splits the five quartics into blocks of two rows
        monkeypatch.setattr(numerics, "_ROOT_BLOCK", block)
        batch = np.array(
            [
                [1 / 16, 1 / 2, 3 / 2, 2, 1],  # (x + 1/2)^4
                [24, -50, 35, -10, 1],  # (x - 1)(x - 2)(x - 3)(x - 4)
                [1e-8, 0, 0, 1e4, 1],  # roots of modulus 1e-4 and 1e4
                [3 - 1j, 0, 2.5, -1, 1j],
                [-1, 0, 0, 0, 1],
            ],
            dtype=complex,
        )
        roots, worst = _companion_roots(batch)
        for i in range(batch.shape[0]):
            alone, alone_worst = _companion_roots(batch[i : i + 1])
            assert worst[i] <= 1e-10
            assert np.array_equal(roots[i], alone[0])
            assert worst[i] == alone_worst[0]


class TestEigenvalues:
    def test_triangular_known_spectrum(self):
        # a triangular matrix's spectrum is its diagonal; 40x40 is larger
        # than any built-in generator (a 6-level model is 36x36)
        rng = np.random.default_rng(8)
        n = 40
        a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ours = eigenvalues(a)
        ref = np.diag(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.allclose(ours, ref, rtol=0, atol=1e-10)

    def test_sorted_output(self):
        vals = eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_collapse_tolerance(self):
        a = np.diag([1.0, 1.0 + 1e-9, 5.0])
        vals = eigenvalues(a, collapse_tol=1e-6)
        assert vals[0] == vals[1]
        assert abs(vals[0] - 1.0) < 1e-6

    def test_stack_matches_one_call_per_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        stack[2] = np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0, 4.0, 5.0])
        for tol in (None, 1e-6):
            spectra = eigenvalues(stack, collapse_tol=tol)
            assert spectra.shape == (5, 6)
            for matrix, spectrum in zip(stack, spectra):
                assert np.array_equal(spectrum, eigenvalues(matrix, collapse_tol=tol))

    def test_polymatrix_input(self):
        v = ("x",)
        m = PolyMatrix(
            [
                [MultiPoly.constant(v, GaussRational.of(2)), MultiPoly.zero(v)],
                [MultiPoly.zero(v), MultiPoly.constant(v, GaussRational.of(0, 1))],
            ]
        )
        vals = eigenvalues(m)
        assert np.allclose(vals, [1j, 2.0])

    def test_symbolic_entry_rejected(self):
        v = ("x",)
        m = PolyMatrix([[MultiPoly.variable(v, "x")]])
        with pytest.raises(ValueError):
            as_complex_matrix(m)


class TestFloatBoundary:
    # `_complex_array`, the package's one conversion of exact values

    def test_exact_zeros_pass(self):
        v = ("x",)
        zero = MultiPoly.zero(v)
        m = PolyMatrix([[MultiPoly.constant(v, GaussRational.of(3, -1)), zero], [zero, zero]])
        assert np.array_equal(as_complex_matrix(m), [[3 - 1j, 0], [0, 0]])
        values = [GaussRational.of(0), 0, Fraction(0), 0.0, Fraction(1, 2)]
        assert np.array_equal(numerics._complex_array(values, "a value"), [0, 0, 0, 0, 0.5])

    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 10**400), GaussRational.of(Fraction(-1, 10**400)), GaussRational.of(0, Fraction(1, 10**400))],
        ids=["fraction", "real", "imaginary"],
    )
    def test_nonzero_value_that_vanishes_is_named(self, value):
        with pytest.raises(ValueError, match="^a matrix entry vanishes as a complex float$"):
            as_complex_matrix([[1, value], [0, 1]])
        with pytest.raises(ValueError, match="^omega0 vanishes as a complex float$"):
            numerics._complex_array(value, "omega0")

    def test_numeric_array_passes_through(self):
        # floats already: nothing to check, and a complex array is not copied
        stack = np.zeros((2, 3, 3), dtype=complex)
        stack[1, 0, 1] = 1.0
        assert numerics._complex_array(stack, "a matrix entry") is stack
        floats = np.array([0.0, 5e-324, 0.0])
        assert np.array_equal(numerics._complex_array(floats, "a value"), floats)


class TestCollapseClusters:
    def test_chain_linkage(self):
        vals = collapse_clusters(np.array([0.0, 0.9, 1.8]), 1.0)
        assert np.allclose(vals, [0.9, 0.9, 0.9])

    def test_separated_values_untouched(self):
        vals = collapse_clusters(np.array([0.0, 3.0]), 1.0)
        assert np.allclose(vals, [0.0, 3.0])

    def test_stack_matches_row_by_row(self):
        stack = np.array(
            [
                [1.8, 0.0, 0.9],  # 1.8 reaches 0.0 only through 0.9: two propagation rounds
                [complex(-0.0, -0.0), 3.0 - 0.0j, -7.5 + 2j],  # no cluster
                [0.1 + 0.3j, 0.1 + 0.2j, 5.0],
                [1e-9, -1e-9j, 2e-9 + 1e-9j],
            ]
        )
        collapsed = collapse_clusters(stack, 1.0)
        rows = np.array([collapse_clusters(row, 1.0) for row in stack])
        assert np.array_equal(collapsed, rows)
        assert np.allclose(collapsed[0], 0.9)
        assert collapsed[1].tobytes() == stack[1].tobytes()
        assert np.array_equal(collapse_clusters(stack[None], 1.0)[0], collapsed)

    def test_blocks_match_one_block(self, monkeypatch):
        # 2 x 50 spectra of 5 values around 3 centres, so most rows hold
        # clusters; 7 rows per block splits the stack with a short last block
        rng = np.random.default_rng(7)
        centres = rng.normal(size=(2, 50, 3)) + 1j * rng.normal(size=(2, 50, 3))
        stack = centres[..., [0, 0, 1, 1, 2]] + 1e-3 * rng.normal(size=(2, 50, 5))
        whole = collapse_clusters(stack, 1e-2)
        assert numerics._ROOT_BLOCK // 25 >= 100
        monkeypatch.setattr(numerics, "_ROOT_BLOCK", 7 * 25)
        blocked = collapse_clusters(stack, 1e-2)
        assert blocked.shape == stack.shape
        assert blocked.tobytes() == whole.tobytes()
        assert not np.array_equal(whole, stack)


# distinct lattice points: every gap is at least 1, far above rounding
DISTINCT_POINTS = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=6, unique=True
)


class TestNearestMatching:
    @settings(max_examples=200, deadline=None)
    @given(DISTINCT_POINTS, st.data())
    def test_recovers_the_least_cost_permutation(self, points, data):
        new = np.array([complex(*p) for p in points])
        n = new.size
        perm = data.draw(st.permutations(range(n)))
        gap = min((abs(a - b) for a, b in itertools.combinations(new, 2)), default=1.0)
        moves = data.draw(st.lists(st.tuples(st.floats(0, 0.99), st.floats(0, 2 * math.pi)),
                                   min_size=n, max_size=n))
        old = np.array([new[j] + f * gap / 2 * cmath.exp(1j * t) for j, (f, t) in zip(perm, moves)])
        order, residual = _nearest(old, new)
        assert list(order) == list(perm)
        assert residual < gap / 2
        cost = np.abs(old[:, None] - new[None, :])
        best = min(itertools.permutations(range(n)), key=lambda s: cost[range(n), s].sum())
        assert list(best) == list(perm)

    def test_shared_nearest_neighbour_raises(self):
        with pytest.raises(NumericalError, match="share a nearest neighbour"):
            _nearest(np.array([0.0, 0.1]), np.array([0.05, 5.0]))


class TestScalingSweep:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jordan_block_fractional_slopes(self, n):
        l0, l1 = jordan_pair(n)
        eps = np.geomspace(1e-6, 1e-2, 12)
        fit = scaling_sweep(l0, l1, 0.0, eps, cluster_tol=1e-2)
        assert abs(fit.slope - 1.0 / n) < 1e-3
        assert fit.r_squared > 0.999999
        assert fit.npoints == 12

    def test_tracks_the_farthest_child(self):
        # J_2 block (sqrt branch) next to a decoupled linear branch
        l0 = np.zeros((3, 3))
        l0[0][1] = 1.0
        l1 = np.zeros((3, 3))
        l1[1][0] = 1.0
        l1[2][2] = 1.0
        eps = np.geomspace(1e-8, 1e-4, 10)
        fit = scaling_sweep(l0, l1, 0.0, eps, cluster_tol=1e-3)
        assert abs(fit.slope - 0.5) < 1e-3

    def test_needs_three_points(self):
        l0, l1 = jordan_pair(2)
        with pytest.raises(ValueError):
            scaling_sweep(l0, l1, 0.0, [1e-3, 1e-2])

    def test_positive_epsilon_required(self):
        l0, l1 = jordan_pair(2)
        with pytest.raises(ValueError):
            scaling_sweep(l0, l1, 0.0, [0.0, 1e-3, 1e-2])
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                scaling_sweep(l0, l1, 0.0, [1e-3, 1e-2, bad])

    def test_no_cluster_at_shift(self):
        l0 = np.diag([0.0, 5.0])
        l1 = np.eye(2)
        with pytest.raises(ValueError):
            scaling_sweep(l0, l1, 5.0, [1e-4, 1e-3, 1e-2])

    def test_invariant_branch_has_no_signal(self):
        l0, _ = jordan_pair(2)
        with pytest.raises(NumericalError):
            scaling_sweep(l0, np.zeros((2, 2)), 0.0, [1e-4, 1e-3, 1e-2])

    def test_exact_shift_gives_the_fit_of_its_float(self):
        m = builtin_model("qubit")
        point = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
        l0 = m.generator.substitute(point)
        l1 = perturbation_matrix(m.generator, "gamma_f").substitute(point)
        w0 = GaussRational.of(Fraction(-1, 2))
        eps = np.geomspace(1e-6, 1e-2, 25)
        assert scaling_sweep(l0, l1, w0, eps) == scaling_sweep(l0, l1, complex(w0), eps)

    def test_shift_beyond_the_float_range(self):
        l0, l1 = jordan_pair(2)
        with pytest.raises(ValueError, match="^omega0 overflows a complex float$"):
            scaling_sweep(l0, l1, GaussRational.of(10**400), [1e-4, 1e-3, 1e-2])

    def test_sample_on_the_shift_reads_minus_inf(self):
        # eigenvalues +-sqrt(eps (1 - eps)): at eps = 1 the matrix is
        # triangular, so the picked branch sits exactly on omega0, a sample
        # that the fit skips
        l0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        l1 = np.array([[0.0, -1.0], [1.0, 0.0]])
        fit = scaling_sweep(l0, l1, 0.0, [1e-6, 1e-5, 1e-4, 1.0])
        assert fit.samples[-1] == (1.0, 0j, 0.0, -math.inf)
        for eps, lam, logeps, logmag in fit.samples[:-1]:
            assert abs(lam) == pytest.approx(math.sqrt(eps * (1 - eps)), rel=1e-12)
            assert (logeps, logmag) == (math.log10(eps), math.log10(abs(lam)))
        assert fit.npoints == 4
        assert abs(fit.slope - 0.5) < 1e-4

    @pytest.mark.parametrize("perturbation", ["gamma_f", "J"])
    def test_a_conjugate_pair_gives_its_upper_child(self, perturbation):
        # the qubit's farthest children are conjugate pairs, equidistant up to
        # rounding (2.7e-9 relative at eps = 2.2e-6 on J): the tie goes to the
        # larger imaginary part at every epsilon
        l0, l1 = bound_pencil("qubit", perturbation)
        fit = scaling_sweep(l0, l1, -0.5, np.geomspace(1e-6, 1e-2, 25))
        assert [lam.imag > 0 for _, lam, _, _ in fit.samples] == [True] * 25

    def test_sparse_sweep_keeps_the_square_root_branch(self):
        # `scale` on the qubit's J perturbation with 4 epsilon points: the
        # default 25 points give 0.5006
        l0, l1 = bound_pencil("qubit", "J")
        fit = scaling_sweep(l0, l1, -0.5, np.geomspace(1e-6, 1e-2, 4))
        assert abs(fit.slope - 0.5) < 0.05

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), max_size=3),
        st.lists(st.integers(-3, 3), min_size=25, max_size=25),
        st.lists(st.integers(0, 11), min_size=3, max_size=12, unique=True),
    )
    def test_a_sample_does_not_depend_on_the_rest_of_the_sweep(self, n, others, pert, picks):
        # a Jordan block at omega0 = 0 next to decoupled eigenvalues: each
        # sample of a sweep is the one any sub-sweep holding its epsilon gives
        l0, l1 = jordan_pair(n)
        a0 = np.diag(np.array([0j] * n + [complex(*c) for c in others]))
        a0[:n, :n] += l0
        a1 = np.diag(np.array([0j] * n + pert[n * n : n * n + len(others)]))
        a1[:n, :n] += l1 + np.reshape(pert[: n * n], (n, n)) / 4
        eps = np.geomspace(1e-6, 1e-1, 12)
        whole = {s[0]: s for s in scaling_sweep(a0, a1, 0.0, eps, cluster_tol=1e-2).samples}
        sub = scaling_sweep(a0, a1, 0.0, eps[sorted(picks)], cluster_tol=1e-2)
        for sample in sub.samples:
            assert sample == whole[sample[0]]


class TestEncircle:
    def test_square_root_branch_swaps(self):
        l0, l1 = jordan_pair(2)
        report = encircle(l0, l1, radius=0.01, steps=64)
        assert report.cycles == (2,)
        assert report.permutation == (1, 0)
        assert report.tracking_residual < report.min_gap / 2
        assert len(report.ts) == 65
        assert len(report.trace) == 65
        assert all(len(row) == 2 for row in report.trace)

    def test_decoupled_branches_stay_fixed(self):
        l0 = np.diag([0.0, 5.0])
        l1 = np.diag([1.0, 2.0])
        report = encircle(l0, l1, radius=0.01, steps=32)
        assert report.cycles == (1, 1)
        assert report.permutation == (0, 1)

    def test_cube_root_cycle(self):
        l0, l1 = jordan_pair(3)
        report = encircle(l0, l1, radius=0.001, steps=96)
        assert report.cycles == (3,)

    def test_step_floor(self):
        l0, l1 = jordan_pair(2)
        with pytest.raises(ValueError):
            encircle(l0, l1, steps=4)

    def test_structure_change_fails_the_loop(self):
        # eigenvalues 0 and 0.01 - eps: one double cluster at t = 0 only
        with pytest.raises(NumericalError, match="degeneracy structure changed"):
            encircle(np.diag([0.0, 0.01]), np.diag([0.0, -1.0]), radius=0.01, steps=8)

    def test_exchanged_multiplicities_fail_the_loop(self):
        # a double eigenvalue a + eps and a single -eps: with a = -r(1 + e^(i pi/4))
        # the first step puts each one where the other started
        a = -0.01 * (1 + cmath.exp(1j * math.pi / 4))
        with pytest.raises(NumericalError, match="multiplicities were exchanged"):
            encircle(np.diag([a, a, 0]), np.diag([1.0, 1.0, -1.0]), radius=0.01, steps=8)

    def test_closure_that_mixes_cluster_sizes_fails(self, monkeypatch):
        # A pencil's spectrum returns to itself, so no pencil ends its loop on
        # a different cluster structure; hand-built spectra do: a double
        # cluster and a single trade places along two half circles.
        half = np.exp(1j * np.pi * np.arange(9) / 8)
        double, single = 0.5 - 0.5 * half, 0.5 + 0.5 * half
        stack = np.sort_complex(np.stack([double, double, single], axis=1))
        served = []

        def spectra(matrices, collapse_tol=None):
            done = sum(served)
            served.append(len(matrices))
            return stack[done : done + len(matrices)]

        monkeypatch.setattr(numerics, "eigenvalues", spectra)
        # one non-real entry: no conjugate symmetry, so every step is served
        l1 = np.zeros((3, 3), dtype=complex)
        l1[0][1] = 1j
        with pytest.raises(NumericalError, match="loop closure mixes clusters"):
            encircle(np.zeros((3, 3)), l1, radius=1.0, steps=8)
        assert sum(served) == 9

    @pytest.mark.parametrize("pencil", NAMED_PENCILS, ids="-".join)
    def test_mirrored_steps_match_lapack_spectra(self, pencil):
        # a Hermiticity-preserving pencil: the steps past pi are conjugate
        # copies, within rounding of the spectra LAPACK gives there
        l0, l1 = bound_pencil(*pencil)
        report = encircle(l0, l1, radius=0.01, steps=400)
        full = encircle_by_steps(l0, l1, 0.01, 400, mirror=False)
        assert (report.cycles, report.permutation) == (full.cycles, full.permutation)
        assert report.trace[:201] == full.trace[:201]
        assert np.abs(np.array(report.trace) - np.array(full.trace)).max() <= 1e-12

    def test_blocks_of_steps_change_nothing(self, monkeypatch):
        l0 = np.diag([0.0, 0.0, 1.0, 0.0])
        l0[0][1] = 1.0
        l1 = np.ones((4, 4)) - np.eye(4)
        whole = encircle(l0, l1, radius=0.01, steps=50)
        # 40 entries: blocks of two steps, of 4x4 matrices and of 4x4 distance tables
        monkeypatch.setattr(numerics, "_ROOT_BLOCK", 40)
        assert encircle(l0, l1, radius=0.01, steps=50) == whole

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                st.lists(st.sampled_from([0, 1]), min_size=n * n, max_size=n * n),
                st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n),
            )
        ),
        st.sampled_from([0.001, 0.01, 0.1, 0.5, 1.0]),
        st.integers(8, 24),
    )
    def test_matches_the_step_by_step_loop(self, pencil, radius, steps):
        # repeated diagonal entries and nilpotent couplings give persistent
        # and splitting degeneracies, and every failure of the matching
        diag, upper, pert = pencil
        n = len(diag)
        l0 = np.triu(np.array(upper, dtype=float).reshape(n, n), 1) + np.diag(diag)
        l1 = np.array(pert, dtype=float).reshape(n, n)
        assert_tracks_like_steps(l0, l1, radius, steps)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
                           st.integers(-9, 9)), min_size=2, max_size=5),
        st.integers(8, 24),
    )
    def test_close_clusters_match_the_step_by_step_loop(self, entries, steps):
        # a double eigenvalue among others within a few collapse tolerances,
        # all moving on circles of about that size: clusters merge, split and
        # trade places, so every per-step failure shows up
        c = np.array([complex(a, b) for a, b, _, _ in entries]) * 2e-5
        d = np.array([complex(a, b) for _, _, a, b in entries]) * 2e-5
        c[-1] = c[0]
        assert_tracks_like_steps(np.diag(c), np.diag(d), 1.0, steps)


def assert_tracks_like_steps(l0, l1, radius, steps):
    """encircle gives the oracle's report, or fails with its message."""
    try:
        expected = encircle_by_steps(l0, l1, radius, steps)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as got:
            encircle(l0, l1, radius=radius, steps=steps)
        assert str(got.value) == str(exc)
    else:
        assert encircle(l0, l1, radius=radius, steps=steps) == expected


def conjugate_symmetric(a0, a1):
    """Whether conj(a)[j][k] == a[p(j)][p(k)] for a = a0 and a = a1, entry by
    entry, with p the identity or, for n = d^2, the vec transpose
    j*d + k <-> k*d + j."""
    n = len(a0)
    d = math.isqrt(n)
    swaps = [lambda i: i]
    if d * d == n:
        swaps.append(lambda i: (i % d) * d + i // d)
    return any(
        all(a[j][k].conjugate() == a[p(j)][p(k)] for a in (a0, a1)
            for j, k in itertools.product(range(n), repeat=2))
        for p in swaps
    )


def encircle_by_steps(l0, l1, radius, steps, mirror=True):
    """The per-step tracking loop `encircle` once ran, kept as its oracle:
    clusters of each step are matched to the tracked ones of the step before.

    With `mirror` and a conjugate-symmetric pencil, each step k past steps/2
    takes the sorted conjugate of step steps - k's spectrum, as `encircle`
    does; without it every step is LAPACK's own spectrum."""
    a0, a1 = np.asarray(l0, dtype=complex), np.asarray(l1, dtype=complex)
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    loop = (radius * np.exp(1j * ts))[:, None, None]
    spectra = eigenvalues(a0 + loop * a1, numerics.ENCIRCLE_COLLAPSE_TOL)
    if mirror and conjugate_symmetric(a0, a1):
        for k in range(steps // 2 + 1, steps + 1):
            spectra[k] = np.sort_complex(spectra[steps - k].conj())

    def clusters(values):
        reps, mults = [], []
        for v in values:
            if reps and v == reps[-1]:
                mults[-1] += 1
            else:
                reps.append(complex(v))
                mults.append(1)
        return np.array(reps), mults

    reps, mults = clusters(spectra[0])
    start_reps = reps

    def expand(rs):
        return tuple(complex(r) for r, m in zip(rs, mults) for _ in range(m))

    residual, min_gap = 0.0, math.inf
    trace = [expand(reps)]
    for vals in spectra[1:]:
        new_reps, new_mults = clusters(vals)
        if sorted(new_mults) != sorted(mults):
            raise NumericalError(
                "degeneracy structure changed along the loop; increase steps or shrink the radius"
            )
        order, moved = _nearest(reps, new_reps)
        if [new_mults[j] for j in order] != mults:
            raise NumericalError(
                "eigenvalue multiplicities were exchanged between clusters; increase steps"
            )
        residual = max(residual, moved)
        if len(new_reps) > 1:
            d = np.abs(new_reps[:, None] - new_reps[None, :])
            np.fill_diagonal(d, np.inf)
            min_gap = min(min_gap, float(d.min()))
        reps = new_reps[order]
        trace.append(expand(reps))
    perm_rep, moved = _nearest(reps, start_reps)
    residual = max(residual, moved)
    if any(mults[i] != mults[j] for i, j in enumerate(perm_rep)):
        raise NumericalError("loop closure mixes clusters of different size")
    if not residual < min_gap / 2:
        raise NumericalError(
            f"tracking ambiguous: residual {residual:.3e} is not below "
            f"half the minimal gap {min_gap:.3e}; increase steps"
        )
    offsets = [sum(mults[:i]) for i in range(len(mults))]
    perm = [offsets[j] + k for i, j in enumerate(perm_rep) for k in range(mults[i])]
    cycles, seen = [], [False] * len(perm)
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            cycles.append(length)
    cycles.sort(reverse=True)
    return numerics.PermutationReport(
        tuple(perm), tuple(cycles), residual, float(min_gap),
        tuple(float(t) for t in ts), tuple(trace),
    )


def assert_matches_per_point_oracle(f, window, moduli, phases):
    """amoeba_sample against one `roots_aberth` call per grid point over the
    whole grid, with each grid point's moduli in ascending order."""
    coeff_polys = f.coefficient_list("omega")
    rows, skips = [], 0
    for r in np.geomspace(*window, moduli):
        for th in 2.0 * np.pi * np.arange(phases) / phases:
            eps = r * cmath.exp(1j * th)
            coeffs = [cp.evaluate({"omega": 0, "epsilon": eps}) for cp in coeff_polys]
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
            mags = sorted(abs(z) for z in roots if abs(z) > AMOEBA_ZERO_CUTOFF)
            rows.extend((math.log10(r), math.log10(m)) for m in mags)
    expected = np.array(rows).reshape(-1, 2)
    cloud = amoeba_sample(f, window, moduli, phases)
    assert cloud.skips == skips
    assert cloud.points.shape == expected.shape
    assert np.array_equal(cloud.points[:, 0], expected[:, 0])
    assert np.allclose(cloud.points, expected, rtol=0, atol=1e-12)


class TestAmoebaSample:
    def test_square_root_amoeba_line(self):
        cloud = amoeba_sample(biv("omega^2 - epsilon"), (1e-6, 1e-2), moduli=10, phases=8)
        assert cloud.skips == 0
        assert cloud.points.shape == (160, 2)
        assert np.allclose(cloud.points[:, 1], 0.5 * cloud.points[:, 0], atol=1e-9)

    def test_identically_zero_roots_excluded(self):
        cloud = amoeba_sample(biv("omega^3 - omega^2"), (1e-4, 1e-2), moduli=5, phases=4)
        # cubic with a double zero root: only the root at 1 enters the log map
        assert cloud.points.shape == (20, 2)
        assert np.allclose(cloud.points[:, 1], 0.0, atol=1e-12)

    def test_coefficient_beyond_the_float_range(self):
        f = biv("omega^2 - epsilon").scale(GaussRational.of(10**400))
        with pytest.raises(ValueError, match="^a char-poly coefficient overflows a complex float$"):
            amoeba_sample(f, (1e-4, 1e-2), moduli=3, phases=4)

    def test_coefficient_that_vanishes_as_a_float(self):
        f = biv("omega^2 - epsilon").scale(GaussRational.of(Fraction(1, 10**400)))
        with pytest.raises(ValueError, match="^a char-poly coefficient vanishes as a complex float$"):
            amoeba_sample(f, (1e-4, 1e-2), moduli=3, phases=4)

    def test_degenerate_samples_counted_as_skips(self):
        cloud = amoeba_sample(biv("epsilon"), (1e-4, 1e-2), moduli=3, phases=4)
        assert cloud.points.shape[0] == 0
        assert cloud.skips == 12

    def test_batched_matches_per_point_oracle(self):
        # the leading omega-coefficient epsilon - 1/100 is exactly zero at
        # the top modulus for phase 0 (geomspace endpoints are exact), so that
        # grid point drops a degree; the omega factor gives every grid point
        # an exact zero root to strip.  f is real, so the phases past 8 are
        # mirrored from their conjugates
        f = biv("omega * ((epsilon - 1/100) * omega^3 + omega^2 - epsilon)")
        assert f.coefficient_list("omega")[-1].evaluate({"omega": 0, "epsilon": 1e-2}) == 0
        assert_matches_per_point_oracle(f, (1e-4, 1e-2), 12, 16)

    @pytest.mark.parametrize("phases", [1, 2, 7])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("omega * ((epsilon - 1/100) * omega^3 + omega^2 - epsilon)", id="real"),
            pytest.param("omega * ((epsilon - 1/100) * omega^3 + omega^2 - i*epsilon)",
                         id="non-real"),
        ],
    )
    def test_phase_counts_match_per_point_oracle(self, text, phases):
        assert_matches_per_point_oracle(biv(text), (1e-4, 1e-2), 12, phases)

    def test_term_order_does_not_move_the_cloud(self):
        # two equal polynomials whose terms were inserted in opposite orders
        # (qubit 4-fold point, gamma_f perturbation) give the same cloud bit
        # for bit
        m = builtin_model("qubit")
        bindings = {"gamma_e": 1, "gamma_f": 0, "J": Fraction(1, 4)}
        bound = m.generator.substitute(bindings)
        l1 = perturbation_matrix(m.generator, "gamma_f").substitute(bindings)
        f = char_poly(bound, l1, shift=Fraction(-1, 2))
        flipped = MultiPoly(f.vars, dict(reversed(f.terms.items())))
        assert flipped == f and list(flipped.terms) != list(f.terms)
        a, b = amoeba_sample(f), amoeba_sample(flipped)
        assert a.skips == b.skips
        assert a.points.shape == b.points.shape
        assert a.points.tobytes() == b.points.tobytes()

    def test_modulus_range_validation(self):
        with pytest.raises(ValueError):
            amoeba_sample(biv("omega - epsilon"), (1e-2, 1e-6))
        with pytest.raises(ValueError):
            amoeba_sample(biv("omega - epsilon"), (0.0, 1e-2))
        with pytest.raises(ValueError):
            amoeba_sample(biv("omega - epsilon"), (1e-6, math.inf))
        with pytest.raises(ValueError):
            amoeba_sample(biv("omega - epsilon"), moduli=0)
        with pytest.raises(ValueError):
            amoeba_sample(biv("omega - epsilon"), phases=0)

    def test_leftover_variables_rejected(self):
        f = parse_expression("omega - x", ("omega", "epsilon", "x"))
        with pytest.raises(ValueError):
            amoeba_sample(f)


class TestNoPerPointLoops:
    """The batched routes make a bounded number of kernel calls, not one per
    grid point or loop step."""

    @staticmethod
    def qubit_f(perturbation):
        point = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
        model = builtin_model("qubit")
        bound = model.generator.substitute(point)
        if perturbation == "generic":
            pert = generic_perturbation(model.variables, model.dim**2, 0)
        else:
            pert = perturbation_matrix(model.generator, perturbation).substitute(point)
        return char_poly(bound, pert, shift=Fraction(-1, 2))

    def test_amoeba_does_not_call_roots_aberth(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("amoeba_sample called roots_aberth")

        monkeypatch.setattr(numerics, "roots_aberth", refuse)
        f = self.qubit_f("gamma_f")
        cloud = amoeba_sample(f, (1e-6, 1e-2), moduli=40, phases=64)  # acceptance 4 grid
        assert cloud.skips == 0
        assert cloud.points.shape[0] > 0

    @pytest.fixture
    def solved_rows(self, monkeypatch):
        rows = []
        companion_roots = numerics._companion_roots

        def spy(c):
            rows.append(len(c))
            return companion_roots(c)

        monkeypatch.setattr(numerics, "_companion_roots", spy)
        return rows

    def test_real_amoeba_solves_half_the_phases(self, solved_rows):
        # acceptance 4 grid: phases 0 .. 32 are solved, 33 .. 63 mirrored
        cloud = amoeba_sample(self.qubit_f("gamma_f"), (1e-6, 1e-2), moduli=40, phases=64)
        assert sum(solved_rows) <= 40 * 33
        assert cloud.skips == 0
        # four nonzero roots per grid point, each grid point's in ascending order
        mags = cloud.points[:, 1].reshape(40, 64, 4)
        assert np.all(np.diff(mags, axis=2) >= 0)
        for k in range(1, 64):
            assert mags[:, k].tobytes() == mags[:, 64 - k].tobytes()

    def test_non_real_amoeba_solves_every_grid_point(self, solved_rows):
        f = self.qubit_f("generic")
        assert any(c.b for c in f.terms.values())
        cloud = amoeba_sample(f, (1e-6, 1e-2), moduli=40, phases=64)
        assert sum(solved_rows) == 40 * 64
        assert cloud.skips == 0

    @pytest.fixture
    def eigvals_calls(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def spy(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        return calls

    def test_encircle_stacks_its_spectra(self, eigvals_calls):
        l0, l1 = jordan_pair(3)
        encircle(l0, l1, radius=0.001, steps=96)
        assert len(eigvals_calls) <= 2

    @pytest.fixture
    def loop_matrices(self, monkeypatch):
        calls = []
        spectra = numerics.eigenvalues

        def spy(matrices, collapse_tol=None):
            calls.append(len(matrices))
            return spectra(matrices, collapse_tol)

        monkeypatch.setattr(numerics, "eigenvalues", spy)
        return calls

    @pytest.mark.parametrize("steps", [400, 401])
    @pytest.mark.parametrize("pencil", NAMED_PENCILS, ids="-".join)
    def test_encircle_solves_half_a_conjugate_symmetric_loop(self, loop_matrices, pencil, steps):
        encircle(*bound_pencil(*pencil), radius=0.01, steps=steps)
        assert sum(loop_matrices) == steps // 2 + 1

    @pytest.mark.parametrize("steps", [400, 401])
    @pytest.mark.parametrize(
        "pencil", [("spin_half", 42), ("qubit", 1), ("qubit", "gamma_f"), ("spin_half", "gamma_x")],
        ids=["spin_half-generic", "qubit-generic", "qubit-gamma_f-shifted", "spin_half-gamma_x-shifted"],
    )
    def test_encircle_solves_every_step_of_other_loops(self, loop_matrices, pencil, steps):
        l0, l1 = bound_pencil(*pencil)
        if isinstance(pencil[1], str):
            l1[0][1] += 1e-3j
        encircle(l0, l1, radius=0.01, steps=steps)
        assert sum(loop_matrices) == steps + 1

    def test_scaling_sweep_stacks_its_spectra(self, eigvals_calls):
        l0, l1 = jordan_pair(3)
        scaling_sweep(l0, l1, 0.0, np.geomspace(1e-6, 1e-2, 25), cluster_tol=1e-2)
        assert len(eigvals_calls) <= 2


def synthetic_cloud(rows):
    pts = np.array(rows, dtype=float)
    return AmoebaCloud(pts, 0, (1e-6, 1e-2), 0, 0)


class TestFitTentacles:
    def test_sloped_and_vertical(self):
        rows = []
        for y in np.linspace(-6, -2, 40):
            rows.append((y, y / 2))  # slope-2 tentacle: y = 2 x
            rows.append((y, 0.3))  # vertical tentacle at log|omega| = 0.3
        fits = fit_tentacles(synthetic_cloud(rows), [Fraction(2), None])
        sloped, vertical = fits
        assert abs(sloped.fitted_slope - 2.0) < 1e-9
        assert sloped.support >= 3
        assert vertical.fitted_slope is None
        assert abs(vertical.intercept - 0.3) < 1e-9

    def test_horizontal(self):
        rows = []
        for y in np.linspace(-6, -2, 40):
            rows.append((y, y))  # slope-1 tentacle
        for x in np.linspace(-6, -2, 40):
            rows.append((-3.0, x))  # horizontal tentacle at log|eps| = -3
        fits = fit_tentacles(synthetic_cloud(rows), [Fraction(1), Fraction(0)])
        sloped, horizontal = fits
        assert abs(sloped.fitted_slope - 1.0) < 1e-9
        assert abs(horizontal.fitted_slope) < 1e-9

    def test_real_cloud_square_root(self):
        cloud = amoeba_sample(biv("omega^2 - epsilon"), (1e-6, 1e-2), moduli=20, phases=8)
        (fit,) = fit_tentacles(cloud, [Fraction(2)])
        assert abs(fit.fitted_slope - 2.0) < 1e-6

    def test_unsupported_direction_reports_no_slope(self):
        rows = [(y, y / 2) for y in np.linspace(-6, -2, 30)]
        fits = fit_tentacles(synthetic_cloud(rows), [Fraction(2), Fraction(17)])
        assert fits[1].fitted_slope is None or fits[1].support < len(rows)

    def test_narrow_cloud_rejected(self):
        rows = [(-3.0 + 0.01 * k, 0.0) for k in range(5)]
        with pytest.raises(ValueError):
            fit_tentacles(synthetic_cloud(rows), [Fraction(1)])

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            fit_tentacles(AmoebaCloud(np.empty((0, 2)), 0, (1e-6, 1e-2), 0, 0), [None])
