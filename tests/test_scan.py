"""Degeneracy location: discriminant, snap-back, classification."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_ep import models, newton, poly, scan
from liouville_ep.expr import parse_expression
from liouville_ep.models import (
    EPSILON,
    OMEGA,
    builtin_model,
    char_poly,
    generic_perturbation,
    model_from_dict,
)
from liouville_ep.numerics import roots_aberth
from liouville_ep.poly import (
    GaussRational,
    MultiPoly,
    PolyMatrix,
    _derivative,
    _subresultant_prs,
    char_poly_berkowitz,
    gcd_univariate,
    horner,
    square_free,
    sylvester_matrix,
    sylvester_resultant,
)
from liouville_ep.scan import (
    classify,
    geometric_multiplicity,
    scan_parameter,
    solve_candidates,
)

TOY = ("x", "omega", "epsilon")


def toy(text):
    return parse_expression(text, TOY)


def gr(re, im=0):
    return GaussRational.of(Fraction(re), Fraction(im))


def spin_half_slice():
    m = builtin_model("spin_half")
    bindings = {
        "Omega": Fraction(1),
        "gamma_minus": Fraction(0),
        "gamma_y": Fraction(2),
    }
    return m, bindings


QUBIT_SLICE = {"gamma_e": Fraction(1), "J": Fraction(1, 4)}


def qubit_ep3_bound():
    # the qubit's EP3 point: omega0 = -1/2 at gamma_f = 0 on the slice
    m = builtin_model("qubit")
    return m.generator.substitute({**QUBIT_SLICE, "gamma_f": Fraction(0)})


def slice_char_poly(name, bindings):
    return char_poly(builtin_model(name).generator.substitute(bindings))


def spy_kernel(monkeypatch):
    """Record the batch size (pencils) of every call of the char-poly kernel."""
    calls = []
    kernel = models.char_poly_berkowitz

    def spy(pencils, var, eps):
        calls.append(len(pencils))
        return kernel(pencils, var, eps)

    monkeypatch.setattr(models, "char_poly_berkowitz", spy)
    return calls


def from_dense(p, like, var, lead=None):
    """The dense polynomial p in `var` as a MultiPoly over like's variables,
    scaled to the leading coefficient `lead` (p's own when None)."""
    factor = GaussRational.of(1) if lead is None else lead / GaussRational.of(*p[0])
    idx = like.vars.index(var)
    n = len(p) - 1
    return MultiPoly(
        like.vars,
        {
            tuple(n - k if i == idx else 0 for i in range(len(like.vars))): GaussRational.of(*c) * factor
            for k, c in enumerate(p)
        },
    )


def over_divisor(dense, scale, like, var):
    """dense / scale, the scan's form of its discriminant, as a MultiPoly."""
    (re, im) = dense[0]
    return from_dense(dense, like, var, GaussRational.of(Fraction(re, scale), Fraction(im, scale)))


class TestExactRank:
    def mat(self, rows):
        return PolyMatrix([[MultiPoly.constant(("t",), gr(*e)) for e in row] for row in rows])

    def rank(self, rows):
        return scan._rank(self.mat(rows).constant_rows())

    def test_rank(self):
        assert self.rank([[(1,), (2,)], [(2,), (4,)]]) == 1
        assert self.rank([[(1,), (0,)], [(0,), (1,)]]) == 2
        assert self.rank([[(0,), (0,)], [(0,), (0,)]]) == 0

    def test_complex_entries(self):
        # second row is i times the first
        assert self.rank([[(1,), (0, 1)], [(0, 1), (-1,)]]) == 1

    def test_symbolic_entry_rejected(self):
        m = PolyMatrix([[MultiPoly.variable(("t",), "t")]])
        with pytest.raises(ValueError):
            geometric_multiplicity(m, gr(0))

    def test_geometric_multiplicity(self):
        ident = self.mat([[(1,), (0,)], [(0,), (1,)]])
        assert geometric_multiplicity(ident, gr(1)) == 2
        assert geometric_multiplicity(ident, gr(0)) == 0
        diag = self.mat([[(1,), (0,)], [(0,), (2,)]])
        assert geometric_multiplicity(diag, gr(1)) == 1

    def test_qubit_special_point_is_derogatory(self):
        assert geometric_multiplicity(qubit_ep3_bound(), gr(Fraction(-1, 2))) == 2

    def test_non_square_rejected(self):
        m = PolyMatrix([[MultiPoly.zero(("t",)), MultiPoly.zero(("t",))]])
        with pytest.raises(ValueError):
            geometric_multiplicity(m, gr(0))


class TestSolveCandidates:
    # each toy is a bound char poly q(omega, x); its discriminant is
    # Res_omega(q', q)

    def test_exact_roots_with_shift_backsolve(self):
        out = solve_candidates(toy("(omega - x)*(omega - x^2)"), "x", {})
        assert not out.continuum
        values = sorted((c.value for c in out.candidates), key=lambda v: v.re)
        assert values == [gr(0), gr(1)]
        for c in out.candidates:
            assert c.exact
            assert c.omega0_values == (c.value,)

    def test_square_free_reduction_snaps_double_root(self):
        # the discriminant is a multiple of (x - 5)^2
        out = solve_candidates(toy("omega^2 - (x - 5)^2"), "x", {})
        assert [c.value for c in out.candidates] == [gr(5)]
        cand = out.candidates[0]
        assert cand.exact
        assert cand.omega0_values == (gr(0),)

    def test_identically_zero_resultant_is_continuum(self):
        out = solve_candidates(toy("(omega - x)^2"), "x", {"y": Fraction(0)})
        assert out.continuum
        assert out.candidates == ()
        assert out.bindings == {"y": Fraction(0)}

    def test_leftover_binding_rejected(self):
        q = parse_expression("omega^2 - x*y", ("x", "y", "omega", "epsilon"))
        with pytest.raises(ValueError):
            solve_candidates(q, "x", {})

    def test_epsilon_dependence_rejected(self):
        with pytest.raises(ValueError):
            solve_candidates(toy("omega^2 + epsilon - x"), "x", {})

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            solve_candidates(toy("omega + x"), "x", {})

    def test_leading_coefficient_in_the_target_rejected(self):
        # the discriminant is evaluated pointwise in the target, which needs
        # q's omega-degree to hold at every point
        with pytest.raises(ValueError, match="leading coefficient"):
            solve_candidates(toy("x*omega^2 - 1"), "x", {})

    def test_constant_specialization_yields_nothing(self):
        out = solve_candidates(toy("omega^2 - 1"), "x", {})
        assert not out.continuum
        assert out.candidates == ()

    def test_spurious_root_flagged_unverified(self):
        # the discriminant's roots are +-sqrt(2); the snapped rationals leave
        # q with two simple roots about 1e-6 apart
        out = solve_candidates(toy("omega^2 - x^2 + 2"), "x", {})
        assert len(out.candidates) == 2
        for cand in out.candidates:
            assert abs(abs(complex(cand.value)) - 2**0.5) < 1e-9
            assert not cand.exact
            assert cand.flags == ("unverified",)
            assert cand.omega0_values == ()

    def test_float_check_that_vanishes_is_unverified(self):
        # q_at / s = omega^2 + 10^-400: the constant is exact and nonzero but
        # 0 as a float, which would read as a double root at 0
        s = 10**400
        assert scan._near_common_roots([(s, 0), (0, 0), (1, 0)], s) == []

    def test_irrational_shift_root_flagged_approximate(self):
        # at x = 1 the double eigenvalues are +-sqrt(2); at x = 5 it is 0
        out = solve_candidates(toy("(omega^2 - 2)^2 - (x - 1)"), "x", {})
        assert [c.value for c in out.candidates] == [gr(1), gr(5)]
        cand, other = out.candidates
        assert not cand.exact
        assert "approximate" in cand.flags
        mods = sorted(abs(complex(w.re) + 1j * complex(w.im)) for w in cand.omega0_values)
        assert len(mods) == 2
        assert abs(mods[0] - 2**0.5) < 1e-5
        assert other.exact
        assert other.omega0_values == (gr(0),)

    def test_linear_discriminant_beyond_max_denominator_is_exact(self):
        # the square-free discriminant is linear, and its root's denominator
        # exceeds MAX_DENOMINATOR: it is solved exactly, not snapped
        value = gr(Fraction(1234567, 1000003))
        out = solve_candidates(toy("(omega - x)*(omega - 1234567/1000003)"), "x", {})
        (cand,) = out.candidates
        assert cand.value == value
        assert cand.exact
        assert cand.omega0_values == (value,)
        assert cand.flags == ()

    def test_roots_snapping_to_one_value_reported_once(self):
        # the discriminant's roots 1e-8 and 3e-8 both snap to 0, where q has
        # two simple roots about 3.5e-8 apart
        out = solve_candidates(toy("omega^2 - (x - 1/10^8)*(x - 3/10^8)"), "x", {})
        (cand,) = out.candidates
        assert cand.value == gr(0)
        assert not cand.exact
        assert cand.flags == ("unverified",)

    def test_gcd_only_at_exact_values(self, monkeypatch):
        # the discriminant decides exactness; gcd(q_at, q_at') back-solves
        # the double eigenvalue of an exact value and is taken for no other
        q = slice_char_poly("qubit", QUBIT_SLICE)
        firsts = []

        def spy(f, g):
            firsts.append(f)
            return _subresultant_prs(f, g)

        # the scan's PRS calls: Res(q', q) at each interpolation point, and
        # gcd(q_at, q_at') with q_at scaled to integers
        monkeypatch.setattr(scan, "_subresultant_prs", spy)
        out = solve_candidates(q, "gamma_f", QUBIT_SLICE)
        assert len(out.candidates) == 5
        (exact,) = [c for c in out.candidates if c.exact]
        lead = q.coefficient_list(OMEGA)[-1].constant_value()
        q_ats = [from_dense(f, q, OMEGA, lead) for f in firsts if len(f) == q.degree(OMEGA) + 1]
        assert q_ats == [q.substitute({"gamma_f": exact.value})]


CROSS_CHECK_TOYS = {
    "exact-pair": "(omega - x)*(omega - x^2)",
    "double-root": "omega^2 - (x - 5)^2",
    "unverified": "omega^2 - x^2 + 2",
    "approximate": "(omega^2 - 2)^2 - (x - 1)",
    "large-denominator": "(omega - x)*(omega - 1234567/1000003)",
    "snap-once": "omega^2 - (x - 1/10^8)*(x - 3/10^8)",
}


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: (slice_char_poly("spin_half", spin_half_slice()[1]), "gamma_x"),
            id="spin_half-gamma_x",
        ),
        pytest.param(lambda: (slice_char_poly("qubit", QUBIT_SLICE), "gamma_f"), id="qubit-gamma_f"),
    ]
    + [pytest.param(lambda t=t: (toy(t), "x"), id=k) for k, t in CROSS_CHECK_TOYS.items()],
)
def test_discriminant_zero_iff_common_root(make):
    # q leads with a constant in omega, so the discriminant vanishes at a
    # value exactly where q and q' share a root there: the scan's exactness
    # test and the gcd it no longer takes for every candidate agree
    q, target = make()
    dq = q.derivative(OMEGA)
    disc = sylvester_resultant(dq, q, OMEGA)
    # det S as the omega^0 coefficient of the dense kernel
    kernel = char_poly_berkowitz([(sylvester_matrix(dq, q, OMEGA), None, 0)], OMEGA, EPSILON)[0]
    assert kernel.coefficient_list(OMEGA)[0] == disc
    # the scan's route: the subresultant PRS at integer points, interpolated
    rows, denom = scan._cleared_rows(q, target)
    assert over_divisor(*scan._discriminant(rows, denom), q, target) == disc
    out = solve_candidates(q, target, {})
    assert out.candidates
    for cand in out.candidates:
        at = {target: cand.value}
        on_disc = disc.substitute(at).is_zero()
        common = gcd_univariate(q.substitute(at), dq.substitute(at), OMEGA)
        assert on_disc == (common.degree(OMEGA) >= 1), cand
        assert on_disc or not cand.exact
        # the scan's gcd: the last PRS remainder of q_at and q_at', made monic
        q_at = [horner(row, (cand.value.a, cand.value.b), cand.value.d) for row in rows]
        prs = _subresultant_prs(q_at, _derivative(q_at))[1]
        assert from_dense(prs, q, OMEGA, GaussRational.of(1)) == common


def test_lambda3_discriminant_square_free_matches_sympy():
    # the benchmark's 3-level slice (g1 = 1, O = 1/3, target g2): a degree-44
    # discriminant whose square-free part has degree 31; sympy is the oracle
    # here only
    sympy = pytest.importorskip("sympy")
    spec = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "models" / "lambda3.json").read_text())
    m = model_from_dict(spec)
    q = char_poly(m.generator.substitute({"g1": Fraction(1), "O": Fraction(1, 3)}))
    disc, _ = scan._discriminant(*scan._cleared_rows(q, "g2"))
    assert len(disc) == 45 and all(im == 0 for _, im in disc)
    part = square_free(disc)
    assert len(part) - 1 == 31 and all(im == 0 for _, im in part)
    g2 = sympy.symbols("g2")
    expected = sympy.Poly(sympy.Poly([re for re, _ in disc], g2).sqf_part(), g2).primitive()[1]
    assert sympy.Poly([re for re, _ in part], g2) == expected


def test_term_order_reaches_no_result():
    # the lambda3 generator with every entry's terms stored in reverse order
    spec = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "models" / "lambda3.json").read_text())
    m = model_from_dict(spec)
    flipped = PolyMatrix(
        [[MultiPoly(e.vars, dict(reversed(e.terms.items()))) for e in row] for row in m.generator.rows]
    )
    assert [[list(e.terms) for e in row] for row in flipped.rows] != [
        [list(e.terms) for e in row] for row in m.generator.rows
    ]
    g2_slice = {"g1": Fraction(1), "O": Fraction(1, 3)}
    assert char_poly(flipped.substitute(g2_slice)) == char_poly(m.generator.substitute(g2_slice))
    assert scan_parameter(flipped, "g2", g2_slice, m.rate_params) == scan_parameter(
        m.generator, "g2", g2_slice, m.rate_params
    )
    point, w0 = {"g1": Fraction(1), "g2": Fraction(1), "O": Fraction(0)}, GaussRational.of(Fraction(-1, 2))
    assert classify(flipped.substitute(point), w0) == classify(m.generator.substitute(point), w0)


class TestClassify:
    def spin_half_bound(self, gamma_x):
        m, bindings = spin_half_slice()
        return m.generator.substitute({**bindings, "gamma_x": Fraction(gamma_x)})

    def test_second_order_ep(self):
        c = classify(self.spin_half_bound(1), gr(-3))
        assert c.kind == "ep"
        assert c.order == 2
        assert c.alg_mult == 2
        assert c.geom_mult == 1
        assert c.jordan_blocks == (2,)
        assert c.seeds == (42,)
        assert c.notes == ()

    def test_other_ep_on_slice(self):
        c = classify(self.spin_half_bound(3), gr(-5))
        assert (c.kind, c.order, c.alg_mult, c.geom_mult) == ("ep", 2, 2, 1)

    def test_diabolic_point(self):
        c = classify(self.spin_half_bound(-2), gr(0))
        assert c.kind == "diabolic"
        assert c.order is None
        assert c.alg_mult == 2
        assert c.geom_mult == 2

    def test_third_order_ep(self):
        c = classify(qubit_ep3_bound(), gr(Fraction(-1, 2)))
        assert c.kind == "ep"
        assert c.order == 3
        assert c.alg_mult == 4
        assert c.geom_mult == 2

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            classify(self.spin_half_bound(1), gr(17))

    def test_one_kernel_call_per_classify(self, monkeypatch):
        # omega0 is checked and its multiplicities taken by exact rank, so no
        # unperturbed determinant is taken, and the seed certified by the
        # Jordan blocks is the only pencil of the one kernel call
        calls = spy_kernel(monkeypatch)
        c = classify(qubit_ep3_bound(), gr(Fraction(-1, 2)))
        assert c.alg_mult == 4
        assert c.seeds == (42,)
        assert calls == [1]

    def test_one_newton_polygon_per_seed(self, monkeypatch):
        # the polygon checked against the tropical route is the one classify
        # keeps: no module builds a second hull of the same char poly, and a
        # point certified by its first seed builds one hull and one walk
        calls, walks = [], []
        hull, walk = newton.lower_hull, newton.tropical_roots

        def spy(points):
            calls.append(points)
            return hull(points)

        for module in (newton, scan):
            if getattr(module, "lower_hull", None) is hull:
                monkeypatch.setattr(module, "lower_hull", spy)
        monkeypatch.setattr(newton, "tropical_roots", lambda tf: walks.append(tf) or walk(tf))
        c = classify(qubit_ep3_bound(), gr(Fraction(-1, 2)))
        assert c.order == 3
        assert c.seeds == (42,)
        assert len(calls) == len(walks) == 1


ROOT = Path(__file__).resolve().parent.parent


def file_model_bound(path, point):
    m = model_from_dict(json.loads((ROOT / path).read_text()))
    return m.generator.substitute({k: Fraction(v) for k, v in point.items()})


def spin_half_point(gamma_x):
    m, bindings = spin_half_slice()
    return m.generator.substitute({**bindings, "gamma_x": Fraction(gamma_x)})


# every (name, bound generator, omega0) that tier-1 classifies: the spin_half
# scan's points, the qubit EP3, the lambda3 4-fold and the ladder4 6-fold point
CLASSIFIED_POINTS = [
    ("spin_half-ep2-1", lambda: spin_half_point(1), gr(-3)),
    ("spin_half-ep2-3", lambda: spin_half_point(3), gr(-5)),
    ("spin_half-diabolic-minus2", lambda: spin_half_point(-2), gr(0)),
    ("spin_half-minus1/8-at-0", lambda: spin_half_point(Fraction(-1, 8)), gr(0)),
    ("spin_half-minus1/8-at-minus15/4", lambda: spin_half_point(Fraction(-1, 8)), gr(Fraction(-15, 4))),
    ("qubit-ep3", qubit_ep3_bound, gr(Fraction(-1, 2))),
    ("lambda3-4fold", lambda: file_model_bound(
        "perfbench/models/lambda3.json", {"g1": 1, "g2": 1, "O": 0}), gr(Fraction(-1, 2))),
    ("ladder4-6fold", lambda: file_model_bound(
        "tests/models/ladder4.json", {"g1": 1, "g2": 1, "g3": 1, "O": 0}), gr(Fraction(-1, 2))),
]


def constant_matrix(rows):
    return PolyMatrix([[MultiPoly.constant(TOY, e) for e in row] for row in rows])


def draws_for(monkeypatch, replaced):
    """Let `replaced` (seed -> draws, or None to keep them) override the
    seeded perturbation classify hands the kernel."""
    draws = scan.perturbation_draws

    def patched(size, seed):
        out = replaced(size, seed)
        return draws(size, seed) if out is None else out

    monkeypatch.setattr(scan, "perturbation_draws", patched)


def zero_draws(size, seed):
    return np.zeros((size, size, 2), dtype=np.int64)


def identity_draws(size, seed):
    out = np.zeros((size, size, 2), dtype=np.int64)
    out[range(size), range(size), 0] = 1
    return out


class TestJordanCertificate:
    """classify's certificate: the exact Jordan blocks of omega0 and the
    polygon Lidskii's theory predicts from them."""

    @pytest.mark.parametrize("name, bound, w0", CLASSIFIED_POINTS, ids=[p[0] for p in CLASSIFIED_POINTS])
    def test_blocks_equal_sympy_jordan_form(self, name, bound, w0):
        sympy = pytest.importorskip("sympy")
        matrix = bound()
        exact = sympy.Matrix([
            [sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d) for c in row]
            for row in matrix.constant_rows()
        ])
        _, jordan = exact.jordan_form()
        lam = sympy.Rational(w0.a, w0.d) + sympy.I * sympy.Rational(w0.b, w0.d)
        expected, start = [], 0
        for k in range(jordan.shape[0]):
            if k + 1 == jordan.shape[0] or jordan[k, k + 1] == 0:
                if sympy.simplify(jordan[k, k] - lam) == 0:
                    expected.append(k + 1 - start)
                start = k + 1
        assert scan._jordan_blocks(matrix, w0) == tuple(sorted(expected, reverse=True))
        assert classify(matrix, w0).jordan_blocks == tuple(sorted(expected, reverse=True))

    @pytest.mark.parametrize("name, bound, w0", CLASSIFIED_POINTS, ids=[p[0] for p in CLASSIFIED_POINTS])
    def test_blocks_agree_with_the_label(self, name, bound, w0):
        c = classify(bound(), w0)
        blocks = c.jordan_blocks
        assert (c.alg_mult, c.geom_mult) == (sum(blocks), len(blocks))
        assert (c.kind == "ep") == (blocks[0] >= 2)
        if c.kind == "ep":
            assert c.order == blocks[0]
        assert (c.kind == "diabolic") == (blocks[0] == 1 and c.alg_mult >= 2)
        # Lidskii: r blocks of size n give valuation 1/n with multiplicity n*r
        predicted = sorted(
            ((Fraction(1, n), n * blocks.count(n)) for n in set(blocks)), key=lambda e: e[0]
        )
        assert [(v, m) for v, m in c.report.finite() if v > 0] == predicted
        assert (c.seeds, c.notes) == ((42,), ())

    def test_known_partitions(self):
        # the qubit EP3: ranks 4, 2, 1, 0 of A^k give blocks 3 and 1; the
        # lambda3 4-fold point: ranks 9, 5, 5 give four blocks of size 1
        assert scan._jordan_blocks(qubit_ep3_bound(), gr(Fraction(-1, 2))) == (3, 1)
        _, lambda3, w0 = CLASSIFIED_POINTS[6]
        assert scan._jordan_blocks(lambda3(), w0) == (1, 1, 1, 1)

    def test_non_eigenvalue_has_no_blocks(self):
        assert scan._jordan_blocks(spin_half_point(1), gr(17)) == ()
        assert scan._jordan_blocks(constant_matrix([[gr(0)]]), gr(1)) == ()
        with pytest.raises(ValueError, match="not an exact eigenvalue"):
            classify(spin_half_point(1), gr(17))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from([gr(1), gr(-2), gr(0, 1)])), max_size=2),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=12),
    )
    def test_planted_jordan_matrix(self, blocks, others, lam, moves):
        # U J U^-1 with J a Jordan matrix whose blocks at lambda are planted
        # and U a product of integer row operations, so det U = 1 and U^-1
        # is the reversed product of the inverse operations
        lam = gr(*lam)
        diagonal = [(lam, n) for n in blocks] + [(lam + mu, n) for n, mu in others]
        size = sum(n for _, n in diagonal)
        j = [[gr(0)] * size for _ in range(size)]
        at = 0
        for value, n in diagonal:
            for k in range(n):
                j[at + k][at + k] = value
                if k + 1 < n:
                    j[at + k][at + k + 1] = gr(1)
            at += n
        ops = [(r % size, c % size, gr(f)) for r, c, f in moves if r % size != c % size and f]

        def apply(rows, r, c, f):
            # row r += f * row c
            rows[r] = [a + f * b for a, b in zip(rows[r], rows[c])]

        def column(rows, r, c, f):
            # column c -= f * column r, the inverse operation from the right
            for row in rows:
                row[c] = row[c] - f * row[r]

        m = [row[:] for row in j]
        for r, c, f in ops:
            apply(m, r, c, f)
            column(m, r, c, f)
        assert scan._jordan_blocks(constant_matrix(m), lam) == tuple(sorted(blocks, reverse=True))

    def test_non_generic_seed_is_retried(self, monkeypatch):
        # a zero perturbation moves no eigenvalue, so the first seed's
        # polygon is not Lidskii's; the second seed certifies the same label
        # at the cost of one more kernel call
        reference = classify(spin_half_point(1), gr(-3))
        draws_for(monkeypatch, lambda size, seed: zero_draws(size, seed) if seed == 42 else None)
        calls = spy_kernel(monkeypatch)
        c = classify(spin_half_point(1), gr(-3))
        assert c.seeds == (42, 43)
        assert c.notes == ("non-generic-seed",)
        assert (c.kind, c.order, c.jordan_blocks) == (reference.kind, reference.order, (2,))
        assert calls == [1, 1]

    def test_no_generic_seed_is_inconclusive(self, monkeypatch):
        draws_for(monkeypatch, zero_draws)
        calls = spy_kernel(monkeypatch)
        c = classify(spin_half_point(1), gr(-3))
        assert (c.kind, c.order) == ("inconclusive", None)
        assert c.seeds == tuple(range(42, 42 + scan.CLASSIFY_SEEDS))
        assert c.notes == ("non-generic-seed",) * scan.CLASSIFY_SEEDS + ("no-generic-seed",)
        assert (c.alg_mult, c.geom_mult, c.jordan_blocks) == (2, 1, (2,))
        assert calls == [1] * scan.CLASSIFY_SEEDS

    def test_failing_points_share_one_retry_call(self, monkeypatch):
        # the identity perturbation shifts every eigenvalue by epsilon: that
        # is Lidskii's splitting at the scan's three diabolic points but not
        # at its two EP2 points, which alone go on to the next seed
        m, bindings = spin_half_slice()
        reference = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        draws_for(monkeypatch, lambda size, seed: identity_draws(size, seed) if seed == 42 else None)
        calls = spy_kernel(monkeypatch)
        out = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        assert calls == [1, 5, 2]
        for cand, ref in zip(out.candidates, reference.candidates):
            for (w0, c), (_, r) in zip(cand.classifications, ref.classifications):
                assert (c.kind, c.order, c.jordan_blocks) == (r.kind, r.order, r.jordan_blocks)
                assert c.seeds == ((42, 43) if c.kind == "ep" else (42,))
                assert c.notes == (("non-generic-seed",) if c.kind == "ep" else ())


class TestSeededPencilFeed:
    """classify's seeds reach the kernel as draws, and each pencil part is
    shared across the batch."""

    @pytest.mark.parametrize("size", [1, 4, 9, 16])
    def test_classify_seeds_are_the_perturbation_draws(self, monkeypatch, size):
        # one draw routine: the perturbations classify hands the kernel are
        # generic_perturbation's entries, which are random.Random(seed)'s
        # randint(-9, 9) draws, row-major, real part first
        seen = []
        kernel = models.char_poly_berkowitz
        monkeypatch.setattr(models, "char_poly_berkowitz", lambda pencils, *names: (
            seen.extend(l1 for _, l1, _ in pencils) or kernel(pencils, *names)
        ))
        zero = PolyMatrix.identity(TOY, size).scale(0)
        for seed in (0, 7, 42):
            seen.clear()
            c = classify(zero, gr(0), seed)
            assert c.seeds == (seed,) and c.jordan_blocks == (1,) * size
            assert len(seen) == 1
            for k, draws in enumerate(seen):
                rng = random.Random(seed + k)
                expected = [[[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(size)] for _ in range(size)]
                assert draws.tolist() == expected
                entries = generic_perturbation(TOY, size, seed + k).rows
                assert [[e.constant_value() for e in row] for row in entries] == [
                    [GaussRational.of(re, im) for re, im in row] for row in expected
                ]

    # the first fourteen Mersenne Twister words of this seed all have top five
    # bits of 19 or more, so randint(-9, 9) opens with fourteen redraws
    REDRAWING_SEED = 56008

    def test_redrawing_seed_redraws(self):
        rng = random.Random(self.REDRAWING_SEED)
        assert all(rng.getrandbits(5) >= 19 for _ in range(14))

    @pytest.mark.parametrize("seed", [0, 1, -1, 42, 2**31, 2**64 + 7, REDRAWING_SEED])
    def test_draws_are_randint(self, seed):
        # the array draw is random.Random(seed).randint(-9, 9), draw for draw
        for size in range(17):
            rng = random.Random(seed)
            expected = [[[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(size)] for _ in range(size)]
            draws = models.perturbation_draws(size, seed)
            assert draws.dtype == np.int64 and draws.shape == (size, size, 2)
            assert draws.flags.writeable
            assert draws.tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-(2**70), 2**70), st.integers(0, 16))
    def test_draws_are_randint_for_any_seed(self, seed, size):
        rng = random.Random(seed)
        expected = [rng.randint(-9, 9) for _ in range(2 * size * size)]
        assert models.perturbation_draws(size, seed).ravel().tolist() == expected

    def test_shared_parts_match_lone_calls(self, monkeypatch):
        # the spin_half slice's exact points: one bound generator serves both
        # omega0 of its candidate and each seed's draws serve every point;
        # the batch equals lone char_poly calls on generic_perturbation term
        # for term, with as many primes as the largest lone call
        m, bindings = spin_half_slice()
        bound_generator = m.generator.substitute(bindings)
        out = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        points = []
        for cand in out.candidates:
            if cand.exact:
                bound = bound_generator.substitute({"gamma_x": cand.value})
                points.extend((bound, w0) for w0 in cand.omega0_values)
        assert len({id(bound) for bound, _ in points}) < len(points)
        seeds = range(42, 42 + scan.CLASSIFY_SEEDS)
        draws = [models.perturbation_draws(4, s) for s in seeds]
        counts = []
        primes_beyond = poly._primes_beyond

        def spy(bound):
            primes = primes_beyond(bound)
            counts.append(len(primes))
            return primes

        monkeypatch.setattr(poly, "_primes_beyond", spy)
        got = models.char_polys([(bound, d, w0) for bound, w0 in points for d in draws])
        (batch,) = counts
        counts.clear()
        lone = [char_poly(bound, generic_perturbation(bound.vars, 4, s), shift=w0) for bound, w0 in points
                for s in seeds]
        assert [p.terms for p in got] == [p.terms for p in lone]
        assert batch == max(counts)


class TestScanParameter:
    def test_frozen_slice(self):
        m, bindings = spin_half_slice()
        out = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        assert not out.continuum
        by_value = {c.value: c for c in out.candidates}
        assert set(by_value) == {gr(-2), gr(Fraction(-1, 8)), gr(1), gr(3)}
        assert all(c.exact for c in out.candidates)

        ep1 = by_value[gr(1)]
        assert ep1.omega0_values == (gr(-3),)
        assert "nonphysical" not in ep1.flags
        ((w0, cls),) = ep1.classifications
        assert w0 == gr(-3)
        assert (cls.kind, cls.order) == ("ep", 2)

        ep3 = by_value[gr(3)]
        assert ep3.omega0_values == (gr(-5),)
        ((_, cls3),) = ep3.classifications
        assert (cls3.kind, cls3.order) == ("ep", 2)

        dia2 = by_value[gr(-2)]
        assert "nonphysical" in dia2.flags
        assert dia2.omega0_values == (gr(0),)
        ((_, clsd),) = dia2.classifications
        assert clsd.kind == "diabolic"

        dia8 = by_value[gr(Fraction(-1, 8))]
        assert "nonphysical" in dia8.flags
        assert set(dia8.omega0_values) == {gr(0), gr(Fraction(-15, 4))}
        kinds = {cls.kind for _, cls in dia8.classifications}
        assert kinds == {"diabolic"}

    def test_scan_is_symmetric_in_the_pair(self):
        # scanning the partner rate at gamma_x = 1 must rediscover the same
        # degeneracy at gamma_y = 2 with the same classification
        m = builtin_model("spin_half")
        bindings = {
            "Omega": Fraction(1),
            "gamma_minus": Fraction(0),
            "gamma_x": Fraction(1),
        }
        out = scan_parameter(m.generator, "gamma_y", bindings, m.rate_params)
        by_value = {c.value: c for c in out.candidates}
        assert gr(2) in by_value
        cand = by_value[gr(2)]
        assert cand.exact
        assert cand.omega0_values == (gr(-3),)
        ((w0, cls),) = cand.classifications
        assert (w0, cls.kind, cls.order) == (gr(-3), "ep", 2)

    @pytest.mark.parametrize("nudge", [1, -1], ids=["plus-first", "minus-first"])
    def test_candidate_order_ignores_root_rounding(self, monkeypatch, nudge):
        # the qubit gamma_f scan has a conjugate pair of candidates whose
        # float real parts agree up to rounding; shifting each root's real
        # part by two ulps towards either order must not reorder the output
        m = builtin_model("qubit")
        bindings = {"gamma_e": Fraction(1), "J": Fraction(1, 4)}
        reference = scan_parameter(m.generator, "gamma_f", bindings, m.rate_params)

        def nudged(coeffs):
            roots = roots_aberth(coeffs)
            shift = nudge * np.sign(roots.imag) * 2 * np.spacing(roots.real)
            return roots.real + shift + 1j * roots.imag

        monkeypatch.setattr(scan, "roots_aberth", nudged)
        out = scan_parameter(m.generator, "gamma_f", bindings, m.rate_params)
        values = [c.value for c in out.candidates]
        assert gr(Fraction(1406787, 883972), Fraction(-411153, 291280)) in values
        assert values == sorted(values, key=lambda v: (v.re, v.im))
        assert out == reference

    def test_binds_before_the_char_poly(self, monkeypatch):
        # the scan's char poly must carry only the target and omega: no other
        # parameter and no shift variable
        m, bindings = spin_half_slice()
        returned = []

        def spy(*args, **kwargs):
            p = char_poly(*args, **kwargs)
            returned.append(p)
            return p

        monkeypatch.setattr(scan, "char_poly", spy)
        scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        assert returned
        for p in returned:
            assert p.uses_only(["gamma_x", OMEGA]), p.vars

    def test_exact_candidates_share_one_kernel_call(self, monkeypatch):
        # the scan's own char poly, then one call for the five exact points
        # (-2, -1/8 twice, 1 and 3) with the one certified seed each
        m, bindings = spin_half_slice()
        calls = spy_kernel(monkeypatch)
        out = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        points = sum(len(c.classifications) for c in out.candidates)
        assert points == 5
        assert calls == [1, points] == [1, 5]

    def test_no_exact_candidate_takes_no_classification_call(self, monkeypatch):
        m = builtin_model("qubit")
        bindings = {"gamma_f": Fraction(1), "J": Fraction(1, 4)}
        calls = spy_kernel(monkeypatch)
        out = scan_parameter(m.generator, "gamma_e", bindings, m.rate_params)
        assert out.candidates and not any(c.exact for c in out.candidates)
        assert calls == [1]

    def test_discriminant_matches_sympy(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        m = builtin_model("qubit")
        bindings = {"gamma_e": Fraction(1), "J": Fraction(1, 4)}
        seen = []
        discriminant = scan._discriminant
        q = char_poly(m.generator.substitute(bindings))

        def spy(rows, denom):
            # the scan's discriminant: dense integer coefficients over one divisor
            dense, scale = discriminant(rows, denom)
            seen.append(over_divisor(dense, scale, q, "gamma_f"))
            return dense, scale

        monkeypatch.setattr(scan, "_discriminant", spy)
        solve_candidates(q, "gamma_f", bindings)
        (disc,) = seen

        symbols = sympy.symbols(m.variables)

        def to_sympy(p):
            return sympy.Add(
                *(
                    (sympy.Rational(c.re.numerator, c.re.denominator)
                     + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                    * sympy.Mul(*(x**k for x, k in zip(symbols, e)))
                    for e, c in p.terms.items()
                )
            )

        bound = m.generator.substitute(bindings)
        omega = symbols[m.variables.index(OMEGA)]
        q = (sympy.Matrix([[to_sympy(e) for e in row] for row in bound.rows])
             - omega * sympy.eye(bound.shape[0])).det(method="berkowitz")
        expected = sympy.resultant(sympy.diff(q, omega), q, omega)
        assert sympy.expand(to_sympy(disc) - expected) == 0
        assert sympy.degree(expected, symbols[m.variables.index("gamma_f")]) > 0

    def test_continuum_detection(self):
        m = builtin_model("qubit")
        out = scan_parameter(
            m.generator,
            "gamma_e",
            {"gamma_f": Fraction(0), "J": Fraction(0)},
            m.rate_params,
        )
        assert out.continuum
        assert out.candidates == ()


class TestClosedFormRegimes:
    def test_known_degeneracy_curves_annihilate_resultant(self):
        m = builtin_model("spin_half")
        v = m.variables
        q = char_poly(m.generator)
        disc = sylvester_resultant(q.derivative(OMEGA), q, OMEGA)
        assert not disc.is_zero()
        gx = parse_expression
        curves = [
            gx("gamma_y - Omega", v),
            gx("gamma_y + Omega", v),
            gx("-gamma_minus/2 - gamma_y", v),
        ]
        for curve in curves:
            assert disc.substitute({"gamma_x": curve}).is_zero()
