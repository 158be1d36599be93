"""Exact arithmetic layer: scalars, polynomials, matrices, determinants."""

import copy
import functools
import json
import math
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_ep import poly
from liouville_ep.poly import (
    ExactDivisionError,
    GaussRational,
    MultiPoly,
    PolyMatrix,
    _subresultant_prs,
    char_poly_berkowitz,
    det_bareiss,
    det_cofactor,
    gcd_univariate,
    horner,
    square_free,
    sylvester_matrix,
    sylvester_resultant,
)

V = ("x", "y")


def gr(re, im=0):
    return GaussRational.of(Fraction(re), Fraction(im))


def rand_gr(rng, span=6, den=4):
    return GaussRational.of(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def rand_poly(rng, variables=V, max_terms=6, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        c = rand_gr(rng)
        if not c.is_zero():
            terms[e] = c
    return MultiPoly(variables, terms)


class TestGaussRational:
    def test_field_ops(self):
        a = gr(Fraction(1, 2), 3)
        b = gr(-2, Fraction(1, 4))
        assert a + b == gr(Fraction(-3, 2), Fraction(13, 4))
        assert a - b == gr(Fraction(5, 2), Fraction(11, 4))
        assert a * b == gr(Fraction(-7, 4), Fraction(-47, 8))
        assert (a / b) * b == a
        assert a.conjugate() == gr(Fraction(1, 2), -3)
        assert complex(a) == 0.5 + 3j

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_modulus_via_conjugate(self):
        a = gr(3, 4)
        prod = a * a.conjugate()
        assert prod == gr(25)

    def test_str(self):
        assert str(gr(0, 1)) == "i"
        assert str(gr(0, -1)) == "-i"
        assert str(gr(1, 1)) == "1+i"
        assert str(gr(Fraction(1, 2), Fraction(-3, 2))) == "1/2-3/2*i"
        assert str(gr(0, Fraction(3, 2))) == "3/2*i"
        assert str(gr(Fraction(-1, 2))) == "-1/2"


# rationals with numerators and denominators well beyond 2^64, and small ones
# so that sums and products cancel
rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)
pairs = st.tuples(rationals, rationals)


def reference_str(re: Fraction, im: Fraction) -> str:
    """The printed form of re + im*i, spelled out on Fractions."""
    if im == 0:
        return str(re)
    unit = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if re == 0:
        return unit if im > 0 else f"-{unit}"
    return f"{re}{'+' if im > 0 else '-'}{unit}"


def assert_matches(z: GaussRational, re: Fraction, im: Fraction) -> None:
    """z equals re + im*i, in lowest terms, with every view agreeing."""
    assert (z.re, z.im) == (re, im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert z.d == math.lcm(re.denominator, im.denominator)
    assert z == GaussRational(re, im) and hash(z) == hash(GaussRational(re, im))
    assert str(z) == reference_str(re, im)
    assert complex(z) == complex(float(re), float(im))
    assert z.is_zero() == (re == 0 and im == 0)


class TestGaussRationalAgainstFractionPairs:
    """The integer form against (Fraction, Fraction) arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_field_operations(self, x, y):
        (r1, i1), (r2, i2) = x, y
        a, b = GaussRational(r1, i1), GaussRational(r2, i2)
        assert_matches(a, r1, i1)
        assert_matches(a + b, r1 + r2, i1 + i2)
        assert_matches(a - b, r1 - r2, i1 - i2)
        assert_matches(a * b, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        assert_matches(-a, -r1, -i1)
        assert_matches(a.conjugate(), r1, -i1)
        norm = r2 * r2 + i2 * i2
        if norm:
            assert_matches(a / b, (r1 * r2 + i1 * i2) / norm, (i1 * r2 - r1 * i2) / norm)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b

    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_equality_and_hash(self, x, y):
        a, b = GaussRational(*x), GaussRational(*y)
        assert (a == b) == (x == y)
        if a == b:
            assert hash(a) == hash(b)
        # int and Fraction arguments name the same value
        n = x[0].numerator
        assert GaussRational.of(n) == GaussRational(Fraction(n), Fraction(0))
        assert GaussRational.coerce(x[0]) == GaussRational(x[0], 0)

    def test_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussRational(0.5, 0)
        with pytest.raises(TypeError):
            GaussRational.of(1, 0.5)

    def test_immutable(self):
        z = gr(Fraction(1, 2), 3)
        for name in ("re", "im", "a", "b", "d"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
            with pytest.raises(AttributeError):
                delattr(z, name)
        assert z == gr(Fraction(1, 2), 3)

    def test_copies_and_pickles_to_equal_values(self):
        z = gr(Fraction(-7, 6), Fraction(2**70, 3))
        assert copy.copy(z) == z and copy.deepcopy(z) == z
        assert pickle.loads(pickle.dumps(z)) == z

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        values = [gr(Fraction(1, 2), 3), gr(-2, Fraction(1, 4)), gr(5), gr(0, Fraction(-2**70, 9))]
        polys = [MultiPoly(V, {(1, 0): v, (0, 2): w}) for v, w in zip(values, values[1:])]
        matrix = PolyMatrix([[polys[0], polys[1]], [polys[2], polys[0]]])

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(poly, "Fraction", refuse)
        for a in values:
            for b in values:
                a + b, a - b, a * b, a / b, a == b, hash(a)
            -a, a.conjugate(), a.is_zero(), str(a), complex(a)
        for p in polys:
            for q in polys:
                p + q, p - q, p * q
            -p, p.scale(values[0]), p.derivative("x"), p.substitute({"x": values[1]})
        plain_char_polys([matrix.substitute({"y": values[2]})], "y")[0]


# polynomials in V with small coefficients, so that sums cancel
small_coeffs = st.builds(gr, st.integers(-2, 2), st.integers(-1, 1))
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_coeffs, max_size=6
).map(lambda terms: MultiPoly(V, terms))


def assert_canonical(p: MultiPoly) -> None:
    assert all(not c.is_zero() for c in p.terms.values()), p.terms
    assert all(len(e) == len(p.vars) and min(e) >= 0 for e in p.terms)


class TestCanonicalForm:
    """Methods that build their result through the trusted constructor store
    no zero coefficient."""

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, small_coeffs, small_coeffs)
    def test_no_zero_coefficient_is_stored(self, p, q, c, v):
        for out in (p + q, p - q, p * q, -p, p.scale(c), p.derivative("x"), p.derivative("y"),
                    p + (-p), p - p, p.substitute({"x": v}), p.substitute({"x": v, "y": c}),
                    MultiPoly.constant(V, c)):
            assert_canonical(out)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_coeffs, small_coeffs)
    def test_scalar_substitution_matches_the_polynomial_route(self, p, v, w):
        as_polys = {"x": MultiPoly.constant(V, v), "y": MultiPoly.constant(V, w)}
        for names in (("x",), ("y",), ("x", "y"), ("y", "x")):
            got = p.substitute({n: {"x": v, "y": w}[n] for n in names})
            expected = p.substitute({n: as_polys[n] for n in names})
            assert got.terms == expected.terms

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_polys, min_size=4, max_size=4), small_coeffs, small_polys)
    def test_matrix_substitution_is_entrywise(self, entries, v, q):
        # the matrix coerces its bindings once and passes zero entries through
        m = PolyMatrix([entries[:2], entries[2:]])
        for bindings in ({"x": v}, {"x": 1, "y": Fraction(1, 2)}, {"y": q}, {}):
            got = m.substitute(bindings)
            for got_row, row in zip(got.rows, m.rows):
                for a, e in zip(got_row, row):
                    assert a.terms == e.substitute(bindings).terms


class TestMultiPolyRing:
    def test_ring_axioms_random(self):
        rng = random.Random(2024)
        for _ in range(40):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            zero = MultiPoly.zero(V)
            one = MultiPoly.constant(V, 1)
            assert p + zero == p
            assert p * one == p
            assert p - p == zero

    def test_power(self):
        x = MultiPoly.variable(V, "x")
        p = x + MultiPoly.constant(V, 1)
        assert p**3 == p * p * p
        assert p**0 == MultiPoly.constant(V, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 17, 255])
    def test_power_squares_no_more_than_it_uses(self, monkeypatch, k):
        # square and multiply: one product per set bit of k and one square
        # per bit after the first, never a last square that goes unused
        expected = bin(k).count("1") + k.bit_length() - 1
        p = MultiPoly.variable(V, "x") + MultiPoly.constant(V, 1)
        z = gr(1, 1)
        for cls, base, power in ((MultiPoly, p, lambda: p**k), (GaussRational, z, lambda: poly._scalar_power(z, k))):
            products = []
            with monkeypatch.context() as patch:
                mul = cls.__mul__
                patch.setattr(cls, "__mul__", lambda a, b: products.append(b) or mul(a, b))
                result = power()
            assert len(products) == expected
            assert result == functools.reduce(cls.__mul__, [base] * k)

    def test_degree_and_coefficients(self):
        x = MultiPoly.variable(V, "x")
        y = MultiPoly.variable(V, "y")
        p = x**3 * y + x * y**2 + MultiPoly.constant(V, 5)
        assert p.degree() == 4
        assert p.degree("x") == 3
        assert p.degree("y") == 2
        assert MultiPoly.zero(V).degree() == -1
        coeffs = p.coefficient_list("x")
        assert len(coeffs) == 4
        assert coeffs[0] == MultiPoly.constant(V, 5)
        assert coeffs[1] == y**2
        assert coeffs[3] == y

    def test_substitute_evaluate_consistency(self):
        rng = random.Random(99)
        for _ in range(20):
            p = rand_poly(rng)
            xv, yv = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)
            bound = p.substitute({"x": xv, "y": yv})
            assert bound.is_constant()
            assert complex(bound.constant_value()) == pytest.approx(
                p.evaluate({"x": complex(xv), "y": complex(yv)})
            )
        # x - x*y + 1 + x*y^2 at y = 1 adds x, -x, 1 and x: x cancels on the
        # way and comes back
        x, y = MultiPoly.variable(V, "x"), MultiPoly.variable(V, "y")
        p = MultiPoly(V, {(1, 0): gr(1), (1, 1): gr(-1), (0, 0): gr(1), (1, 2): gr(1)})
        assert p.substitute({"y": gr(1)}) == x + MultiPoly.constant(V, 1)
        assert (x + y).substitute({"y": gr(0)}) == x

    def test_substitute_polynomial_value(self):
        x = MultiPoly.variable(V, "x")
        y = MultiPoly.variable(V, "y")
        p = x**2 + y
        assert p.substitute({"x": y + MultiPoly.constant(V, 1)}) == (
            y**2 + y.scale(gr(3)) + MultiPoly.constant(V, 1)
        )

    def test_derivative(self):
        x = MultiPoly.variable(V, "x")
        y = MultiPoly.variable(V, "y")
        p = x**3 * y + x
        assert p.derivative("x") == (x**2 * y).scale(gr(3)) + MultiPoly.constant(V, 1)
        assert p.derivative("y") == x**3

    def test_exact_div_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rand_poly(rng)
            q = rand_poly(rng)
            if q.is_zero():
                continue
            assert (p * q).exact_div(q) == p

    def test_exact_div_inexact_raises(self):
        x = MultiPoly.variable(V, "x")
        with pytest.raises(ExactDivisionError):
            (x**2 + MultiPoly.constant(V, 1)).exact_div(x)

    def test_uses_only(self):
        x = MultiPoly.variable(V, "x")
        assert x.uses_only(["x"])
        assert not (x * MultiPoly.variable(V, "y")).uses_only(["x"])
        assert MultiPoly.constant(V, 7).uses_only([])


class TestDeterminants:
    def test_hand_2x2(self):
        x = MultiPoly.variable(V, "x")
        y = MultiPoly.variable(V, "y")
        m = PolyMatrix([[x, y], [y, x]])
        expected = x**2 - y**2
        assert det_bareiss(m) == expected
        assert det_cofactor(m) == expected

    def test_hand_3x3_integer(self):
        c = lambda v: MultiPoly.constant(V, v)
        m = PolyMatrix(
            [[c(2), c(0), c(1)], [c(1), c(3), c(2)], [c(1), c(1), c(4)]]
        )
        assert det_bareiss(m) == c(18)
        assert det_cofactor(m) == c(18)

    def test_bareiss_matches_cofactor_5x5(self):
        rng = random.Random(77)
        for _ in range(6):
            rows = [
                [rand_poly(rng, max_terms=3, max_deg=2) for _ in range(5)]
                for _ in range(5)
            ]
            m = PolyMatrix(rows)
            assert det_bareiss(m) == det_cofactor(m)

    def test_zero_pivot_column(self, monkeypatch):
        c = lambda v: MultiPoly.constant(V, v)
        m = PolyMatrix([[c(0), c(1)], [c(0), c(2)]])
        assert det_bareiss(m).is_zero()
        # the second pivot column vanishes only after one elimination step
        v3 = ("x", "y", "z")
        k = lambda v: MultiPoly.constant(v3, v)
        x, y, z = (MultiPoly.variable(v3, n) for n in v3)
        mid = PolyMatrix([[k(1), k(2), x], [k(2), k(4), y], [k(3), k(6), z]])
        assert det_cofactor(mid).is_zero()

        def no_fallback(matrix):
            raise AssertionError("det_bareiss fell back to cofactor expansion")

        monkeypatch.setattr("liouville_ep.poly.det_cofactor", no_fallback)
        assert det_bareiss(mid) == MultiPoly.zero(v3)

    def test_row_swap_sign(self):
        c = lambda v: MultiPoly.constant(V, v)
        m = PolyMatrix([[c(0), c(1)], [c(1), c(0)]])
        assert det_bareiss(m) == c(-1)

    def test_singular_polynomial_matrix(self):
        x = MultiPoly.variable(V, "x")
        m = PolyMatrix([[x, x], [x, x]])
        assert det_bareiss(m).is_zero()


class TestPolyMatrix:
    def test_kron_shapes_and_values(self):
        c = lambda v: MultiPoly.constant(V, v)
        a = PolyMatrix([[c(1), c(2)], [c(3), c(4)]])
        b = PolyMatrix([[c(0), c(1)], [c(1), c(0)]])
        k = a.kron(b)
        assert k.shape == (4, 4)
        assert k.rows[0][1] == c(1)
        assert k.rows[0][3] == c(2)
        assert k.rows[3][0] == c(3) * c(1)

    def test_matmul_identity(self):
        rng = random.Random(3)
        rows = [[rand_poly(rng, max_terms=2, max_deg=2) for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(rows)
        eye = PolyMatrix.identity(V, 3)
        assert (m @ eye).rows == m.rows
        assert (eye @ m).rows == m.rows

    def test_dagger_is_conjugate_transpose(self):
        x = MultiPoly.variable(V, "x")
        i_x = x.scale(gr(0, 1))
        m = PolyMatrix([[i_x, x], [MultiPoly.zero(V), i_x]])
        d = m.dagger()
        assert d.rows[0][0] == x.scale(gr(0, -1))
        assert d.rows[1][0] == x
        assert d.rows[0][1].is_zero()


class TestResultant:
    def test_hand_linear_pair(self):
        # res_x(x - a, x - b) = b - a up to sign convention; vanishes iff a = b
        vs = ("x", "a", "b")
        x = MultiPoly.variable(vs, "x")
        a = MultiPoly.variable(vs, "a")
        b = MultiPoly.variable(vs, "b")
        r = sylvester_resultant(x - a, x - b, "x")
        assert r == a - b or r == b - a

    def test_common_root_iff_zero(self):
        rng = random.Random(11)
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        for _ in range(25):
            roots_f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            roots_g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            f = MultiPoly.constant(vs, 1)
            for r in roots_f:
                f = f * (x - MultiPoly.constant(vs, r))
            g = MultiPoly.constant(vs, 1)
            for r in roots_g:
                g = g * (x - MultiPoly.constant(vs, r))
            res = sylvester_resultant(f, g, "x")
            assert res.is_constant()
            shares = bool(set(roots_f) & set(roots_g))
            assert res.is_zero() == shares

    def test_constant_times_poly(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        g = x**3 - MultiPoly.constant(vs, 2)
        r = sylvester_resultant(MultiPoly.constant(vs, 5), g, "x")
        assert r == MultiPoly.constant(vs, 125)

    def test_zero_input_rejected(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        with pytest.raises(ValueError):
            sylvester_resultant(MultiPoly.zero(vs), x, "x")

    def test_bivariate_elimination(self):
        # res_y(x - y, y^2 - 2) = x^2 - 2: the eliminated variable's constraint
        vs = ("x", "y")
        x = MultiPoly.variable(vs, "x")
        y = MultiPoly.variable(vs, "y")
        r = sylvester_resultant(x - y, y**2 - MultiPoly.constant(vs, 2), "y")
        assert r == x**2 - MultiPoly.constant(vs, 2) or r == MultiPoly.constant(vs, 2) - x**2


class TestGcd:
    def test_shared_factor(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        one = MultiPoly.constant(vs, 1)
        f = (x - one) * (x + one)
        g = (x - one) * (x + MultiPoly.constant(vs, 3))
        assert gcd_univariate(f, g, "x") == x - one

    def test_coprime_gives_unit(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        g = gcd_univariate(x - MultiPoly.constant(vs, 1), x + MultiPoly.constant(vs, 1), "x")
        assert g.degree("x") == 0 and not g.is_zero()

    def test_one_zero_argument(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        f = (x**2).scale(gr(3))
        g = gcd_univariate(MultiPoly.zero(vs), f, "x")
        assert g == x**2  # monic normalization

    def test_monic_output(self):
        vs = ("x",)
        x = MultiPoly.variable(vs, "x")
        f = (x - MultiPoly.constant(vs, 2)).scale(gr(0, 5))
        g = (x - MultiPoly.constant(vs, 2)).scale(gr(7))
        assert gcd_univariate(f, g, "x") == x - MultiPoly.constant(vs, 2)


# -- residue char-poly kernel ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
KV = ("g", "h", "omega")


# the 8x8 Sylvester-Hadamard matrix, |det| = 8^4 (Hadamard's bound), and a
# scalar that clears to a large numerator
H8 = [[1]]
for _ in range(3):
    H8 = [row + row for row in H8] + [row + [-x for x in row] for row in H8]
S_H8 = Fraction(2**70 + 3, 7)


def plain_char_polys(matrices, var):
    """`char_poly_berkowitz` on plain matrices: det(M - var I) for each M,
    as pencils with no perturbation and no shift."""
    return char_poly_berkowitz([(m, None, 0) for m in matrices], var, "epsilon")


def minus_omega(matrix):
    """matrix - omega I, built in the test from ring operations."""
    w = MultiPoly.variable(matrix.vars, "omega")
    return PolyMatrix(
        [[e - w if i == j else e for j, e in enumerate(row)] for i, row in enumerate(matrix.rows)]
    )


def kernel_entries(free, numerators):
    """Entries over KV in the first `free` of g, h: up to three terms of
    degree <= 2 per variable, Gaussian-rational coefficients with denominators."""
    coeff = st.builds(
        lambda a, b, c, d: GaussRational.of(Fraction(a, b), Fraction(c, d)),
        numerators, st.integers(1, 40), numerators, st.integers(1, 40),
    )
    expo = st.tuples(*(st.integers(0, 2) for _ in range(free))).map(lambda e: e + (0,) * (3 - len(e)))
    return st.dictionaries(expo, coeff, max_size=3).map(lambda t: MultiPoly(KV, t))


def square_matrices(n, free, numerators=st.integers(-9, 9)):
    return st.lists(
        st.lists(kernel_entries(free, numerators), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(PolyMatrix)


def kernel_matrices(free, numerators=st.integers(-9, 9), max_n=4):
    return st.integers(1, max_n).flatmap(lambda n: square_matrices(n, free, numerators))


def batch_members(n):
    """n x n kernel matrices with 0, 1 or 2 free variables, numerators of up
    to 10^25 and each entry scaled by its own denominator of up to 2^40, or
    the zero matrix.  Entries over coprime denominators make the cleared
    numerators a*(D_k/d) pass 2^63, as the numerators alone do."""
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**25), 10**25))
    scaled = st.builds(
        lambda m, ds: PolyMatrix(
            [[e.scale(gr(Fraction(1, d))) for e, d in zip(row, drow)] for row, drow in zip(m.rows, ds)]
        ),
        st.integers(0, 2).flatmap(lambda free: square_matrices(n, free, numerators)),
        st.lists(st.lists(st.integers(1, 2**40), min_size=n, max_size=n), min_size=n, max_size=n),
    )
    return st.one_of(scaled, st.just(PolyMatrix.identity(KV, n).scale(0)))


KVE = KV + ("epsilon",)


def with_epsilon(matrix):
    """A matrix over KV as the same matrix over KVE, of degree 0 in epsilon."""
    return PolyMatrix(
        [[MultiPoly(KVE, {e + (0,): c for e, c in entry.terms.items()}) for entry in row] for row in matrix.rows]
    )


def assembled(l0, l1, shift):
    """l0 + epsilon*l1 - (omega + shift) I over KVE, built in the test from
    ring operations (l1 a PolyMatrix or None)."""
    work = l0 if l1 is None else l0 + l1.scale(MultiPoly.variable(KVE, "epsilon"))
    omega = MultiPoly.variable(KVE, "omega") + MultiPoly.constant(KVE, shift)
    return work - PolyMatrix.identity(KVE, l0.shape[0]).scale(omega)


def shifts(l0):
    """Real and complex shifts over denominators of up to 2^40, numerators
    past int64 among them, and each constant on l0's diagonal, which the
    shift cancels exactly."""
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**25), 10**25))
    ratio = st.builds(Fraction, numerators, st.integers(1, 2**40))
    constant = (0,) * len(KVE)
    diagonal = [row[i].terms.get(constant, gr(0)) for i, row in enumerate(l0.rows)]
    return st.one_of(st.just(0), ratio.map(gr), st.builds(gr, ratio, ratio), st.sampled_from(diagonal))


def test_prime_table_holds_the_largest_primes_one_mod_four():
    # trial division fills the table: its first 8 entries are the 8 largest
    # primes p = 1 (mod 4) below the table's ceiling, each with a square
    # root of -1
    sympy = pytest.importorskip("sympy")

    bits = poly._PRIME_CEILING.bit_length() - 1
    table = poly._primes_beyond(2 ** (bits * 8 - 1))[:8]
    expected, c = [], poly._PRIME_CEILING - 3
    while len(expected) < 8:
        if sympy.isprime(c):
            expected.append(c)
        c -= 4
    assert [p for p, _ in table] == expected
    assert all(iota * iota % p == p - 1 for p, iota in table)


def one_prime_fewer(monkeypatch):
    """Make the kernel use every prime it chooses but the last."""
    primes_beyond = poly._primes_beyond
    monkeypatch.setattr(poly, "_primes_beyond", lambda bound: primes_beyond(bound)[:-1])


class TestResidueKernel:
    """`char_poly_berkowitz` (residues, interpolation and CRT) against the
    Bareiss determinant of M - omega I."""

    @pytest.mark.parametrize("free", [0, 1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_bareiss(self, free, data):
        matrix = data.draw(kernel_matrices(free))
        assert plain_char_polys([matrix], "omega")[0] == det_bareiss(minus_omega(matrix))

    @settings(max_examples=15, deadline=None)
    @given(kernel_matrices(1, st.integers(-(10**25), 10**25), max_n=3))
    def test_matches_bareiss_with_large_numerators(self, matrix):
        assert plain_char_polys([matrix], "omega")[0] == det_bareiss(minus_omega(matrix))

    def test_grid_blocks_match_one_block(self, monkeypatch):
        # 3x3 in g and h: a 4x4 grid of points, then one point per block
        rng = random.Random(5)
        matrix = PolyMatrix(
            [[MultiPoly(KV, {(rng.randint(0, 1), rng.randint(0, 1), 0): rand_gr(rng)}) for _ in range(3)]
             for _ in range(3)]
        )
        whole = plain_char_polys([matrix], "omega")[0]
        monkeypatch.setattr(poly, "_KERNEL_BLOCK", 1)
        assert plain_char_polys([matrix], "omega")[0] == whole == det_bareiss(minus_omega(matrix))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batch_matches_lone_calls(self, data):
        # pencils that share their L0 and L1 objects, L1 a matrix, a seed's
        # draws or None; real, complex and cancelling shifts; an L0 whose
        # epsilon terms meet the lifted L1 (c = -1 cancels them); mixed
        # denominators and degree bounds, integers beyond int64, zero
        # matrices and batches of one: each result equals its lone call term
        # for term, and the Bareiss determinant of the assembled pencil
        from liouville_ep.models import generic_perturbation, perturbation_draws

        n = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 99))
        matrix = with_epsilon(data.draw(batch_members(n)))
        # each L1 as the kernel takes it and as the PolyMatrix it stands for
        l1s = [(None, None), (matrix, matrix), (perturbation_draws(n, seed), generic_perturbation(KVE, n, seed))]
        l0s = [with_epsilon(m) for m in data.draw(st.lists(batch_members(n), min_size=1, max_size=2))]
        l0s.append(matrix)
        meet = data.draw(st.integers(1, 2))
        c = data.draw(st.sampled_from([gr(-1), gr(Fraction(1, 3)), gr(2, -1)]))
        l0s.append(l0s[0] + l1s[meet][1].scale(MultiPoly.variable(KVE, "epsilon").scale(c)))
        picks = st.tuples(st.integers(0, len(l0s) - 1), st.integers(0, len(l1s) - 1))
        members = data.draw(st.permutations([(len(l0s) - 1, meet)] + data.draw(st.lists(picks, max_size=3))))
        pencils = [(l0s[i], l1s[j][0], data.draw(shifts(l0s[i]))) for i, j in members]
        got = char_poly_berkowitz(pencils, "omega", "epsilon")
        assert len(got) == len(pencils)
        for (i, j), pencil, p in zip(members, pencils, got):
            (lone,) = char_poly_berkowitz([pencil], "omega", "epsilon")
            assert p.terms == lone.terms
            assert p == det_bareiss(assembled(l0s[i], l1s[j][1], pencil[2]))

    def test_batch_mismatch_rejected(self):
        two, three = PolyMatrix.identity(KV, 2), PolyMatrix.identity(KV, 3)
        wide = PolyMatrix([[MultiPoly.zero(KV)] * 3] * 2)
        with pytest.raises(ValueError, match="at least one"):
            plain_char_polys([], "omega")
        with pytest.raises(ValueError, match="one shape"):
            plain_char_polys([two, three], "omega")
        with pytest.raises(ValueError, match="one shape"):
            plain_char_polys([wide], "omega")
        with pytest.raises(ValueError, match="variable mismatch"):
            plain_char_polys([two, PolyMatrix.identity(("g", "omega"), 2)], "omega")
        # a perturbation given as draws must be (n, n, 2), and a perturbed
        # pencil needs its epsilon variable
        with pytest.raises(ValueError, match="one shape"):
            char_poly_berkowitz([(two, np.ones((3, 3, 2), dtype=np.int64), 0)], "omega", "epsilon")
        with pytest.raises(ValueError, match="'epsilon'"):
            char_poly_berkowitz([(two, two, 0)], "omega", "epsilon")

    def test_blocks_split_a_grid_point_over_matrices(self, monkeypatch):
        # five 2x2 matrices with +-g on the diagonal, so a grid of three
        # points in g; with the block lowered below one point of the batch,
        # every stack holds at most _KERNEL_BLOCK residues and every (point,
        # matrix) pair goes through once
        rng = random.Random(11)
        g = MultiPoly.variable(KV, "g")

        def c():
            return MultiPoly.constant(KV, rng.randint(-1, 1))

        batch = [
            PolyMatrix([[g.scale(rng.choice((-1, 1))) + c(), c()], [c(), g.scale(rng.choice((-1, 1))) + c()]])
            for _ in range(5)
        ]
        lone = [plain_char_polys([m], "omega")[0] for m in batch]
        stacks = []
        berkowitz = poly._berkowitz_mod
        monkeypatch.setattr(poly, "_berkowitz_mod", lambda a, mod: stacks.append(a.shape) or berkowitz(a, mod))
        monkeypatch.setattr(poly, "_KERNEL_BLOCK", 24)
        got = plain_char_polys(batch, "omega")
        count = stacks[0][0]
        assert 2 * count * len(batch) * 4 > poly._KERNEL_BLOCK  # one point of the batch
        assert all(math.prod(shape) <= poly._KERNEL_BLOCK for shape in stacks)
        assert sum(shape[1] for shape in stacks) == 2 * 3 * len(batch)
        assert [p.terms for p in got] == [p.terms for p in lone]
        assert got == [det_bareiss(minus_omega(m)) for m in batch]

    def test_rows_that_could_overflow_rejected(self, monkeypatch):
        # n products of residues below 2^28 must sum below 2^63: n < 2^7,
        # lowered here so that a 3x3 matrix stands in for a 128x128 one
        monkeypatch.setattr(poly, "_TERMS_PER_SUM", 3)
        with pytest.raises(ValueError, match="fewer than 3 rows"):
            plain_char_polys([PolyMatrix.identity(KV, 3)], "omega")[0]
        assert plain_char_polys([PolyMatrix.identity(KV, 2)], "omega")[0] == det_bareiss(
            minus_omega(PolyMatrix.identity(KV, 2))
        )

    def test_128_rows_rejected_before_residue_work(self, monkeypatch):
        def no_primes(bound):
            raise AssertionError("the kernel chose primes for a matrix it must refuse")

        monkeypatch.setattr(poly, "_primes_beyond", no_primes)
        with pytest.raises(ValueError, match="fewer than 128 rows"):
            plain_char_polys([PolyMatrix.identity(KV, 128)], "omega")

    def test_int64_headroom(self):
        # a sum of _TERMS_PER_SUM - 1 products of residues, and the at most
        # 3 terms (L0, L1, shift) that meet at one entry, each re + iota*im,
        # stay below 2^63
        top = poly._PRIME_CEILING - 1
        assert top * top * (poly._TERMS_PER_SUM - 1) < 2**63
        assert 3 * poly._PRIME_CEILING**2 < 2**63

    def test_largest_matrix_at_the_largest_prime(self):
        # n = 127 rows of residues within 2^10 of the largest table prime:
        # every Berkowitz sum is as long and its terms as large as the
        # kernel allows
        (p, _), = poly._primes_beyond(1)
        n = poly._TERMS_PER_SUM - 1
        mod = np.full((1, 1, 1), p, dtype=np.int64)
        # all entries p - 1 = -1 (mod p): det(x I + J) = x^127 + 127 x^126
        got = poly._berkowitz_mod(np.full((1, n, n), p - 1, dtype=np.int64), mod)[0]
        assert got.tolist() == [1, n] + [0] * (n - 1)
        rng = np.random.default_rng(127)
        a = rng.integers(p - 2**10, p, size=(n, n))
        got = poly._berkowitz_mod(a[None], mod)[0].tolist()
        # the x^126 coefficient is -trace, the constant (-1)^n det, both mod p
        rows = a.tolist()
        assert got[1] == -sum(rows[i][i] for i in range(n)) % p
        det = 1
        for c in range(n):
            r = next(r for r in range(c, n) if rows[r][c] % p)
            if r != c:
                rows[c], rows[r] = rows[r], rows[c]
                det = -det
            det = det * rows[c][c] % p
            inverse = pow(rows[c][c], -1, p)
            for r in range(c + 1, n):
                f = rows[r][c] * inverse % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
        assert got[-1] == (-1) ** n * det % p

    def test_dot_mod_sums_past_one_slice(self):
        # 300 terms take three slices; in one sum they would pass 2^63
        (p, _), = poly._primes_beyond(1)
        rng = np.random.default_rng(300)
        a = rng.integers(p - 2**10, p, size=(2, 300))
        b = rng.integers(p - 2**10, p, size=(300, 3))
        assert 300 * (p - 2**10) ** 2 >= 2**63
        got = poly._dot_mod(a, b, np.int64(p))
        rows, cols = a.tolist(), b.T.tolist()
        assert got.tolist() == [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in rows]

    def test_one_by_one_and_zero(self):
        entry = MultiPoly(KV, {(2, 0, 0): gr(Fraction(1, 3)), (0, 0, 0): gr(0, Fraction(-1, 2))})
        one = PolyMatrix([[entry]])
        omega = MultiPoly.variable(KV, "omega")
        assert plain_char_polys([one], "omega")[0] == entry - omega
        zero = PolyMatrix.identity(KV, 3).scale(0)
        assert plain_char_polys([zero], "omega")[0] == -(omega**3)

    def test_entries_beyond_int64(self):
        # numerators past 2^64 over coprime denominators, one free variable
        g = MultiPoly.variable(KV, "g")

        def c(re, im=0):
            return MultiPoly.constant(KV, gr(re, im))

        matrix = PolyMatrix(
            [
                [c(Fraction(2**64 + 13, 3), Fraction(1 - 2**70, 5)), c(Fraction(-(2**65), 7)) * g, g],
                [c(Fraction(3, 2**66 + 1), 1), c(Fraction(2**80 - 1, 11), Fraction(1, 9)) + g * g, c(2**64)],
                [g, c(0, Fraction(2**90, 13)), c(-1)],
            ]
        )
        assert plain_char_polys([matrix], "omega")[0] == det_bareiss(minus_omega(matrix))

    def test_hadamard_bound_is_met(self, monkeypatch):
        # the 8x8 Sylvester-Hadamard matrix H has |det H| = 8^4, Hadamard's
        # bound, so the determinant of s*H needs every prime the bound asks
        # for: one prime fewer lifts the constant term wrong
        matrix = PolyMatrix([[MultiPoly.constant(KV, gr(S_H8 * x)) for x in row] for row in H8])
        got = plain_char_polys([matrix], "omega")[0]
        assert abs(got.terms[(0, 0, 0)].re) == S_H8**8 * 8**4
        assert got == det_bareiss(minus_omega(matrix))
        one_prime_fewer(monkeypatch)
        fewer = plain_char_polys([matrix], "omega")[0]
        assert abs(fewer.terms[(0, 0, 0)].re) != S_H8**8 * 8**4

    def test_cauchy_bound_is_met(self, monkeypatch):
        # s*(1 + g)*H: on the unit torus an entry is at most 2s, and the g^4
        # coefficient of the constant term, s^8 * binomial(8, 4) * 8^4, is
        # within a factor 2^8 / 70 of the budget; s is the least integer for
        # which that coefficient needs more primes than cover 2^120, so the
        # budget's last prime is needed there
        covering = math.prod(p for p, _ in poly._primes_beyond(2**120))
        unit = 2 * math.comb(8, 4) * 8**4
        s = int((covering / unit) ** (1 / 8))
        while unit * s**8 < covering:
            s += 1
        one_plus_g = MultiPoly(KV, {(0, 0, 0): gr(1), (1, 0, 0): gr(1)})
        matrix = PolyMatrix([[one_plus_g.scale(s * x) for x in row] for row in H8])
        expected = det_bareiss(minus_omega(matrix))
        got = plain_char_polys([matrix], "omega")[0]
        assert got.terms[(4, 0, 0)] == gr(s**8 * math.comb(8, 4) * 8**4)
        assert got == expected
        one_prime_fewer(monkeypatch)
        assert plain_char_polys([matrix], "omega")[0] != expected

    def test_prime_budget_is_pinned(self, monkeypatch):
        # at most this many primes for each of these calls: a looser bound
        # fails here, a tighter one passes
        from liouville_ep.models import char_poly, model_from_dict, perturbation_matrix
        from liouville_ep.scan import classify

        counts = []
        primes_beyond = poly._primes_beyond

        def spy(bound):
            primes = primes_beyond(bound)
            counts.append(len(primes))
            return primes

        monkeypatch.setattr(poly, "_primes_beyond", spy)
        half = GaussRational.of(Fraction(-1, 2))
        lambda3 = model_from_dict(json.loads((ROOT / "perfbench" / "models" / "lambda3.json").read_text()))
        point = {"g1": 1, "g2": 1, "O": 0}
        bound = lambda3.generator.substitute(point)
        classify(bound, half)  # the 4-fold point's batch of seeded pencils
        char_poly(bound, perturbation_matrix(lambda3.generator, "O").substitute(point), shift=half)
        ladder4 = model_from_dict(json.loads((ROOT / "tests" / "models" / "ladder4.json").read_text()))
        char_poly(ladder4.generator.substitute({"g1": 1, "g2": 1, "O": Fraction(1, 3)}))  # the g3 scan's
        classify(ladder4.generator.substitute({"g1": 1, "g2": 1, "g3": 1, "O": 0}), half)  # 6-fold point
        assert len(counts) == 4
        assert all(got <= most for got, most in zip(counts, [2, 1, 2, 4])), counts
        # every kernel call of the benchmark's exact-2level and amoeba
        # traffic at the default seed: a scan's char poly, then its
        # candidates' classification batch where it has one
        from liouville_ep import cli

        qubit = ["--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0", "--bind", "J=1/4"]
        spin_half = ["--model", "spin_half", "--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_y=2"]
        traffic = [
            (["polygon", *qubit, "--omega0", "-1/2", "--perturb", "gamma_f"], [1]),
            (["polygon", *spin_half, "--bind", "gamma_x=1", "--omega0", "-3"], [1]),
            (["amoeba", *qubit, "--omega0", "-1/2", "--perturb", "gamma_f"], [1]),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "J=1/4"], [1, 1]),
            (["scan", *spin_half], [1, 2]),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0"], [1]),
        ]
        for argv, most in traffic:
            counts.clear()
            assert cli.main(argv) == 0
            assert len(counts) == len(most)
            assert all(got <= m for got, m in zip(counts, most)), (argv, counts)

    def test_unbound_sylvester_tensor_grid(self):
        # the unbound spin_half discriminant's 7x7 Sylvester matrix: four free
        # parameters, a 25,344-point tensor grid; both sides have omega-degree
        # 7, so agreeing with Bareiss at omega = 0..7 makes them equal
        from liouville_ep.models import OMEGA, builtin_model, char_poly

        q = char_poly(builtin_model("spin_half").generator)
        matrix = sylvester_matrix(q.derivative(OMEGA), q, OMEGA)
        start = time.perf_counter()
        got = plain_char_polys([matrix], OMEGA)[0]
        assert time.perf_counter() - start < 10
        assert got.degree(OMEGA) == 7
        for c in range(8):
            shifted = matrix - PolyMatrix.identity(matrix.vars, 7).scale(c)
            assert got.substitute({OMEGA: c}) == det_bareiss(shifted)

    def test_unbound_multi_parameter_pencil(self):
        # unbound spin_half with a generic eps perturbation and a complex
        # shift: a tensor grid over five variables
        from liouville_ep.models import EPSILON, builtin_model, char_poly, generic_perturbation

        l0 = builtin_model("spin_half").generator
        l1 = generic_perturbation(l0.vars, 4, 7)
        shift = GaussRational.of(Fraction(1, 3), Fraction(-2, 5))
        eps = MultiPoly.variable(l0.vars, EPSILON)
        omega = MultiPoly.variable(l0.vars, "omega") + MultiPoly.constant(l0.vars, shift)
        work = (l0 + l1.scale(eps)) - PolyMatrix.identity(l0.vars, 4).scale(omega)
        assert char_poly(l0, l1, shift=shift) == det_bareiss(work)

    def test_lambda3_classify_pencil_is_frozen(self):
        # the char poly of the 9x9 lambda3 pencil at the 4-fold point (g1 =
        # g2 = 1, O = 0, omega0 = -1/2, generic seed 42), as the Python-integer
        # Berkowitz kernel computed it
        from liouville_ep.expr import parse_expression
        from liouville_ep.models import char_poly, generic_perturbation, model_from_dict

        model = model_from_dict(json.loads((ROOT / "perfbench" / "models" / "lambda3.json").read_text()))
        bound = model.generator.substitute({"g1": 1, "g2": 1, "O": 0})
        f = char_poly(bound, generic_perturbation(bound.vars, 9, 42), shift=Fraction(-1, 2))
        frozen = (ROOT / "tests" / "fixtures" / "lambda3_classify_char_poly.txt").read_text()
        assert f == parse_expression(frozen.strip(), bound.vars)


# -- dense univariate layer ----------------------------------------------------

X = ("x",)


def gauss_ints(imaginary):
    parts = st.integers(-6, 6)
    return st.tuples(parts, parts if imaginary else st.just(0))


def dense_polys(imaginary, min_degree=0, max_degree=5):
    """Dense Gaussian-integer polynomials, highest power first, leading pair nonzero."""
    return st.lists(gauss_ints(imaginary), min_size=min_degree + 1, max_size=max_degree + 1).filter(
        lambda p: p[0] != (0, 0)
    )


def dense_mul(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            o = out[i + j]
            out[i + j] = (o[0] + ar * br - ai * bi, o[1] + ar * bi + ai * br)
    return out


def as_poly(p):
    n = len(p) - 1
    return MultiPoly(X, {(n - k,): GaussRational.of(*c) for k, c in enumerate(p)})


def monic(p):
    return as_poly(p).scale(GaussRational.of(1) / GaussRational.of(*p[0]))


class TestDenseLayer:
    @settings(max_examples=80, deadline=None)
    @given(st.booleans().flatmap(lambda im: st.tuples(
        dense_polys(im), dense_polys(im), dense_polys(im, max_degree=2))))
    def test_prs_matches_the_oracles(self, polys):
        # then a shared factor makes the gcd non-trivial and the resultant zero
        a, b, common = polys
        for a, b in ((a, b), (dense_mul(a, common), dense_mul(b, common))):
            if len(a) == len(b) == 1:
                continue
            res, last = _subresultant_prs(a, b)
            oracle = sylvester_resultant(as_poly(a), as_poly(b), "x")
            assert GaussRational.of(*res) == oracle.constant_value()
            assert monic(last) == gcd_univariate(as_poly(a), as_poly(b), "x")

    def test_prs_argument_order(self):
        # Res(b, a) = (-1)^(deg a deg b) Res(a, b): x + 1 and x^3 + 2
        a, b = [(1, 0), (1, 0)], [(1, 0), (0, 0), (0, 0), (2, 0)]
        assert _subresultant_prs(a, b)[0] == (1, 0)
        assert _subresultant_prs(b, a)[0] == (-1, 0)

    def test_prs_zero_argument(self):
        p = [(2, 0), (0, 0), (-8, 0)]
        assert _subresultant_prs([], p) == ((0, 0), p)
        assert _subresultant_prs(p, []) == ((0, 0), p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(dense_polys(False, min_degree=1, max_degree=3), min_size=1, max_size=3), st.integers(1, 6))
    def test_square_free_part_matches_sympy(self, factors, scalar):
        # p = scalar * f_1 f_2^2 f_3^3 ...; sympy is the oracle here only
        sympy = pytest.importorskip("sympy")
        p = [(scalar, 0)]
        for k, f in enumerate(factors):
            for _ in range(k + 1):
                p = dense_mul(p, f)
        part = square_free(p)
        assert all(im == 0 for _, im in part)
        x = sympy.symbols("x")
        expr = sympy.Poly([re for re, _ in p], x)
        assert sympy.Poly([re for re, _ in part], x) == sympy.Poly(sympy.sqf_part(expr), x).primitive()[1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(dense_polys(True, min_degree=0, max_degree=2), min_size=1, max_size=3))
    def test_square_free_part_of_gaussian_input(self, factors):
        # the part is square-free, divides p, and p divides a power of it
        p = [(1, 0)]
        for k, f in enumerate(factors):
            for _ in range(k + 1):
                p = dense_mul(p, f)
        if len(p) == 1:
            return
        part = square_free(p)
        x = as_poly(part)
        assert gcd_univariate(x, x.derivative("x"), "x").degree("x") == 0
        assert gcd_univariate(as_poly(p), x, "x") == monic(part)
        power = [(1, 0)]
        for _ in range(len(p) - 1):  # no root of p is more than deg p fold
            power = dense_mul(power, part)
        assert poly._prem(power, p) == []

    @settings(max_examples=60, deadline=None)
    @given(dense_polys(True), gauss_ints(True), st.integers(1, 9))
    def test_horner_is_homogenised_evaluation(self, p, num, den):
        value = GaussRational.of(Fraction(num[0], den), Fraction(num[1], den))
        expected = as_poly(p).substitute({"x": value}).constant_value()
        got = horner(p, num, den)
        scale = Fraction(den) ** (len(p) - 1)
        assert GaussRational.of(Fraction(got[0]) / scale, Fraction(got[1]) / scale) == expected
