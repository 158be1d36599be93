"""Generator assembly: vectorization, built-in models, frozen entries."""

import copy
import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_ep import models, poly
from liouville_ep.expr import format_poly, parse_expression
from liouville_ep.models import (
    EPSILON,
    OMEGA,
    JumpChannel,
    ModelSpec,
    ambient_variables,
    build_liouvillian,
    builtin_model,
    char_poly,
    generic_perturbation,
    model_from_dict,
    perturbation_matrix,
)
from liouville_ep.poly import GaussRational, MultiPoly, PolyMatrix, det_bareiss, det_cofactor

ROOT = Path(__file__).resolve().parent.parent


def entries(matrix):
    return [[format_poly(e) for e in row] for row in matrix.rows]


def trace_row(generator):
    """vec(I)^T L: one functional per column; all zero iff trace is conserved."""
    n2 = generator.shape[0]
    dim = math.isqrt(n2)
    diag = [d * dim + d for d in range(dim)]
    cols = []
    for c in range(n2):
        total = MultiPoly.zero(generator.vars)
        for r in diag:
            total = total + generator.rows[r][c]
        cols.append(total)
    return cols


class TestVectorization:
    def test_row_major(self):
        # density entry (row, col) sits at index row*dim + col: with a
        # Hamiltonian alone, L vec(rho) == vec(-i [H, rho])
        text = [["1", "2-i"], ["2+i", "-1"]]
        m = model_from_dict({"name": "h", "dim": 2, "params": [], "hamiltonian": text, "jumps": []})
        h = [[parse_expression(e, ()).constant_value() for e in row] for row in text]
        rho = [[GaussRational.of(*e) for e in row] for row in [[(1, 0), (4, -2)], [(3, 1), (2, 0)]]]
        minus_i = GaussRational.of(0, -1)

        def product(a, b, r, c):
            return a[r][0] * b[0][c] + a[r][1] * b[1][c]

        expected = [
            minus_i * (product(h, rho, r, c) - product(rho, h, r, c)) for r in range(2) for c in range(2)
        ]
        vec = [rho[r][c] for r in range(2) for c in range(2)]
        got = [
            sum((a * v for a, v in zip(row[1:], vec[1:])), row[0] * vec[0])
            for row in m.generator.constant_rows()
        ]
        assert got == expected

    def test_vec_identity(self):
        # vec(A rho B) == (A kron B^T) vec(rho) in the row-major convention
        v = ("x",)

        def mat(vals):
            return PolyMatrix(
                [[MultiPoly.constant(v, GaussRational.of(*e)) for e in row] for row in vals]
            )

        a = mat([[(1, 2), (0, -1)], [(3, 0), (1, 1)]])
        b = mat([[(2, 0), (1, 0)], [(0, 1), (-1, 0)]])
        rho = mat([[(1, 0), (4, -2)], [(0, 0), (2, 3)]])
        prod = a @ rho @ b

        def vec(m):
            return PolyMatrix([[m.rows[i][j]] for i in range(2) for j in range(2)])

        assert vec(prod) == a.kron(b.transpose()) @ vec(rho)


class TestSpinHalf:
    def test_frozen_entries(self):
        m = builtin_model("spin_half")
        assert entries(m.generator) == [
            ["-gamma_minus - gamma_x - gamma_y", "0", "0", "gamma_x + gamma_y"],
            ["0", "-i*Omega - 1/2*gamma_minus - gamma_x - gamma_y", "gamma_x - gamma_y", "0"],
            ["0", "gamma_x - gamma_y", "i*Omega - 1/2*gamma_minus - gamma_x - gamma_y", "0"],
            ["gamma_minus + gamma_x + gamma_y", "0", "0", "-gamma_x - gamma_y"],
        ]

    def test_metadata(self):
        m = builtin_model("spin_half")
        assert m.dim == 2
        assert m.params == ("Omega", "gamma_minus", "gamma_x", "gamma_y")
        assert m.variables == m.params + (OMEGA, EPSILON)
        assert m.rate_params == ("gamma_minus", "gamma_x", "gamma_y")

    def test_trace_preserved(self):
        m = builtin_model("spin_half")
        zero = MultiPoly.zero(m.variables)
        assert all(c == zero for c in trace_row(m.generator))

    def test_char_poly_factors(self):
        # coherence block contributes omega^2 + 2*a*omega + a^2 + Omega^2 - (gx-gy)^2
        # with a = gamma_minus/2 + gamma_x + gamma_y; populations give the rest
        m = builtin_model("spin_half")
        p = char_poly(m.generator)
        quad = parse_expression(
            "omega^2 + (gamma_minus + 2*gamma_x + 2*gamma_y)*omega"
            " + (gamma_minus/2 + gamma_x + gamma_y)^2 + Omega^2 - (gamma_x - gamma_y)^2",
            m.variables,
        )
        quotient = p.exact_div(quad)
        expected = parse_expression(
            "omega^2 + (gamma_minus + 2*gamma_x + 2*gamma_y)*omega", m.variables
        )
        assert quotient == expected

    def test_hermiticity_preserving_symmetry(self):
        # L maps Hermitian densities to Hermitian derivatives, which in the
        # flattened picture reads P M P == conj(M) with P the vec-transpose
        # permutation P[f(i,j)][f(j,i)] = 1
        m = builtin_model("spin_half")
        v = m.variables
        one = MultiPoly.constant(v, 1)
        perm_rows = [[MultiPoly.zero(v)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                perm_rows[i * 2 + j][j * 2 + i] = one
        perm = PolyMatrix(perm_rows)
        mat = m.generator
        assert perm @ mat @ perm == mat.conjugate()


class TestQubit:
    def test_frozen_effective_entries(self):
        m = builtin_model("qubit")
        assert entries(m.generator) == [
            ["-gamma_e", "i*J", "-i*J", "gamma_f"],
            ["i*J", "-1/2*gamma_e - 1/2*gamma_f", "0", "-i*J"],
            ["-i*J", "0", "-1/2*gamma_e - 1/2*gamma_f", "i*J"],
            ["0", "-i*J", "i*J", "-gamma_f"],
        ]

    def test_metadata(self):
        m = builtin_model("qubit")
        assert m.params == ("gamma_e", "gamma_f", "J")
        assert m.rate_params == ("gamma_e", "gamma_f")

    def test_loss_channel_breaks_trace(self):
        m = builtin_model("qubit")
        cols = trace_row(m.generator)
        minus_ge = parse_expression("-gamma_e", m.variables)
        assert cols[0] == minus_ge
        assert cols[3] == MultiPoly.zero(m.variables)

    def test_rate_derivative_matrices(self):
        m = builtin_model("qubit")
        d_gf = perturbation_matrix(m.generator, "gamma_f")
        got = [[format_poly(e) for e in row] for row in d_gf.rows]
        assert got == [
            ["0", "0", "0", "1"],
            ["0", "-1/2", "0", "0"],
            ["0", "0", "-1/2", "0"],
            ["0", "0", "0", "-1"],
        ]
        d_j = perturbation_matrix(m.generator, "J")
        got_j = [[format_poly(e) for e in row] for row in d_j.rows]
        assert got_j == [
            ["0", "i", "-i", "0"],
            ["i", "0", "0", "-i"],
            ["-i", "0", "0", "i"],
            ["0", "-i", "i", "0"],
        ]

    def test_quartic_root_at_special_point(self):
        m = builtin_model("qubit")
        bound = m.generator.substitute(
            {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
        )
        p = char_poly(bound, shift=Fraction(-1, 2))
        omega = MultiPoly.variable(m.variables, OMEGA)
        assert p == omega**4

    def test_double_root_for_every_coupling(self):
        # with gamma_e = 1, gamma_f = 0 the shifted polynomial keeps a double
        # root at the shift for every J: the two lowest coefficients vanish
        # identically as polynomials in J
        m = builtin_model("qubit")
        bound = m.generator.substitute({"gamma_e": Fraction(1), "gamma_f": Fraction(0)})
        p = char_poly(bound, shift=Fraction(-1, 2))
        coeffs = p.coefficient_list(OMEGA)
        zero = MultiPoly.zero(m.variables)
        assert coeffs[0] == zero
        assert coeffs[1] == zero
        assert coeffs[2] != zero


class TestPerturbations:
    def test_generic_is_deterministic(self):
        v = ("a",)
        p1 = generic_perturbation(v, 4, 42)
        p2 = generic_perturbation(v, 4, 42)
        p3 = generic_perturbation(v, 4, 43)
        assert p1 == p2
        assert p1 != p3
        assert p1.shape == (4, 4)

    @pytest.mark.parametrize("size", [1, 4, 9, 16])
    def test_generic_matches_validated_build(self, size):
        v = ambient_variables(("a",))
        for seed in range(60):
            rng = random.Random(seed)

            def draw():
                # row-major, real part first
                re, im = rng.randint(-9, 9), rng.randint(-9, 9)
                return MultiPoly.constant(v, GaussRational.of(re, im))

            expected = PolyMatrix([[draw() for _ in range(size)] for _ in range(size)])
            got = generic_perturbation(v, size, seed)
            assert got.vars == expected.vars
            # GaussRational equality compares (a, b, d)
            assert term_maps(got) == term_maps(expected)

    def test_generic_entry_bounds(self):
        p = generic_perturbation(("a",), 5, 7)
        for row in p.rows:
            for e in row:
                c = e.constant_value()
                assert abs(c.re) <= 9 and abs(c.im) <= 9
                assert c.re.denominator == 1 and c.im.denominator == 1

    def test_unknown_parameter_rejected(self):
        m = builtin_model("qubit")
        with pytest.raises(ValueError):
            perturbation_matrix(m.generator, "nope")

    def test_char_poly_with_perturbation_degree(self):
        m = builtin_model("spin_half")
        pert = generic_perturbation(m.variables, 4, 42)
        p = char_poly(m.generator, pert)
        assert p.degree(OMEGA) == 4
        assert p.degree(EPSILON) == 4


def kronecker_generator(spec):
    """The generator as dense Kronecker products, summed in the order
    -i[H, .], then channel by channel anticommutator and, for a channel that
    refills, refill: the independent oracle for the entry-wise assembly."""
    v, n = spec.variables, spec.dim
    ident = PolyMatrix.identity(v, n)
    h = spec.hamiltonian
    total = (h.kron(ident) - ident.kron(h.transpose())).scale(GaussRational.of(0, -1))
    for ch in spec.channels:
        g = ch.operator
        ghg = g.dagger() @ g
        anti = (ghg.kron(ident) + ident.kron(ghg.transpose())).scale(Fraction(-1, 2))
        total = total + anti.scale(ch.rate)
        if ch.refill:
            total = total + g.kron(g.conjugate()).scale(ch.rate)
    return total


def term_maps(matrix):
    """Every entry's term map, compared term for term in any order."""
    return [[e.terms for e in row] for row in matrix.rows]


ASSEMBLY_VARS = ambient_variables(("g", "h"))
# few coefficients and low degrees, so that sums cancel often
assembly_entries = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(lambda e: e + (0, 0)),
    st.sampled_from(
        [GaussRational.of(1), GaussRational.of(-1), GaussRational.of(0, 1),
         GaussRational.of(Fraction(1, 2), -2), GaussRational.of(Fraction(-1, 3))]
    ),
    max_size=3,
).map(lambda t: MultiPoly(ASSEMBLY_VARS, t))


@st.composite
def assembly_specs(draw):
    """A model of dim 1-4 with sparse operators and zero to three channels,
    refilling or loss-only; H is not required to be Hermitian."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)

    def sparse():
        rows = [[MultiPoly.zero(ASSEMBLY_VARS)] * n for _ in range(n)]
        for i, j, e in draw(st.lists(st.tuples(index, index, assembly_entries), max_size=n + 1)):
            rows[i][j] = e
        return PolyMatrix(rows)

    channels = tuple(
        JumpChannel(draw(assembly_entries), sparse(), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 3)))
    )
    return ModelSpec("random", n, ("g", "h"), sparse(), channels)


class TestEntrywiseAssembly:
    """Entry-wise assembly against the Kronecker formula, term for term."""

    @given(assembly_specs())
    @settings(max_examples=150, deadline=None)
    def test_matches_kronecker_formula(self, spec):
        assert term_maps(build_liouvillian(spec)) == term_maps(kronecker_generator(spec))

    @pytest.mark.parametrize(
        "model", ["qubit", "spin_half", "perfbench/models/lambda3.json", "tests/models/ladder4.json"]
    )
    def test_unsplit_models(self, model):
        m = load_model(model)
        assert term_maps(m.generator) == term_maps(kronecker_generator(m))


def load_model(model):
    if model.endswith(".json"):
        return model_from_dict(json.loads((ROOT / model).read_text()))
    return builtin_model(model)


class TestOneModelObject:
    @pytest.mark.parametrize(
        "model, rate_params",
        [
            ("spin_half", ("gamma_minus", "gamma_x", "gamma_y")),
            ("qubit", ("gamma_e", "gamma_f")),
            ("perfbench/models/lambda3.json", ("g1", "g2")),
            ("tests/models/ladder4.json", ("g1", "g2", "g3")),
        ],
    )
    def test_carries_its_generator_and_rate_params(self, model, rate_params):
        m = load_model(model)
        assert isinstance(m, ModelSpec)
        assert term_maps(m.generator) == term_maps(build_liouvillian(m))
        assert m.rate_params == rate_params

    def test_replace_rebuilds_the_generator(self):
        m = builtin_model("qubit")
        h = m.hamiltonian.scale(2)
        replaced = dataclasses.replace(m, hamiltonian=h)
        assert replaced.hamiltonian == h
        assert term_maps(replaced.generator) == term_maps(build_liouvillian(replaced))
        assert replaced.generator != m.generator
        assert replaced.rate_params == m.rate_params

    def test_derived_fields_stay_out_of_eq_and_repr(self):
        m = builtin_model("spin_half")
        other = copy.copy(m)
        object.__setattr__(other, "generator", m.generator.scale(0))
        object.__setattr__(other, "rate_params", ())
        assert other == m
        assert "generator" not in repr(m) and "rate_params" not in repr(m)


class TestCharPolyContract:
    def test_perturbation_shape_mismatch(self):
        m = builtin_model("qubit")
        with pytest.raises(ValueError):
            char_poly(m.generator, generic_perturbation(m.variables, 3, 1))

    def test_missing_ambient_variables(self):
        mat = PolyMatrix.identity(("x",), 2)
        with pytest.raises(ValueError):
            char_poly(mat)


KERNEL_VARS = ("g", "h", "k", OMEGA, EPSILON)


def _random_entry(rng, free, max_deg, span=5, den=6):
    """A random polynomial in `free` over KERNEL_VARS with Gaussian-rational
    coefficients that carry denominators; about a third of entries are zero."""
    if rng.random() < 0.3:
        return MultiPoly.zero(KERNEL_VARS)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expo = tuple(rng.randint(0, max_deg) if v in free else 0 for v in KERNEL_VARS)
        terms[expo] = GaussRational.of(
            Fraction(rng.randint(-span, span), rng.randint(1, den)),
            Fraction(rng.randint(-span, span), rng.randint(1, den)),
        )
    return MultiPoly(KERNEL_VARS, terms)


def _random_matrix(seed, n, free=(), max_deg=0):
    rng = random.Random(seed)
    return PolyMatrix([[_random_entry(rng, free, max_deg) for _ in range(n)] for _ in range(n)])


def _parsed(rows):
    return PolyMatrix([[parse_expression(e, KERNEL_VARS) for e in row] for row in rows])


def _shifted(matrix, perturbation, shift):
    """M + eps*L1 - (omega + shift) I, built in the test from ring operations."""
    v, n = matrix.vars, matrix.shape[0]
    work = matrix
    if perturbation is not None:
        work = work + perturbation.scale(MultiPoly.variable(v, EPSILON))
    omega = MultiPoly.variable(v, OMEGA) + MultiPoly.constant(v, shift)
    return work - PolyMatrix.identity(v, n).scale(omega)


class TestCharPolyKernel:
    """`char_poly` (Berkowitz plus interpolation) against two determinant oracles."""

    CASES = {
        "gaussian-rational": (_random_matrix(1, 5), _random_matrix(2, 5), Fraction(-3, 7)),
        "degree-3-in-one-parameter": (
            _random_matrix(3, 4, ("g",), 3), None, GaussRational.of(Fraction(1, 2), Fraction(-1, 3))
        ),
        "quadratic-rate": (
            model_from_dict(
                {
                    "name": "square-rate",
                    "dim": 2,
                    "params": ["g", "h", "k"],
                    "hamiltonian": [["0", "h/2"], ["h/2", "0"]],
                    "jumps": [{"rate": "g^2", "operator": [["0", "1"], ["0", "0"]]}],
                }
            ).generator,
            _random_matrix(4, 4),
            GaussRational.of(0, Fraction(1, 3)),
        ),
        "two-variables": (_random_matrix(5, 3, ("g", "h"), 2), _random_matrix(6, 3), Fraction(1, 5)),
        "three-variables": (
            _random_matrix(7, 3, ("g", "h", "k"), 1), _random_matrix(8, 3, ("g",), 1), 2
        ),
        "one-by-one": (_parsed([["g^2/3 - 1/2*i"]]), _parsed([["h"]]), Fraction(5, 4)),
        "zero": (PolyMatrix.identity(KERNEL_VARS, 3).scale(0), None, 0),
        "zero-with-shift": (
            PolyMatrix.identity(KERNEL_VARS, 3).scale(0), None, GaussRational.of(1, 1)
        ),
        "singular": (
            _parsed([["g", "2*g", "1/3"], ["h", "2*h", "i"], ["g + h", "2*g + 2*h", "1/3 + i"]]),
            None,
            0,
        ),
        "complex-shift": (
            _random_matrix(10, 4, ("g",), 1),
            _random_matrix(11, 4),
            GaussRational.of(Fraction(-2, 3), Fraction(5, 7)),
        ),
        # L0's epsilon terms collide with every raised L1 term, one of them
        # cancelling, and the shift cancels a diagonal constant exactly
        "colliding-terms": (
            _parsed([["2 + epsilon", "epsilon/3 - g"], ["h*epsilon", "-1/2 + 5*epsilon"]]),
            _parsed([["-1", "2/3"], ["3*h", "4 - i"]]),
            2,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_determinant_oracles(self, case):
        matrix, perturbation, shift = self.CASES[case]
        got = char_poly(matrix, perturbation, shift=shift)
        work = _shifted(matrix, perturbation, shift)
        assert got == det_bareiss(work)
        if matrix.shape[0] <= 4:
            assert got == det_cofactor(work)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kernel_reads_the_assembled_pencil(self, case):
        # the reader returns the parts' terms: those of M and of eps*L1 built
        # by ring operations, terms that meet kept apart, pencil by pencil;
        # it never reads the shift, which the kernel puts on the diagonal, so
        # a pencil with shift 0 reads the same terms one pencil further on
        matrix, perturbation, shift = self.CASES[case]
        v, n = matrix.vars, matrix.shape[0]
        parts = [matrix]
        if perturbation is not None:
            parts.append(perturbation.scale(MultiPoly.variable(v, EPSILON)))
        expected = sorted(
            (i * n + j, e, (c.a, c.b, c.d))
            for part in parts
            for i, row in enumerate(part.rows)
            for j, entry in enumerate(row)
            for e, c in entry.terms.items()
        )
        pencils = [(matrix, perturbation, shift), (matrix, perturbation, 0)]
        _, _, at, expo, abd = poly._pencil_terms(pencils, EPSILON)
        got = [(k, tuple(e), tuple(c)) for k, e, c in zip(at.tolist(), expo.tolist(), abd.T.tolist())]
        first = got[:len(expected)]
        assert sorted(first) == expected
        assert got[len(expected):] == [(k + n * n, e, c) for k, e, c in first]
        assert (at[:len(expected)] < n * n).all()

    def test_degree_bound_reaches_the_true_degree(self):
        # diag(g^3, g^2): the omega^0 coefficient g^5 sits exactly at the
        # row-sum bound, so an interpolation grid one point short would miss it
        got = char_poly(_parsed([["g^3", "0"], ["0", "g^2"]]))
        assert got == parse_expression("(g^3 - omega) * (g^2 - omega)", KERNEL_VARS)

    @pytest.mark.parametrize("where", ["matrix", "perturbation"])
    def test_omega_entry_rejected(self, where):
        plain = _parsed([["1", "g"], ["0", "2"]])
        with_omega = _parsed([["1", "omega"], ["0", "2"]])
        args = (with_omega, plain) if where == "matrix" else (plain, with_omega)
        with pytest.raises(ValueError, match="omega"):
            char_poly(*args)


class TestModelFromDict:
    DATA = {
        "name": "toy",
        "dim": 2,
        "params": ["g"],
        "hamiltonian": [["0", "g"], ["g", "0"]],
        "jumps": [{"rate": "g", "operator": [["0", "1"], ["0", "0"]]}],
    }

    def test_round_trip_matches_hand_built(self):
        m = model_from_dict(self.DATA)
        assert m.params == ("g",)
        assert m.rate_params == ("g",)
        variables = m.variables
        h = PolyMatrix(
            [[parse_expression(s, variables) for s in row] for row in self.DATA["hamiltonian"]]
        )
        op = PolyMatrix(
            [
                [parse_expression(s, variables) for s in row]
                for row in self.DATA["jumps"][0]["operator"]
            ]
        )
        spec = ModelSpec("toy", 2, ("g",), h, (JumpChannel(parse_expression("g", variables), op),))
        assert m.generator == build_liouvillian(spec)

    def test_refill_false_is_a_loss_only_channel(self):
        loss_only = dict(self.DATA, jumps=[dict(self.DATA["jumps"][0], refill=False)])
        m, standard = model_from_dict(loss_only), model_from_dict(self.DATA)
        assert [ch.refill for ch in m.channels] == [False]
        assert model_from_dict(dict(self.DATA, jumps=[dict(self.DATA["jumps"][0], refill=True)])) == standard
        # the refill term G kron conj(G) is gone: here only entry (0, 3)
        refill = [(r, c) for r in range(4) for c in range(4)
                  if m.generator.rows[r][c] != standard.generator.rows[r][c]]
        assert refill == [(0, 3)]
        assert m.generator.rows[0][3].is_zero()

    @pytest.mark.parametrize("refill", [1, 0, "true", None, [True]])
    def test_refill_must_be_a_boolean(self, refill):
        data = dict(self.DATA, jumps=[dict(self.DATA["jumps"][0], refill=refill)])
        with pytest.raises(ValueError) as err:
            model_from_dict(data)
        assert f"jumps[0].refill must be true or false, got {refill!r}" in str(err.value)

    def test_dict_model_preserves_trace(self):
        m = model_from_dict(self.DATA)
        zero = MultiPoly.zero(m.variables)
        assert all(c == zero for c in trace_row(m.generator))

    def test_missing_key(self):
        with pytest.raises(ValueError):
            model_from_dict({"name": "x"})

    def test_reserved_parameter_name(self):
        bad = dict(self.DATA, params=["omega"])
        with pytest.raises(ValueError):
            model_from_dict(bad)

    def test_shape_mismatch(self):
        bad = dict(self.DATA, dim=3)
        with pytest.raises(ValueError):
            model_from_dict(bad)

    @pytest.mark.parametrize(
        "hamiltonian, message",
        [
            ([["0", "g"], ["0", "0"]],
             "hamiltonian[0][1]: expected 0, the conjugate of hamiltonian[1][0], got g"),
            ([["i", "g"], ["g", "0"]],
             "hamiltonian[0][0]: expected -i, the conjugate of hamiltonian[0][0], got i"),
            ([["0", "i*g"], ["i*g", "0"]],
             "hamiltonian[0][1]: expected -i*g, the conjugate of hamiltonian[1][0], got i*g"),
        ],
        ids=["upper-only", "imaginary-diagonal", "symmetric-imaginary"],
    )
    def test_non_hermitian_hamiltonian_is_named(self, hamiltonian, message):
        with pytest.raises(ValueError) as err:
            model_from_dict(dict(self.DATA, hamiltonian=hamiltonian))
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"hamiltonian": [["epsilon", "g"], ["g", "0"]]},
             "hamiltonian[0][0]: uses the reserved variable 'epsilon'"),
            ({"hamiltonian": [["0", "g*epsilon"], ["g*epsilon", "0"]]},
             "hamiltonian[0][1]: uses the reserved variable 'epsilon'"),
            ({"jumps": [{"rate": "g*omega", "operator": [["0", "1"], ["0", "0"]]}]},
             "jumps[0].rate: uses the reserved variable 'omega'"),
            ({"jumps": [{"rate": "g", "operator": [["0", "1"], ["omega^2", "0"]]}]},
             "jumps[0].operator[1][0]: uses the reserved variable 'omega'"),
            ({"jumps": [{"rate": "i*g", "operator": [["0", "1"], ["0", "0"]]}]},
             "jumps[0].rate: i*g has a non-real coefficient"),
            ({"jumps": [{"rate": "g", "operator": [["0", "1"], ["0", "0"]]},
                        {"rate": "g + 1/2*i", "operator": [["0", "0"], ["1", "0"]]}]},
             "jumps[1].rate: g + 1/2*i has a non-real coefficient"),
        ],
        ids=["epsilon-in-hamiltonian", "repeated-epsilon-text", "omega-in-rate", "omega-in-operator", "imaginary-rate",
             "complex-constant-in-rate"],
    )
    def test_reserved_variable_or_complex_rate_is_named(self, change, message):
        with pytest.raises(ValueError) as err:
            model_from_dict(dict(self.DATA, **change))
        assert str(err.value).startswith(message)

    def test_each_distinct_entry_text_is_parsed_once(self, monkeypatch):
        # lambda3's 27 matrix entries hold two distinct texts per matrix
        texts = []
        parse = models.parse_expression
        monkeypatch.setattr(models, "parse_expression", lambda text, variables: (
            texts.append(text) or parse(text, variables)
        ))
        data = json.loads((ROOT / "perfbench" / "models" / "lambda3.json").read_text())
        model_from_dict(data)
        matrices = [data["hamiltonian"]] + [jump["operator"] for jump in data["jumps"]]
        distinct = [text for matrix in matrices for text in {e for row in matrix for e in row}]
        assert sorted(texts) == sorted(distinct + [jump["rate"] for jump in data["jumps"]])
        assert len(distinct) == 6

    def test_real_rate_with_imaginary_unit_is_accepted(self):
        m = model_from_dict(
            dict(self.DATA, jumps=[{"rate": "i*g*i + 2*g", "operator": [["0", "1"], ["0", "0"]]}])
        )
        assert m.channels[0].rate == parse_expression("g", m.variables)

    def test_hermitian_complex_hamiltonian_is_accepted(self):
        m = model_from_dict(dict(self.DATA, hamiltonian=[["g", "1-i*g"], ["1+i*g", "-g"]]))
        assert m.hamiltonian == m.hamiltonian.dagger()

    @pytest.mark.parametrize("path", ["perfbench/models/lambda3.json", "tests/models/ladder4.json"])
    def test_shipped_models_are_hermitian(self, path):
        h = model_from_dict(json.loads((ROOT / path).read_text())).hamiltonian
        assert h == h.dagger()


class TestBuiltinLookup:
    @pytest.mark.parametrize("name", ["qubit", "spin_half"])
    def test_hamiltonians_are_hermitian(self, name):
        h = builtin_model(name).hamiltonian
        assert h == h.dagger()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_model("nope")

    @pytest.mark.parametrize("name", ["qubit", "spin_half"])
    def test_builtins_are_model_descriptions(self, name, monkeypatch):
        # a built-in is its description read by model_from_dict, which a
        # model file round-trips through JSON unchanged
        reads = []
        read = models.model_from_dict
        monkeypatch.setattr(models, "model_from_dict", lambda data: reads.append(data) or read(data))
        m = builtin_model(name)
        (data,) = reads
        assert json.loads(json.dumps(data)) == data
        assert model_from_dict(data) == m
        assert entries(model_from_dict(data).generator) == entries(m.generator)

