"""Acceptance gate: one test per headline capability, each reporting a
single ACCEPTANCE <n> PASS/FAIL line (also echoed in the terminal summary).

Tolerances are part of the contract and are stated inline; exact checks use
rational equality, numerical ones carry explicit bars.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from liouville_ep.expr import format_poly, parse_expression
from liouville_ep.models import (
    JumpChannel,
    ModelSpec,
    build_liouvillian,
    builtin_model,
    char_poly,
    generic_perturbation,
    perturbation_matrix,
)
from liouville_ep.newton import (
    assert_routes_agree,
    lower_hull,
    newton_points,
    tropical_roots,
    tropicalize,
)
from liouville_ep.numerics import amoeba_sample, encircle, fit_tentacles, scaling_sweep
from liouville_ep.poly import (
    GaussRational,
    MultiPoly,
    PolyMatrix,
    det_bareiss,
    det_cofactor,
    sylvester_resultant,
)
from liouville_ep.scan import geometric_multiplicity, scan_parameter

RESULTS = []


@contextmanager
def criterion(idx, name):
    try:
        yield
    except BaseException:
        RESULTS.append((idx, name, False))
        print(f"ACCEPTANCE {idx} FAIL {name}")
        raise
    else:
        RESULTS.append((idx, name, True))
        print(f"ACCEPTANCE {idx} PASS {name}")


QUBIT_POINT = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
SPIN_POINT = {
    "Omega": Fraction(1),
    "gamma_minus": Fraction(0),
    "gamma_x": Fraction(1),
    "gamma_y": Fraction(2),
}


def qubit_bound():
    m = builtin_model("qubit")
    return m, m.generator.substitute(QUBIT_POINT)


def spin_bound():
    m = builtin_model("spin_half")
    return m, m.generator.substitute(SPIN_POINT)


def qubit_charpoly(param):
    m, bound = qubit_bound()
    pert = perturbation_matrix(m.generator, param).substitute(QUBIT_POINT)
    return char_poly(bound, pert, shift=Fraction(-1, 2))


def spin_charpoly(seed=42):
    m, bound = spin_bound()
    pert = generic_perturbation(m.variables, 4, seed)
    return char_poly(bound, pert, shift=Fraction(-3))


def segment_signature(f):
    polygon = lower_hull(newton_points(f))
    out = []
    for s in polygon.segments:
        if s.slope is None:
            out.append(("vertical", s.start.i))
        else:
            out.append((str(s.slope), s.hspan))
    return out


def test_criterion_1_exact_quartic_degeneracy():
    with criterion(1, "exact quartic degeneracy and geometric multiplicity, < 1 s"):
        t0 = time.perf_counter()
        m, bound = qubit_bound()
        p = char_poly(bound, shift=Fraction(-1, 2))
        omega = MultiPoly.variable(m.variables, "omega")
        assert p == omega**4
        gm = geometric_multiplicity(bound, GaussRational.of(Fraction(-1, 2)))
        assert gm == 2
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_newton_polygons():
    with criterion(2, "frozen Newton polygon segment tables (exact)"):
        assert segment_signature(qubit_charpoly("gamma_f")) == [("-1", 1), ("-1/3", 3)]
        assert segment_signature(qubit_charpoly("J")) == [("vertical", 2), ("-1/2", 2)]
        assert ("-1/2", 2) in segment_signature(spin_charpoly())


def test_criterion_3_tropical_equivalence():
    with criterion(3, "tropical roots match polygon orders (named + 200 random)"):
        for f in (qubit_charpoly("gamma_f"), qubit_charpoly("J"), spin_charpoly()):
            assert_routes_agree(f)
        rng = random.Random(1234)
        biv = ("omega", "epsilon")
        checked = 0
        while checked < 200:
            terms = {}
            for _ in range(rng.randint(1, 7)):
                e = (rng.randint(0, 6), rng.randint(0, 6))
                c = GaussRational.of(rng.randint(-5, 5), rng.randint(-5, 5))
                if not c.is_zero():
                    terms[e] = c
            if not terms:
                continue
            f = MultiPoly(biv, terms)
            _, report = assert_routes_agree(f)
            trop = tropical_roots(tropicalize(f))
            assert trop == list(report.finite())
            checked += 1


def test_criterion_4_amoeba_tentacles():
    with criterion(4, "amoeba tentacle slopes within 0.15 on a 40x64 grid, < 30 s each"):
        jobs = [
            # (shifted char poly, modulus window, directions, expected slopes)
            (spin_charpoly(), (1e-6, 1e-2), [Fraction(2), None], {0: 2.0}),
            (qubit_charpoly("gamma_f"), (1e-6, 1e-2), [Fraction(1), Fraction(3)], {0: 1.0, 1: 3.0}),
            # the J window must contain the finite branch point at |eps| = 1/2
            (qubit_charpoly("J"), (1e-4, 1.0), [Fraction(0), Fraction(2)], {0: 0.0, 1: 2.0}),
        ]
        for f, window, directions, expected in jobs:
            t0 = time.perf_counter()
            cloud = amoeba_sample(f, window, moduli=40, phases=64)
            fits = fit_tentacles(cloud, directions)
            for k, slope in expected.items():
                assert fits[k].fitted_slope is not None
                assert abs(fits[k].fitted_slope - slope) <= 0.15, (
                    f"direction {directions[k]}: fitted {fits[k].fitted_slope}"
                )
            assert time.perf_counter() - t0 < 30.0


def test_criterion_5_scaling_fits():
    with criterion(5, "perturbation scaling slopes within 0.05 (25-point sweeps)"):
        eps = np.geomspace(1e-6, 1e-2, 25)
        m, bound = spin_bound()
        l1 = generic_perturbation(m.variables, 4, 42)
        fit = scaling_sweep(bound, l1, -3.0, eps)
        assert abs(fit.slope - 0.5) <= 0.05

        mq, bq = qubit_bound()
        l_gf = perturbation_matrix(mq.generator, "gamma_f").substitute(QUBIT_POINT)
        fit_gf = scaling_sweep(bq, l_gf, -0.5, eps)
        assert abs(fit_gf.slope - 1 / 3) <= 0.05

        l_j = perturbation_matrix(mq.generator, "J").substitute(QUBIT_POINT)
        fit_j = scaling_sweep(bq, l_j, -0.5, eps)
        assert abs(fit_j.slope - 0.5) <= 0.05


def test_criterion_6_encircling_permutations():
    with criterion(6, "monodromy cycles at radius 0.01, 400 steps"):
        m, bound = spin_bound()
        l1 = generic_perturbation(m.variables, 4, 42)
        assert encircle(bound, l1).cycles == (2, 1, 1)

        mq, bq = qubit_bound()
        l_gf = perturbation_matrix(mq.generator, "gamma_f").substitute(QUBIT_POINT)
        assert encircle(bq, l_gf).cycles == (3, 1)

        l_j = perturbation_matrix(mq.generator, "J").substitute(QUBIT_POINT)
        assert encircle(bq, l_j).cycles == (2, 1, 1)


def test_criterion_7_scan_completeness():
    with criterion(7, "rate scan finds and classifies every slice candidate"):
        m = builtin_model("spin_half")
        bindings = {k: v for k, v in SPIN_POINT.items() if k != "gamma_x"}
        out = scan_parameter(m.generator, "gamma_x", bindings, m.rate_params)
        assert not out.continuum
        by_value = {c.value: c for c in out.candidates}

        def gr(x):
            return GaussRational.of(Fraction(x))

        for value, w0, order in ((gr(1), gr(-3), 2), (gr(3), gr(-5), 2)):
            cand = by_value[value]
            assert cand.exact
            assert cand.omega0_values == (w0,)
            ((_, cls),) = cand.classifications
            assert (cls.kind, cls.order) == ("ep", order)
        # remaining regimes: -(gamma_minus + 2*gamma_y)/2 and the quartic root
        for value in (gr(-2), gr(Fraction(-1, 8))):
            cand = by_value[value]
            assert cand.exact
            assert {cls.kind for _, cls in cand.classifications} == {"diabolic"}
        assert set(by_value) == {gr(1), gr(3), gr(-2), gr(Fraction(-1, 8))}

        # the closed-form degeneracy curves annihilate the discriminant of
        # the unbound char poly
        v = m.variables
        q = char_poly(m.generator)
        disc = sylvester_resultant(q.derivative("omega"), q, "omega")
        for curve in ("gamma_y - Omega", "gamma_y + Omega", "-gamma_minus/2 - gamma_y"):
            assert disc.substitute({"gamma_x": parse_expression(curve, v)}).is_zero()


def _random_poly(rng, variables, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        c = GaussRational.of(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )
        if not c.is_zero():
            terms[e] = c
    return MultiPoly(variables, terms)


def test_criterion_8_property_suites():
    with criterion(8, "property suites: algebra oracles and numeric oracle"):
        rng = random.Random(2718)
        v = ("x", "y")

        # ring axioms on random triples
        for _ in range(30):
            a, b, c = (_random_poly(rng, v) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        # Bareiss determinant against the cofactor oracle
        for _ in range(2):
            mat = PolyMatrix(
                [[_random_poly(rng, v, max_terms=2, max_exp=1) for _ in range(5)] for _ in range(5)]
            )
            assert det_bareiss(mat) == det_cofactor(mat)

        # resultant vanishes exactly when a common root was planted
        x = MultiPoly.variable(v, "x")
        for _ in range(25):
            roots_p = [rng.randint(-4, 4) for _ in range(3)]
            roots_q = [rng.randint(5, 9) for _ in range(2)]
            planted = rng.random() < 0.5
            if planted:
                roots_q[0] = roots_p[0]
            p = MultiPoly.constant(v, 1)
            for r in roots_p:
                p = p * (x - MultiPoly.constant(v, r))
            q = MultiPoly.constant(v, 1)
            for r in roots_q:
                q = q * (x - MultiPoly.constant(v, r))
            res = sylvester_resultant(p, q, "x")
            assert res.is_zero() == planted

        # every standard-channel model conserves the trace functional exactly
        def trace_cols(generator):
            n2 = generator.shape[0]
            dim = math.isqrt(n2)
            diag = [d * dim + d for d in range(dim)]
            zero = MultiPoly.zero(generator.vars)
            cols = []
            for col in range(n2):
                total = zero
                for r in diag:
                    total = total + generator.rows[r][col]
                cols.append(total)
            return cols

        spin = builtin_model("spin_half")
        zero = MultiPoly.zero(spin.variables)
        assert all(c == zero for c in trace_cols(spin.generator))
        for k in range(5):
            params = ("r0", "r1")
            variables = params + ("omega", "epsilon")

            def cmat(size):
                return PolyMatrix(
                    [
                        [
                            MultiPoly.constant(
                                variables,
                                GaussRational.of(rng.randint(-3, 3), rng.randint(-3, 3)),
                            )
                            for _ in range(size)
                        ]
                        for _ in range(size)
                    ]
                )

            spec = ModelSpec(
                f"random{k}",
                2,
                params,
                cmat(2),
                (
                    JumpChannel(MultiPoly.variable(variables, "r0"), cmat(2)),
                    JumpChannel(MultiPoly.variable(variables, "r1"), cmat(2)),
                ),
            )
            generator = build_liouvillian(spec)
            zero_v = MultiPoly.zero(variables)
            assert all(c == zero_v for c in trace_cols(generator))

        # parse/format round-trip
        for _ in range(200):
            p = _random_poly(rng, v)
            assert parse_expression(format_poly(p), v) == p

        # numeric scaling oracle: omega^n = eps gives slope exactly 1/n
        for n in (2, 3, 4):
            l0 = np.diag(np.ones(n - 1), 1)
            l1 = np.zeros((n, n))
            l1[n - 1][0] = 1.0
            fit = scaling_sweep(l0, l1, 0.0, np.geomspace(1e-6, 1e-2, 12), cluster_tol=1e-2)
            assert abs(fit.slope - 1.0 / n) <= 1e-3
