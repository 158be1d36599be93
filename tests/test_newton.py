"""Newton polygons, tropical roots, and the dual-route cross-check."""

import math
import random
from fractions import Fraction

import pytest

from liouville_ep import cli, newton
from liouville_ep.expr import parse_expression
from liouville_ep.models import builtin_model, char_poly, generic_perturbation, perturbation_matrix
from liouville_ep.newton import (
    EPReport,
    NewtonPoint,
    Segment,
    assert_routes_agree,
    directions_to_list,
    ep_orders,
    lower_hull,
    newton_points,
    polygon_to_dict,
    report_to_dict,
    tentacle_directions,
    tropical_roots,
    tropicalize,
)
from liouville_ep.poly import GaussRational, MultiPoly

BIV = ("omega", "epsilon")


def biv(text):
    return parse_expression(text, BIV)


def pts(*pairs):
    return [NewtonPoint(i, j) for i, j in pairs]


def seg_table(polygon):
    return [("vertical" if s.slope is None else str(s.slope), s.hspan) for s in polygon.segments]


class TestNewtonPoints:
    def test_support(self):
        f = biv("omega^2 - epsilon")
        assert newton_points(f) == pts((0, 1), (2, 0))

    def test_lowest_epsilon_power_wins(self):
        f = biv("omega*epsilon^3 + omega*epsilon + epsilon^2")
        assert newton_points(f) == pts((0, 2), (1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            newton_points(MultiPoly.zero(BIV))

    def test_leftover_variables_rejected(self):
        f = parse_expression("omega + x", ("omega", "epsilon", "x"))
        with pytest.raises(ValueError):
            newton_points(f)


class TestLowerHull:
    def test_collinear_points_merge(self):
        poly = lower_hull(pts((0, 2), (1, 1), (2, 0)))
        assert poly.vertices == tuple(pts((0, 2), (2, 0)))
        assert seg_table(poly) == [("-1", 2)]

    def test_point_above_hull_dropped(self):
        poly = lower_hull(pts((0, 2), (1, 5), (2, 0)))
        assert poly.vertices == tuple(pts((0, 2), (2, 0)))

    def test_lowest_point_per_degree_kept(self):
        poly = lower_hull(pts((0, 3), (0, 1), (1, 0)))
        assert poly.vertices == tuple(pts((0, 1), (1, 0)))

    def test_vertical_marker_when_origin_column_missing(self):
        poly = lower_hull(pts((2, 1), (4, 0)))
        assert seg_table(poly) == [("vertical", 0), ("-1/2", 2)]
        assert poly.segments[0].start == NewtonPoint(2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lower_hull([])


class TestEPOrders:
    def test_valuations_ascend_and_infs_last(self):
        report = ep_orders(lower_hull(pts((1, 2), (2, 0), (4, 0))))
        assert report.entries == ((Fraction(0), 2), (Fraction(2), 1), (math.inf, 1))
        assert report.finite() == ((Fraction(0), 2), (Fraction(2), 1))

    def test_max_order_picks_largest_reciprocal(self):
        report = EPReport(((Fraction(1, 3), 3), (Fraction(1, 2), 2), (Fraction(1), 1)))
        assert report.max_order() == 3

    def test_max_order_ignores_non_reciprocal(self):
        assert EPReport(((Fraction(1), 1),)).max_order() is None
        assert EPReport(((Fraction(2, 3), 3),)).max_order() is None
        assert EPReport(((math.inf, 2),)).max_order() is None


class TestTentacleDirections:
    def test_mapping(self):
        poly = lower_hull(pts((1, 2), (3, 1), (5, 1)))
        # vertical marker -> horizontal tentacle; slope -1/2 -> 2; flat -> vertical
        assert directions_to_list(tentacle_directions(poly)) == ["0", "2", "vertical"]


class TestTropicalRoute:
    def test_simple_breakpoint(self):
        tf = tropicalize(biv("omega^2 - epsilon"))
        assert tropical_roots(tf) == [(Fraction(1, 2), 2)]
        assert tf(Fraction(0)) == 0
        assert tf(Fraction(1)) == 1

    def test_triple_crossing_single_breakpoint(self):
        # offsets 3 - i for i = 0..3: all four forms meet at w = 1
        f = biv("epsilon^3 + omega*epsilon^2 + omega^2*epsilon + omega^3")
        assert tropical_roots(tropicalize(f)) == [(Fraction(1), 3)]

    def test_two_breakpoints(self):
        f = biv("omega^3 + omega*epsilon + epsilon^4")
        assert tropical_roots(tropicalize(f)) == [(Fraction(1, 2), 2), (Fraction(3), 1)]

    def test_monomial_has_no_breakpoints(self):
        assert tropical_roots(tropicalize(biv("omega^2*epsilon"))) == []

    def test_routes_agree_on_randoms(self):
        rng = random.Random(1234)
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
            f = MultiPoly(BIV, terms)
            _, report = assert_routes_agree(f)
            assert sum(m for _, m in report.entries) == f.degree("omega")
            checked += 1

    def test_disagreement_raises(self, monkeypatch):
        # a tropical route that misplaces every breakpoint
        monkeypatch.setattr(newton, "tropical_roots", lambda tf: [(Fraction(7), 1)])
        with pytest.raises(AssertionError):
            assert_routes_agree(biv("omega^2 - epsilon"))
        argv = ["polygon", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0",
                "--bind", "J=1/4", "--omega0", "-1/2"]
        assert cli.main(argv) == 4


class TestFrozenModelPolygons:
    def qubit_bound(self):
        m = builtin_model("qubit")
        b = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
        return m, m.generator.substitute(b), b

    def test_qubit_rate_perturbation(self):
        m, bound, b = self.qubit_bound()
        pert = perturbation_matrix(m.generator, "gamma_f").substitute(b)
        f = char_poly(bound, pert, shift=Fraction(-1, 2))
        points = newton_points(f)
        assert points == pts((0, 2), (1, 1), (2, 1), (3, 1), (4, 0))
        poly = lower_hull(points)
        assert poly.vertices == tuple(pts((0, 2), (1, 1), (4, 0)))
        assert seg_table(poly) == [("-1", 1), ("-1/3", 3)]
        _, report = assert_routes_agree(f)
        assert report.entries == ((Fraction(1, 3), 3), (Fraction(1), 1))
        assert report.max_order() == 3
        assert directions_to_list(tentacle_directions(poly)) == ["1", "3"]

    def test_qubit_coupling_perturbation(self):
        m, bound, b = self.qubit_bound()
        pert = perturbation_matrix(m.generator, "J").substitute(b)
        f = char_poly(bound, pert, shift=Fraction(-1, 2))
        expected = parse_expression(
            "omega^4 + omega^2*(4*epsilon^2 + 2*epsilon)", m.variables
        )
        assert f == expected
        poly = lower_hull(newton_points(f))
        assert newton_points(f) == pts((2, 1), (4, 0))
        assert seg_table(poly) == [("vertical", 0), ("-1/2", 2)]
        _, report = assert_routes_agree(f)
        assert report.entries == ((Fraction(1, 2), 2), (math.inf, 2))
        assert report.max_order() == 2
        assert directions_to_list(tentacle_directions(poly)) == ["0", "2"]

    def test_spin_half_generic_perturbation(self):
        m = builtin_model("spin_half")
        b = {
            "Omega": Fraction(1),
            "gamma_minus": Fraction(0),
            "gamma_x": Fraction(1),
            "gamma_y": Fraction(2),
        }
        bound = m.generator.substitute(b)
        pert = generic_perturbation(m.variables, 4, 42)
        f = char_poly(bound, pert, shift=Fraction(-3))
        points = newton_points(f)
        assert points == pts((0, 1), (1, 1), (2, 0), (3, 1), (4, 0))
        poly = lower_hull(points)
        assert seg_table(poly) == [("-1/2", 2), ("0", 2)]
        _, report = assert_routes_agree(f)
        assert report.entries == ((Fraction(0), 2), (Fraction(1, 2), 2))
        assert report.max_order() == 2
        assert directions_to_list(tentacle_directions(poly)) == ["2", "vertical"]


class TestSerialization:
    def test_polygon_dict(self):
        poly = lower_hull(pts((2, 1), (4, 0)))
        d = polygon_to_dict(poly)
        assert d["points"] == [[2, 1], [4, 0]]
        assert d["vertices"] == [[2, 1], [4, 0]]
        assert d["segments"] == [
            {"slope": "vertical", "start": [2, 1], "end": [2, 1], "hspan": 0},
            {"slope": "-1/2", "start": [2, 1], "end": [4, 0], "hspan": 2},
        ]

    def test_report_dict(self):
        report = ep_orders(lower_hull(pts((2, 1), (4, 0))))
        d = report_to_dict(report)
        assert d == {
            "valuations": [
                {"valuation": "1/2", "multiplicity": 2},
                {"valuation": "inf", "multiplicity": 2},
            ]
        }
