"""Command-line interface: payload shapes, determinism, exit codes."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape  # the reference escape; the package uses html.escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_ep import cli, models, newton, poly, scan
from liouville_ep.expr import parse_expression
from liouville_ep.models import builtin_model, char_poly, perturbation_matrix
from liouville_ep.numerics import amoeba_sample, encircle, scaling_sweep

QUBIT_EP = [
    "--model",
    "qubit",
    "--bind",
    "gamma_e=1",
    "--bind",
    "gamma_f=0",
    "--bind",
    "J=1/4",
]
SPIN_SLICE = [
    "--model",
    "spin_half",
    "--bind",
    "Omega=1",
    "--bind",
    "gamma_minus=0",
    "--bind",
    "gamma_y=2",
]

# a plain decay channel: L has eigenvalues {0, -g/2, -g/2, -g}
DECAY = {
    "name": "decay",
    "dim": 2,
    "params": ["g"],
    "hamiltonian": [["0", "0"], ["0", "0"]],
    "jumps": [{"rate": "g", "operator": [["0", "1"], ["0", "0"]]}],
}


# the built-in models written as model files
SPIN_HALF = {
    "name": "spin_half",
    "dim": 2,
    "params": ["Omega", "gamma_minus", "gamma_x", "gamma_y"],
    "hamiltonian": [["Omega/2", "0"], ["0", "-Omega/2"]],
    "jumps": [
        {"rate": "gamma_minus", "operator": [["0", "0"], ["1", "0"]]},
        {"rate": "gamma_x", "operator": [["0", "1"], ["1", "0"]]},
        {"rate": "gamma_y", "operator": [["0", "-i"], ["i", "0"]]},
    ],
}
QUBIT = {
    "name": "qubit",
    "dim": 2,
    "params": ["gamma_e", "gamma_f", "J"],
    "hamiltonian": [["0", "J"], ["J", "0"]],
    "jumps": [
        {"rate": "gamma_e", "operator": [["1", "0"], ["0", "0"]], "refill": False},
        {"rate": "gamma_f", "operator": [["0", "1"], ["0", "0"]]},
    ],
}


# the 3-level ladder of the classify benchmark: a 9x9 generator
LAMBDA3 = {
    "name": "lambda3",
    "dim": 3,
    "params": ["g1", "g2", "O"],
    "hamiltonian": [["0", "O", "0"], ["O", "0", "O"], ["0", "O", "0"]],
    "jumps": [
        {"rate": "g1", "operator": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
        {"rate": "g2", "operator": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
    ],
}
# the three scans of the exact-2level benchmark: (argv after --model,
# continuum, [(value, exact, omega0, classification labels)])
SCAN_FROZEN = [
    (
        ["spin_half", "--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_y=2"],
        False,
        [
            ("-2", True, ["0"], ["diabolic"]),
            ("-1/8", True, ["0", "-15/4"], ["diabolic", "diabolic"]),
            ("1", True, ["-3"], ["EP(2)"]),
            ("3", True, ["-5"], ["EP(2)"]),
        ],
    ),
    (
        ["qubit", "--bind", "gamma_e=1", "--bind", "J=1/4"],
        False,
        [
            ("-344895/756736", False, [], []),
            ("0", True, ["-1/2"], ["EP(3)"]),
            ("1406787/883972-411153/291280*i", False, [], []),
            ("1406787/883972+411153/291280*i", False, [], []),
            ("2508418/766423", False, [], []),
        ],
    ),
    (["qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0"], True, []),
]
# the 4-level ladder: a 16x16 generator
LADDER4 = Path(__file__).resolve().parent / "models" / "ladder4.json"
# the benchmark's 3-level model and the stdout of its g2 scan, frozen
LAMBDA3_MODEL = Path(__file__).resolve().parent.parent / "perfbench" / "models" / "lambda3.json"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
LAMBDA3_G2_SCAN = FIXTURES / "lambda3_g2_scan.json"


def qubit_ep_pencil(perturb):
    """The bound qubit generator at QUBIT_EP and its perturbation, as the
    CLI builds them."""
    m = builtin_model("qubit")
    point = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
    return m.generator.substitute(point), perturbation_matrix(m.generator, perturb).substitute(point)


def csv_columns(text):
    """The CSV rows below the summary and header lines, as columns of cells."""
    return list(zip(*(row.split(",") for row in text.strip().split("\n")[2:])))


def same_bits(cells, values):
    parsed = np.array([float(c) for c in cells])
    values = np.asarray(values, dtype=float).ravel()
    return parsed.shape == values.shape and np.array_equal(
        parsed.view(np.int64), values.view(np.int64)
    )


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestBuild:
    def test_bound_entries(self, capsys):
        payload = run_json(capsys, ["build"] + QUBIT_EP)
        assert payload["schema"] == 1
        assert payload["model"] == "qubit"
        assert payload["dim"] == 4
        assert payload["params"] == ["gamma_e", "gamma_f", "J"]
        assert payload["bound"] == {"gamma_e": "1", "gamma_f": "0", "J": "1/4"}
        assert payload["entries"][0][0] == "-1"
        assert payload["entries"][0][3] == "0"

    def test_symbolic_entries(self, capsys):
        payload = run_json(capsys, ["build", "--model", "qubit"])
        assert payload["bound"] == {}
        assert payload["entries"][0][0] == "-gamma_e"
        assert payload["entries"][3][3] == "-gamma_f"

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert cli.main(["build", "--model", "spin_half", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["model"] == "spin_half"
        assert payload["dim"] == 4

    @pytest.mark.parametrize("name, model", [("lambda3", LAMBDA3_MODEL), ("ladder4", LADDER4)])
    def test_file_model_entries_are_frozen(self, capsys, name, model):
        # the whole generator of each shipped model file, as first recorded
        assert cli.main(["build", "--model", str(model)]) == 0
        assert capsys.readouterr().out == (FIXTURES / f"{name}_build.json").read_text()


class TestPolygon:
    def test_rate_perturbation_payload(self, capsys):
        payload = run_json(
            capsys,
            ["polygon"] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"],
        )
        assert payload["schema"] == 1
        assert payload["omega0"] == "-1/2"
        assert payload["perturbation"] == "gamma_f"
        slopes = [s["slope"] for s in payload["polygon"]["segments"]]
        assert slopes == ["-1", "-1/3"]
        assert payload["valuations"] == [
            {"valuation": "1/3", "multiplicity": 3},
            {"valuation": "1", "multiplicity": 1},
        ]
        assert payload["tentacle_directions"] == ["1", "3"]
        assert payload["classification"]["label"] == "EP(3)"
        assert payload["classification"]["alg_mult"] == 4
        assert payload["classification"]["geom_mult"] == 2

    def test_rate_perturbation_is_cross_checked(self, capsys, monkeypatch):
        # the printed polygon goes through the tropical route, not only
        # classify's generic seeds: the cross-check reads this char poly's
        # support and walks its tropical function
        seen, walked = [], []
        newton_points, tropical_roots = newton.newton_points, newton.tropical_roots
        monkeypatch.setattr(newton, "newton_points", lambda f: seen.append(f) or newton_points(f))
        monkeypatch.setattr(newton, "tropical_roots", lambda tf: walked.append(tf) or tropical_roots(tf))
        run_json(capsys, ["polygon"] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"])
        m = builtin_model("qubit")
        point = {"gamma_e": Fraction(1), "gamma_f": Fraction(0), "J": Fraction(1, 4)}
        bound = m.generator.substitute(point)
        pert = perturbation_matrix(m.generator, "gamma_f").substitute(point)
        f = char_poly(bound, pert, shift=Fraction(-1, 2))
        assert f in seen
        assert newton.tropicalize(f) in walked

    @pytest.mark.parametrize("point", [
        QUBIT_EP + ["--omega0", "-1/2"],
        ["--model", str(LAMBDA3_MODEL), "--bind", "g1=1", "--bind", "g2=1", "--bind", "O=0",
         "--omega0", "-1/2"],
    ], ids=["qubit", "lambda3"])
    @pytest.mark.parametrize("perturb", ["generic", "named"])
    def test_one_kernel_call(self, capsys, monkeypatch, point, perturb):
        # a named perturbation's pencil joins classify's seeded pencil in one
        # batch, so every polygon pays the kernel's fixed cost once, and the
        # certified seed is --seed
        batches = []
        kernel = poly.char_poly_berkowitz
        monkeypatch.setattr(models, "char_poly_berkowitz", lambda pencils, *names: (
            batches.append(len(pencils)) or kernel(pencils, *names)
        ))
        named = "gamma_f" if point[1] == "qubit" else "O"
        argv = ["polygon", *point] + (["--perturb", named] if perturb == "named" else [])
        payload = run_json(capsys, argv)
        assert batches == [1 + (perturb == "named")]
        assert payload["perturbation"] == (named if perturb == "named" else "generic")
        assert payload["classification"]["seeds"] == [42]

    def test_classification_reports_the_jordan_blocks(self, capsys):
        c = run_json(capsys, ["polygon"] + QUBIT_EP + ["--omega0", "-1/2"])["classification"]
        assert (c["label"], c["jordan_blocks"], c["alg_mult"], c["geom_mult"]) == ("EP(3)", [3, 1], 4, 2)
        assert (c["seeds"], c["notes"]) == ([42], [])
        payload = run_json(capsys, ["scan"] + SPIN_SLICE)
        assert {
            c["value"]: [(k["omega0"], k["jordan_blocks"], k["seeds"]) for k in c["classifications"]]
            for c in payload["candidates"]
        } == {
            "-2": [("0", [1, 1], [42])],
            "-1/8": [("0", [1, 1], [42]), ("-15/4", [1, 1], [42])],
            "1": [("-3", [2], [42])],
            "3": [("-5", [2], [42])],
        }

    def test_non_generic_seed_is_retried(self, capsys, monkeypatch):
        # a zero perturbation at --seed moves no eigenvalue, so classify goes
        # on to the next seed; the generic polygon printed is the certified
        # seed's, and after CLASSIFY_SEEDS zero seeds the point is inconclusive
        argv = ["polygon"] + SPIN_SLICE + ["--bind", "gamma_x=1", "--omega0", "-3"]
        draws = scan.perturbation_draws
        zero = {42}
        monkeypatch.setattr(scan, "perturbation_draws", lambda size, seed: (
            np.zeros((size, size, 2), dtype=np.int64) if seed in zero else draws(size, seed)
        ))
        payload = run_json(capsys, argv)
        c = payload["classification"]
        assert (c["label"], c["seeds"], c["notes"]) == ("EP(2)", [42, 43], ["non-generic-seed"])
        assert payload["seed"] == 42
        assert (payload["polygon"], payload["valuations"]) == (c["polygon"], c["valuations"])
        zero.update((43, 44))
        c = run_json(capsys, argv)["classification"]
        assert (c["kind"], c["label"], c["order"], c["jordan_blocks"]) == ("inconclusive", "inconclusive", None, [2])
        assert c["seeds"] == [42, 43, 44]
        assert c["notes"] == ["non-generic-seed"] * 3 + ["no-generic-seed"]

    def test_shift_sign_minus_is_equivalent(self, capsys):
        base = run_json(
            capsys,
            ["polygon"] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"],
        )
        flipped = run_json(
            capsys,
            ["polygon"]
            + QUBIT_EP
            + ["--omega0", "1/2", "--shift-sign", "minus", "--perturb", "gamma_f"],
        )
        assert flipped == base

    def test_generic_default(self, capsys):
        payload = run_json(
            capsys, ["polygon"] + SPIN_SLICE + ["--bind", "gamma_x=1", "--omega0", "-3"]
        )
        assert payload["perturbation"] == "generic"
        assert payload["seed"] == 42
        assert payload["classification"]["label"] == "EP(2)"
        slopes = [s["slope"] for s in payload["polygon"]["segments"]]
        assert slopes == ["-1/2", "0"]

    def test_exact_layer_needs_no_bareiss(self, capsys, monkeypatch, tmp_path):
        # every char poly comes from the dense kernel and every scan
        # discriminant from the dense univariate layer: no sparse division
        def refuse(*args, **kwargs):
            raise RuntimeError("sparse determinant route called")

        monkeypatch.setattr(poly, "det_bareiss", refuse)
        monkeypatch.setattr(poly.MultiPoly, "exact_div", refuse)
        for argv, continuum, frozen in SCAN_FROZEN:
            payload = run_json(capsys, ["scan", "--model"] + argv)
            assert payload["continuum"] is continuum
            assert [
                (c["value"], c["exact"], c["omega0"],
                 [k["label"] for k in c["classifications"]])
                for c in payload["candidates"]
            ] == frozen
        # the 4-fold diabolic point of the 9x9 lambda3 generator
        model = tmp_path / "lambda3.json"
        model.write_text(json.dumps(LAMBDA3))
        payload = run_json(
            capsys,
            ["polygon", "--model", str(model), "--bind", "g1=1", "--bind", "g2=1",
             "--bind", "O=0", "--omega0", "-1/2"],
        )
        segments = [
            {"slope": "-1", "start": [0, 4], "end": [4, 0], "hspan": 4},
            {"slope": "0", "start": [4, 0], "end": [9, 0], "hspan": 5},
        ]
        valuations = [
            {"valuation": "0", "multiplicity": 5},
            {"valuation": "1", "multiplicity": 4},
        ]
        assert payload["polygon"]["segments"] == segments
        assert payload["valuations"] == valuations
        assert payload["tentacle_directions"] == ["1", "vertical"]
        c = payload["classification"]
        assert (c["kind"], c["order"], c["alg_mult"], c["geom_mult"]) == ("diabolic", None, 4, 4)
        assert c["valuations"] == valuations
        assert c["polygon"]["segments"] == segments

    def test_four_level_ladder(self, capsys, monkeypatch):
        # a 16x16 generator at a 6-fold diabolic point, tropical route included
        checked = []
        tropical_roots = newton.tropical_roots
        monkeypatch.setattr(newton, "tropical_roots", lambda tf: checked.append(tf) or tropical_roots(tf))
        start = time.perf_counter()
        payload = run_json(
            capsys,
            ["polygon", "--model", str(LADDER4), "--bind", "g1=1", "--bind", "g2=1",
             "--bind", "g3=1", "--bind", "O=0", "--omega0", "-1/2"],
        )
        assert time.perf_counter() - start < 20
        assert checked
        c = payload["classification"]
        assert (c["kind"], c["alg_mult"], c["geom_mult"]) == ("diabolic", 6, 6)
        assert payload["valuations"] == [
            {"valuation": "0", "multiplicity": 10},
            {"valuation": "1", "multiplicity": 6},
        ]

    def test_svg_written(self, tmp_path, capsys):
        out = tmp_path / "poly.json"
        code = cli.main(
            ["polygon"]
            + QUBIT_EP
            + ["--omega0", "-1/2", "--perturb", "gamma_f", "--svg", "--out", str(out)]
        )
        assert code == 0
        svg = (tmp_path / "poly.svg").read_text()
        assert svg.startswith("<svg")
        assert json.loads(out.read_text())["schema"] == 1


class TestScan:
    def test_frozen_slice(self, capsys):
        payload = run_json(capsys, ["scan"] + SPIN_SLICE)
        assert payload["target"] == "gamma_x"
        assert payload["continuum"] is False
        values = [c["value"] for c in payload["candidates"]]
        assert values == ["-2", "-1/8", "1", "3"]
        by_value = {c["value"]: c for c in payload["candidates"]}
        ep = by_value["1"]
        assert ep["exact"] is True
        assert ep["omega0"] == ["-3"]
        assert ep["flags"] == []
        assert ep["classifications"][0]["label"] == "EP(2)"
        dia = by_value["-2"]
        assert "nonphysical" in dia["flags"]
        assert dia["classifications"][0]["label"] == "diabolic"
        assert set(by_value["-1/8"]["omega0"]) == {"0", "-15/4"}

    def test_continuum(self, capsys):
        payload = run_json(
            capsys,
            ["scan", "--model", "qubit", "--bind", "gamma_f=0", "--bind", "J=0"],
        )
        assert payload["target"] == "gamma_e"
        assert payload["continuum"] is True
        assert payload["candidates"] == []

    def test_needs_exactly_one_free_parameter(self, capsys):
        assert cli.main(["scan"] + QUBIT_EP) == 3
        assert cli.main(["scan", "--model", "qubit", "--bind", "J=0"]) == 3

    def test_lambda3_g2_slice_is_frozen(self, capsys):
        # 31 candidates, one exact (-4/17): a degree-44 discriminant whose
        # square-free part has degree 31, byte for byte as first recorded
        start = time.perf_counter()
        code = cli.main(["scan", "--model", str(LAMBDA3_MODEL), "--bind", "g1=1", "--bind", "O=1/3"])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out == LAMBDA3_G2_SCAN.read_text()

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="open defect (CHANGES.md FOUND line on the lambda3 O slice): the companion roots of "
        "the discriminant's square-free part miss the residual contract (worst 2.156e-10 at g1 = 1, "
        "2.400e-09 at g1 = 1/2) and the scan exits 4",
    )
    @pytest.mark.parametrize("g1", ["1", "1/2"])
    def test_lambda3_O_slice_is_scanned(self, capsys, g1):
        code = cli.main(["scan", "--model", str(LAMBDA3_MODEL), "--bind", f"g1={g1}", "--bind", "g2=1"])
        assert code == 0, capsys.readouterr().err


class TestAmoeba:
    ARGS = (
        ["amoeba"]
        + QUBIT_EP
        + [
            "--omega0",
            "-1/2",
            "--perturb",
            "gamma_f",
            "--eps-points",
            "6",
            "--phases",
            "8",
        ]
    )

    def test_csv_shape(self, capsys):
        code = cli.main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# amoeba model=qubit perturbation=gamma_f omega0=-1/2")
        assert "grid=6x8" in lines[0]
        assert lines[1] == "logeps,logmag"
        for row in lines[2:]:
            le, lm = row.split(",")
            float(le), float(lm)
        assert len(lines) > 2

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(self.ARGS + ["--out", str(a)]) == 0
        assert cli.main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, capsys):
        # every cell parses back to the library's float, bit for bit
        assert cli.main(["amoeba", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f"]) == 0
        logeps, logmag = csv_columns(capsys.readouterr().out)
        bound, l1 = qubit_ep_pencil("gamma_f")
        cloud = amoeba_sample(char_poly(bound, l1, shift=Fraction(-1, 2)))
        assert same_bits(logeps, cloud.points[:, 0])
        assert same_bits(logmag, cloud.points[:, 1])

    def test_overflowing_grid_is_quiet(self, capsys):
        # eps^k overflows on this grid: every point is a counted skip, and
        # numpy's floating-point warnings do not reach stderr
        argv = ["amoeba", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f",
                "--eps-min", "1e200", "--eps-max", "1e300", "--eps-points", "3", "--phases", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        out = capsys.readouterr()
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert out.err == ""
        assert out.out.split("\n")[0].endswith("grid=3x2 skips=6")
        assert out.out.split("\n")[1:] == ["logeps,logmag", ""]


# signed zeros, infinities, signed nans, subnormals and the edges of the
# normal range, next to arbitrary doubles and small integers
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


class TestFloatReprs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_repr_of_every_value(self, data):
        pool = data.draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(), st.integers(-3, 3).map(float)),
            max_size=12,
        ))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40)) if pool else []
        x = np.array(pool + [pool[i] for i in picks], dtype=np.float64)
        assert cli._float_reprs(x) == [repr(v) for v in x.ravel().tolist()]
        if len(x) % 2 == 0:
            # strided views, as the encircle CSV passes its complex parts
            z = x.view(np.complex128)
            assert cli._float_reprs(z.imag) == [repr(v) for v in x[1::2].tolist()]
            assert cli._float_reprs(x.reshape(-1, 2)) == [repr(v) for v in x.tolist()]


class TestScale:
    def test_cube_root_slope(self, capsys):
        code = cli.main(
            ["scale"]
            + QUBIT_EP
            + ["--omega0", "-1/2", "--perturb", "gamma_f", "--eps-points", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0]
        assert header.startswith("# scale model=qubit perturbation=gamma_f")
        slope = float(header.split("slope=")[1].split(" ")[0])
        assert abs(slope - 1 / 3) < 0.05
        assert "npoints=10" in header
        assert lines[1] == "epsilon,re,im,logeps,logmag"
        assert len(lines) == 12
        eps0 = float(lines[2].split(",")[0])
        assert eps0 == pytest.approx(1e-6)

    def test_svg_written(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = cli.main(
            ["scale"]
            + QUBIT_EP
            + [
                "--omega0",
                "-1/2",
                "--perturb",
                "gamma_f",
                "--eps-points",
                "8",
                "--svg",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (tmp_path / "fit.svg").read_text().startswith("<svg")
        assert out.read_text().startswith("# scale")

    def test_csv_round_trip(self, capsys):
        # every cell parses back to the library's sample rows, bit for bit
        assert cli.main(["scale", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f"]) == 0
        cells = csv_columns(capsys.readouterr().out)
        bound, l1 = qubit_ep_pencil("gamma_f")
        w0 = poly.GaussRational.of(Fraction(-1, 2))
        fit = scaling_sweep(bound, l1, w0, np.geomspace(1e-6, 1e-2, 25))
        eps, lam, logeps, logmag = (np.array(c) for c in zip(*fit.samples))
        assert len(cells) == 5
        for column, values in zip(cells, [eps, lam.real, lam.imag, logeps, logmag]):
            assert same_bits(column, values)

    def test_sample_on_the_shift_prints_minus_inf(self, capsys, monkeypatch, tmp_path):
        # the sweep's last sample sits exactly on omega0 (see
        # test_numerics.TestScalingSweep): its distance cell reads -inf, and
        # the plot leaves it out
        l0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        l1 = np.array([[0.0, -1.0], [1.0, 0.0]])
        fit = scaling_sweep(l0, l1, 0.0, [1e-6, 1e-5, 1e-4, 1.0])
        monkeypatch.setattr(cli, "scaling_sweep", lambda *args: fit)
        out = tmp_path / "s.csv"
        argv = ["scale", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = out.read_text().split("\n")[2:]
        assert rows[-2:] == ["1.0,0.0,0.0,0.0,-inf", ""]
        assert [r.split(",")[4] for r in rows[:-2]] == [repr(s[3]) for s in fit.samples[:-1]]
        assert (tmp_path / "s.svg").read_text().count("<circle") == 3

    @pytest.mark.parametrize("points", ["4", "6"])
    def test_sparse_sweep_keeps_the_square_root_branch(self, capsys, points):
        # each epsilon picks its own farthest child, so a sparse sweep of the
        # qubit's J perturbation fits the square-root branch as 25 points do
        argv = ["scale", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "J", "--eps-points", points]
        assert cli.main(argv) == 0
        fields = dict(f.split("=", 1) for f in capsys.readouterr().out.split("\n")[0].split()[2:])
        assert abs(float(fields["slope"]) - 0.5) < 0.05
        assert fields["npoints"] == points

    def test_builds_no_exact_polynomial(self, capsys, monkeypatch):
        # omega0 is checked by exact rank; the sweep itself is numeric
        calls = []
        monkeypatch.setattr(cli, "char_poly", lambda *a, **k: calls.append(a) or char_poly(*a, **k))
        code = cli.main(["scale"] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"])
        assert code == 0
        assert calls == []


# a model name that SVG text must escape, with quotes that it need not
TITLE_MODEL = 'decay & <"loss">'
COLD_ENCIRCLE = """
import json, sys
from liouville_ep import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not scipy, f"encircle loaded {scipy}"
"""


class TestEncircle:
    def test_cycles_header_and_rows(self, capsys):
        code = cli.main(
            ["encircle"]
            + QUBIT_EP
            + ["--perturb", "gamma_f", "--radius", "0.01", "--steps", "64"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# encircle model=qubit perturbation=gamma_f")
        assert "cycles=[3,1]" in lines[0]
        assert lines[1] == "t,index,re,im"
        assert len(lines) == 2 + 65 * 4
        t, idx, re, im = lines[2].split(",")
        assert float(t) == 0.0
        assert idx == "0"
        float(re), float(im)

    def test_csv_round_trip(self, capsys):
        # every cell parses back to the library's report, bit for bit
        assert cli.main(["encircle", *QUBIT_EP, "--perturb", "gamma_f"]) == 0
        t, index, re, im = csv_columns(capsys.readouterr().out)
        report = encircle(*qubit_ep_pencil("gamma_f"))
        trace = np.array(report.trace)
        steps, width = trace.shape
        assert steps == 401
        assert same_bits(t, np.repeat(report.ts, width))
        assert list(index) == [str(k) for k in range(width)] * steps
        assert same_bits(re, trace.real)
        assert same_bits(im, trace.imag)

    def test_long_loop_is_one_table(self, capsys, monkeypatch):
        # 5001 steps of 4 slots are 20,004 rows, five blocks of _CSV_ROWS:
        # the text of one block
        argv = ["encircle", *QUBIT_EP, "--perturb", "gamma_f", "--steps", "5000"]
        assert cli.main(argv) == 0
        blocks = capsys.readouterr().out
        monkeypatch.setattr(cli, "_CSV_ROWS", 1 << 30)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == blocks
        assert blocks.count("\n") == 2 + 20004

    def test_cold_process(self, capsys, tmp_path, fresh_python):
        # the suite's process may have loaded anything by now, so only a fresh
        # interpreter shows what a one-shot encircle loads
        titled = tmp_path / "titled.json"
        titled.write_text(json.dumps({**DECAY, "name": TITLE_MODEL}))
        runs = [
            ["encircle", *SPIN_SLICE, "--bind", "gamma_x=1", "--out", str(tmp_path / "spin.csv")],
            ["encircle", "--model", str(titled), "--bind", "g=1", "--svg",
             "--out", str(tmp_path / "titled.csv")],
        ]
        fresh_python(COLD_ENCIRCLE, json.dumps(runs))
        assert cli.main(runs[0][:-2]) == 0

        def cycles(text):
            return text.split(" cycles=", 1)[1].split(" ", 1)[0]

        warm = cycles(capsys.readouterr().out)
        assert warm == "[2,1,1]"
        assert cycles((tmp_path / "spin.csv").read_text()) == warm
        svg = (tmp_path / "titled.svg").read_text()
        assert f">Eigenvalue loops ({escape(TITLE_MODEL)}, generic)</text>" in svg

    def test_coarse_loop_is_a_numerical_failure(self, capsys):
        # eight steps of radius 0.1 move the spin_half eigenvalues too far for
        # nearest-neighbour matching to be unambiguous
        code = cli.main(["encircle", *SPIN_SLICE, "--bind", "gamma_x=1",
                         "--radius", "0.1", "--steps", "8"])
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("numerical failure: tracking ambiguous")


WINDOW = "epsilon values must be finite and positive"
SHORT_SWEEP = "need at least 3 distinct epsilon values"


class TestParserReuse:
    """`main` builds its parser once per process; no parsed value carries
    over from one call to the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_bindings_do_not_carry_over(self, capsys):
        assert run_json(capsys, ["build"] + QUBIT_EP)["bound"] == {
            "gamma_e": "1", "gamma_f": "0", "J": "1/4"
        }
        assert run_json(capsys, ["build", "--model", "qubit"])["bound"] == {}

    def test_shift_sign_does_not_carry_over(self, capsys):
        tail = ["--perturb", "gamma_f"]
        flipped = run_json(
            capsys, ["polygon"] + QUBIT_EP + ["--omega0", "1/2", "--shift-sign", "minus"] + tail
        )
        plain = run_json(capsys, ["polygon"] + QUBIT_EP + ["--omega0", "-1/2"] + tail)
        assert flipped["omega0"] == plain["omega0"] == "-1/2"

    def test_subcommand_defaults_do_not_carry_over(self, capsys):
        point = QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"]

        def header(argv):
            assert cli.main(argv) == 0
            return capsys.readouterr().out.split("\n", 1)[0]

        assert "npoints=25" in header(["scale"] + point)
        assert "grid=40x2" in header(["amoeba"] + point + ["--phases", "2"])
        assert "npoints=25" in header(["scale"] + point)


class TestExitCodes:
    def test_unknown_model(self):
        assert cli.main(["build", "--model", "nope"]) == 2

    def test_malformed_binding(self):
        assert cli.main(["build", "--model", "qubit", "--bind", "gamma_e"]) == 2

    def test_unknown_parameter(self):
        assert cli.main(["build", "--model", "qubit", "--bind", "zeta=1"]) == 2

    def test_repeated_binding(self, capsys):
        code = cli.main(["build", "--model", "qubit", "--bind", "J=1/4", "--bind", "J=1/3"])
        assert code == 2
        out = capsys.readouterr()
        assert "bound twice" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("radius", ["0", "-0.01", "nan", "inf"])
    def test_encircle_radius_must_be_positive_and_finite(self, capsys, radius):
        # a zero radius encircles nothing: every eigenvalue would come back
        # as a fixed point and the monodromy would read as trivial
        code = cli.main(["encircle"] + QUBIT_EP + ["--perturb", "gamma_f", f"--radius={radius}"])
        assert code == 3
        out = capsys.readouterr()
        assert "radius" in out.err
        assert out.out == ""

    def test_encircle_radius_whose_spectra_overflow(self, capsys):
        # the loop matrices are finite, but the differences of their
        # eigenvalues are not: rejected by name before numpy warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["encircle", *QUBIT_EP, "--radius", "1e307"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == "precondition violated: loop radius 1e+307 overflows the loop matrices\n"

    def test_encircle_radius_that_overflows_the_loop(self, capsys):
        # radius * e^(it) * L1 overflows float64: rejected by name before
        # numpy warns or LAPACK sees an inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["encircle", *QUBIT_EP, "--radius", "1e308"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == "precondition violated: loop radius 1e+308 overflows the loop matrices\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=1e200"], "overflows"),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=1e400"], "overflows"),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1e400", "--bind", "gamma_f=1"], "overflows"),
            (["scan", "--model", "spin_half", "--bind", "Omega=1", "--bind", "gamma_minus=0",
              "--bind", "gamma_y=1e400"], "overflows"),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=1e-400"], "vanishes as"),
        ],
        ids=["gamma_f=1e200", "gamma_f=1e400", "gamma_e=1e400", "spin_half-gamma_y=1e400", "gamma_f=1e-400"],
    )
    def test_scan_coefficients_beyond_the_float_range(self, capsys, argv, message):
        # exact bindings so large or small that the root finder's
        # coefficients overflow or vanish as floats: named by the package's
        # one float conversion, not a traceback
        code = cli.main(argv)
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == f"precondition violated: a polynomial coefficient {message} a complex float\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scale", "--model", "qubit", "--bind", "gamma_e=1e400", "--bind", "gamma_f=0",
              "--bind", "J=1/4", "--omega0", "-1/2*10^400", "--perturb", "gamma_f"], "a matrix entry"),
            (["amoeba", "--model", "qubit", "--bind", "gamma_e=1e200", "--bind", "gamma_f=0",
              "--bind", "J=1/4", "--omega0", "-1/2*10^200", "--perturb", "gamma_f"],
             "a char-poly coefficient"),
        ],
        ids=["scale", "amoeba"],
    )
    def test_numeric_input_beyond_the_float_range(self, capsys, argv, message):
        # an exact value that no complex float holds: named, with no numpy
        # warning and no traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == f"precondition violated: {message} overflows a complex float\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0",
             "--bind", "J=1e-400", "--omega0", "-1/2", "--perturb", "gamma_f"],
            ["encircle", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0",
             "--bind", "J=1e-400", "--perturb", "gamma_f"],
        ],
        ids=["scale", "encircle"],
    )
    def test_numeric_input_that_vanishes_as_a_float(self, capsys, argv):
        # J = 10^-400 is exact and nonzero, but the generator's +-iJ entries
        # are 0 as floats: named, not a run on the decoupled matrix
        code = cli.main(argv)
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == "precondition violated: a matrix entry vanishes as a complex float\n"

    def test_scan_candidate_beyond_the_float_range(self, capsys, tmp_path):
        # H = diag(a t^2 - 2, 0) and a rate t^20: the coherences meet at the
        # irrational t = +-sqrt(2/a), about 1.4e5 at a = 1e-10, which stay
        # non-exact candidates; the char poly there has coefficients near
        # t^60, past the float range, so only those two go unverified, with
        # no omega0, and the rest of the scan stands
        model = tmp_path / "far.json"
        model.write_text(json.dumps({
            "name": "far",
            "dim": 2,
            "params": ["t", "a"],
            "hamiltonian": [["a*t^2 - 2", "0"], ["0", "0"]],
            "jumps": [{"rate": "t^20", "operator": [["0", "1"], ["0", "0"]]}],
        }))
        code = cli.main(["scan", "--model", str(model), "--bind", "a=1e-10"])
        out = capsys.readouterr()
        assert code == 0
        assert out.err == ""
        candidates = json.loads(out.out)["candidates"]
        assert len(candidates) == 43
        assert [c["value"] for c in candidates if c["exact"]] == ["0"]
        real = [c for c in candidates if "i" not in c["value"]]
        far = [c for c in real if abs(Fraction(c["value"])) > 10**5]
        assert [round(abs(Fraction(c["value"]))) for c in far] == [141421, 141421]
        assert all(c["flags"][0] == "unverified" and c["omega0"] == [] for c in far)

    def test_encircle_entry_that_overflows_a_float(self, capsys):
        code = cli.main(["encircle", "--model", "qubit", "--bind", "gamma_e=1e400", "--bind", "gamma_f=0",
                         "--bind", "J=1/4"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == "precondition violated: a matrix entry overflows a complex float\n"

    def test_non_hermitian_hamiltonian(self, tmp_path, capsys):
        model = tmp_path / "skew.json"
        model.write_text(json.dumps({**LAMBDA3, "hamiltonian": [["0", "O", "0"], ["0", "0", "O"],
                                                                ["0", "O", "0"]]}))
        code = cli.main(["scan", "--model", str(model), "--bind", "g1=1", "--bind", "g2=1"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "hamiltonian[0][1]: expected 0, the conjugate of hamiltonian[1][0], got O" in out.err

    @pytest.mark.parametrize(
        "message, printed",
        [
            ("Unable to allocate 745. GiB for an array with shape (100000000001,) "
             "and data type float64", None),
            ("", "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_a_precondition_violation(self, capsys, monkeypatch, message,
                                                       printed):
        # stands in for `--steps 100000000000`; a real allocation that size
        # could be granted by an overcommitting host and then killed
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "encircle", refuse)
        code = cli.main(["encircle", *QUBIT_EP, "--steps", "100000000000"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == f"precondition violated: {printed or message}\n"

    def test_bad_omega0_expression(self):
        assert cli.main(["polygon"] + QUBIT_EP + ["--omega0", "1/"]) == 2

    def test_non_ascii_digit_omega0_is_a_parse_error(self, capsys):
        # numbers are ASCII digit literals: '²' is no number, not even a bad one
        assert cli.main(["polygon"] + QUBIT_EP + ["--omega0", "²"]) == 2
        out = capsys.readouterr()
        assert out.err == "parse error: unexpected character '²' (offset 0)\n"
        assert out.out == ""

    def test_missing_omega0(self):
        assert cli.main(["polygon"] + QUBIT_EP) == 2

    def test_unbound_parameters(self):
        assert (
            cli.main(["polygon", "--model", "qubit", "--bind", "gamma_e=1", "--omega0", "0"])
            == 3
        )

    def test_omega0_not_an_eigenvalue(self):
        assert cli.main(["polygon"] + QUBIT_EP + ["--omega0", "17"]) == 3

    @pytest.mark.parametrize("command", ["amoeba", "scale"])
    def test_omega0_not_an_eigenvalue_numeric(self, capsys, command):
        code = cli.main([command] + QUBIT_EP + ["--omega0", "7"])
        assert code == 3
        out = capsys.readouterr()
        assert out.err == "precondition violated: omega0 = 7 is not an exact eigenvalue\n"
        assert out.out == ""

    def test_negated_power_omega0_keeps_its_sign(self, capsys):
        # '-10^200' is -(10^200): the power binds inside the leading minus
        argv = ["amoeba", "--model", "qubit", "--bind", "gamma_e=1e200", "--bind", "gamma_f=0",
                "--bind", "J=1/4", "--omega0", "-10^200", "--perturb", "gamma_f"]
        assert cli.main(argv) == 3
        out = capsys.readouterr()
        assert out.err == (
            f"precondition violated: omega0 = {-(10**200)} is not an exact eigenvalue\n"
        )
        assert out.out == ""

    @pytest.mark.parametrize(
        "command, message",
        [
            pytest.param("amoeba", "0 < lo < hi < inf", id="amoeba"),
            pytest.param("scale", "epsilon values must be finite", id="scale"),
        ],
    )
    def test_infinite_epsilon_window(self, capsys, command, message):
        code = cli.main(
            [command] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f", "--eps-max", "inf"]
        )
        assert code == 3
        out = capsys.readouterr()
        assert message in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "window, message",
        [
            (["--eps-max", "inf"], WINDOW),
            (["--eps-max", "nan"], WINDOW),
            (["--eps-min", "0"], WINDOW),
            (["--eps-min", "1e-3", "--eps-max", "1e-3"], SHORT_SWEEP),
            (["--eps-points", "-5"], SHORT_SWEEP),
            # a sweep whose largest epsilon overflows the matrices or the
            # eigenvalues, once an inf row, a traceback or LAPACK's own message
            (["--perturb", "J", "--eps-min", "1e-6", "--eps-max", "1e308"],
             "epsilon 1e+308 overflows the sweep matrices"),
            (["--perturb", "generic", "--eps-min", "1e-6", "--eps-max", "1e307", "--eps-points", "5"],
             "epsilon 1e+307 overflows the sweep matrices"),
            (["--perturb", "generic", "--eps-min", "1e-6", "--eps-max", "1e308"],
             "epsilon 1e+308 overflows the sweep matrices"),
        ],
        ids=["inf", "nan", "0", "one-point", "negative-count",
             "J-1e308", "generic-1e307", "generic-1e308"],
    )
    def test_scale_window_checked_before_numpy(self, capsys, window, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["scale"] + QUBIT_EP + ["--omega0", "-1/2", "--perturb", "gamma_f"] + window
            )
        assert code == 3
        out = capsys.readouterr()
        assert out.err == f"precondition violated: {message}\n"
        assert out.out == ""
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "J=1/4"],
            ["polygon", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg"],
            ["amoeba", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg"],
            ["scale", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg"],
            ["encircle", *QUBIT_EP, "--perturb", "gamma_f", "--svg"],
        ],
        ids=["scan-out", "polygon-svg", "amoeba-svg", "scale-svg", "encircle-svg"],
    )
    def test_unwritable_output_is_an_input_error(self, tmp_path, monkeypatch, capsys, argv):
        # scan writes --out into a missing directory; the --svg runs print
        # their data and write the plot into a working directory that is gone
        gone = tmp_path / "gone"
        if "--svg" in argv:
            gone.mkdir()
            monkeypatch.chdir(gone)
            gone.rmdir()
            target = f"{argv[0]}.svg"
        else:
            target = str(gone / "x.json")
            argv = [*argv, "--out", target]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {target!r}: {os.strerror(errno.ENOENT)}\n"

    def test_invalid_model_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert cli.main(["build", "--model", str(bad)]) == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"name": "x"}, "missing key 'dim'"),
            (
                {**DECAY, "jumps": [{"operator": [["0", "1"], ["0", "0"]]}]},
                "jumps[0] must be an object with rate and operator",
            ),
            (
                {**DECAY, "jumps": [{"rate": "g"}]},
                "jumps[0] must be an object with rate and operator",
            ),
            ({**DECAY, "params": "g"}, "params must be a list of strings, got 'g'"),
            ({**DECAY, "params": "gamma"}, "params must be a list of strings, got 'gamma'"),
            ({**DECAY, "dim": 2.9}, "dim must be a positive integer, got 2.9"),
            ({**DECAY, "dim": "2"}, "dim must be a positive integer, got '2'"),
            ({**DECAY, "dim": True}, "dim must be a positive integer, got True"),
            ({**DECAY, "dim": 0}, "dim must be a positive integer, got 0"),
            ([1], "expected a JSON object, got list"),
            ("x", "expected a JSON object, got str"),
            ({"dim": 2}, "missing key 'name'"),
            ({k: v for k, v in DECAY.items() if k != "hamiltonian"}, "missing key 'hamiltonian'"),
            (
                {**DECAY, "jumps": [{**DECAY["jumps"][0], "refill": 1}]},
                "jumps[0].refill must be true or false, got 1",
            ),
        ],
        ids=[
            "no-dim",
            "jump-without-rate",
            "jump-without-operator",
            "params-one-letter-string",
            "params-string",
            "dim-float",
            "dim-string",
            "dim-bool",
            "dim-zero",
            "top-level-list",
            "top-level-string",
            "no-name",
            "no-hamiltonian",
            "refill-not-boolean",
        ],
    )
    def test_malformed_model_dict(self, tmp_path, capsys, data, message):
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["build", "--model", str(bad)]) == 2
        assert f"malformed model description: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, field",
        [
            ({**DECAY, "hamiltonian": [["g $ 2", "0"], ["0", "0"]]}, "hamiltonian[0][0]"),
            (
                {**DECAY, "jumps": [{"rate": "g $ 2", "operator": [["0", "1"], ["0", "0"]]}]},
                "jumps[0].rate",
            ),
            (
                {**DECAY, "jumps": [{"rate": "g", "operator": [["0", "1"], ["g $ 2", "0"]]}]},
                "jumps[0].operator[1][0]",
            ),
        ],
        ids=["hamiltonian", "rate", "jump-operator"],
    )
    def test_expression_syntax_error_names_its_entry(self, tmp_path, capsys, data, field):
        bad = tmp_path / "syntax.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["build", "--model", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.err == (
            f"error: model file {str(bad)!r}: {field}: unexpected character '$' (offset 2)\n"
        )
        assert out.out == ""

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {**DECAY, "hamiltonian": [["0", 1], ["0", "0"]]},
                "hamiltonian[0][1]: expected an expression string, got int",
            ),
            (
                {**DECAY, "jumps": [{"rate": "g", "operator": [["0", "1"], [0.5, "0"]]}]},
                "jumps[0].operator[1][0]: expected an expression string, got float",
            ),
            (
                {**DECAY, "hamiltonian": ["0g", "g0"]},
                "hamiltonian[0]: expected a list of expression strings",
            ),
            ({**DECAY, "hamiltonian": 5}, "hamiltonian: expected a non-empty list of rows"),
            ({**DECAY, "hamiltonian": []}, "hamiltonian: expected a non-empty list of rows"),
            (
                {**DECAY, "jumps": [{"rate": "g", "operator": 5}]},
                "jumps[0].operator: expected a non-empty list of rows",
            ),
            (
                {**DECAY, "jumps": [{"rate": [1], "operator": [["0", "1"], ["0", "0"]]}]},
                "jumps[0].rate: expected an expression string, got list",
            ),
            ({**DECAY, "hamiltonian": [[]]}, "hamiltonian[0]: empty row"),
            (
                {**DECAY, "hamiltonian": [["0", "0"], ["0"]]},
                "hamiltonian[1]: expected 2 entries like row 0, got 1",
            ),
            (
                {**DECAY, "jumps": [{"rate": "g", "operator": [["0", "1"], ["0"]]}]},
                "jumps[0].operator[1]: expected 2 entries like row 0, got 1",
            ),
            ({**DECAY, "jumps": 5}, "jumps must be a list, got 5"),
            ({**DECAY, "jumps": [5]}, "jumps[0] must be an object with rate and operator, got 5"),
            (
                {**DECAY, "jumps": [{"rate": "g", "operator": [["0"] * 3] * 3}]},
                "jumps[0].operator: expected a 2x2 matrix, got 3x3",
            ),
            ({**DECAY, "hamiltonian": [["0"]]}, "hamiltonian: expected a 2x2 matrix, got 1x1"),
            (
                {**DECAY, "hamiltonian": [["epsilon", "0"], ["0", "0"]]},
                "hamiltonian[0][0]: uses the reserved variable 'epsilon'",
            ),
            (
                {**DECAY, "jumps": [{"rate": "g*omega", "operator": [["0", "1"], ["0", "0"]]}]},
                "jumps[0].rate: uses the reserved variable 'omega'",
            ),
            (
                {**DECAY, "jumps": [{"rate": "i*g", "operator": [["0", "1"], ["0", "0"]]}]},
                "jumps[0].rate: i*g has a non-real coefficient",
            ),
        ],
        ids=[
            "hamiltonian",
            "jump-operator",
            "string-row",
            "hamiltonian-int",
            "hamiltonian-empty",
            "jump-operator-int",
            "rate-list",
            "hamiltonian-empty-row",
            "hamiltonian-ragged",
            "jump-operator-ragged",
            "jumps-int",
            "jump-int",
            "jump-operator-size",
            "hamiltonian-size",
            "hamiltonian-epsilon",
            "rate-omega",
            "rate-complex",
        ],
    )
    def test_malformed_matrix_named(self, tmp_path, capsys, data, message):
        bad = tmp_path / "numbers.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["build", "--model", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path):
        # a parameter that never enters the generator gives a zero
        # perturbation: the tracked branch cannot move, exit code 4
        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(
                {
                    "name": "flat",
                    "dim": 2,
                    "params": ["g"],
                    "hamiltonian": [["0", "0"], ["0", "0"]],
                    "jumps": [],
                }
            )
        )
        code = cli.main(
            [
                "scale",
                "--model",
                str(flat),
                "--bind",
                "g=0",
                "--omega0",
                "0",
                "--perturb",
                "g",
            ]
        )
        assert code == 4


def run_bytes(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBindingValues:
    # a --bind value is read by the expression grammar, as --omega0 and model
    # entries are, and must be real

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        argv = ["polygon", "--model", "qubit", "--bind", "gamma_e=\u0661", "--bind", "gamma_f=0",
                "--bind", "J=1/4", "--omega0=-1/2"]
        code, out, err = run_bytes(capsys, argv)
        assert code == 2
        assert err == "error: binding 'gamma_e=\u0661': unexpected character '\u0661' (offset 0)\n"
        assert out == ""

    @pytest.mark.parametrize(
        "gamma_e, j, omega0",
        [("1.0e0", "1/4", "-1/2"), ("1", "1/4", "-5e-1"), ("1", "2.5E-1", "-1/2"), ("1", "1/2^2", "-1/2")],
        ids=["bind-exponent", "omega0-exponent", "bind-capital-exponent", "bind-expression"],
    )
    def test_spellings_of_one_value_print_the_same(self, capsys, gamma_e, j, omega0):
        def run(gamma_e, j, omega0):
            return run_bytes(capsys, ["polygon", "--model", "qubit", "--bind", f"gamma_e={gamma_e}",
                                      "--bind", "gamma_f=0", "--bind", f"J={j}", "--omega0", omega0])

        plain = run("1", "1/4", "-1/2")
        assert plain[0] == 0
        assert run(gamma_e, j, omega0) == plain

    def test_non_real_value_is_an_input_error(self, capsys):
        code, out, err = run_bytes(capsys, ["build", "--model", "qubit", "--bind", "J=i"])
        assert code == 2
        assert err == "error: binding 'J=i': the value i is not real\n"
        assert out == ""

    @pytest.mark.parametrize(
        "value, message",
        [("1e10000", "exponent of more than 4 digits"), ("1" * 5000, "number of more than 4300 characters")],
        ids=["long-exponent", "long-integer"],
    )
    def test_long_literal_is_refused_at_once(self, capsys, value, message):
        start = time.perf_counter()
        code, out, err = run_bytes(capsys, ["build", "--model", "qubit", "--bind", f"gamma_e={value}"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err == f"error: binding 'gamma_e={value}': {message} (offset 0)\n"
        assert out == ""


    @pytest.mark.parametrize(
        "argv, err",
        [
            (["build", "--model", "qubit", "--bind", "g=3^999999999"],
             "error: binding 'g=3^999999999': power of more than 262144 bits (offset 2)\n"),
            (["polygon", *QUBIT_EP, "--omega0", "(1+i)^99999999"],
             "parse error: power of more than 262144 bits (offset 6)\n"),
        ],
        ids=["bind", "omega0"],
    )
    def test_huge_power_is_refused_at_once(self, capsys, argv, err):
        start = time.perf_counter()
        assert run_bytes(capsys, argv) == (2, "", err)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["build", "--model", "qubit", "--bind", "J=1e9999"], "binding 'J=1e9999'"),
            (["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "J=1e-9999"], "binding 'J=1e-9999'"),
            (["polygon", *QUBIT_EP, "--omega0", "-2^20000"], "--omega0 '-2^20000'"),
        ],
        ids=["build", "scan-denominator", "omega0"],
    )
    def test_unprintable_value_is_an_input_error(self, capsys, argv, what):
        # a value with more digits than the interpreter prints of an int is
        # refused by name, before anything would print it
        limit = sys.get_int_max_str_digits()
        if not limit or limit > 6000:
            pytest.skip("the interpreter prints these values")
        err = f"error: {what}: the value has more than {limit} digits, more than this interpreter prints\n"
        assert run_bytes(capsys, argv) == (2, "", err)

    def test_largest_printable_value_is_printed(self, capsys):
        limit = sys.get_int_max_str_digits()
        if not limit or limit > 4300:
            pytest.skip("the tokenizer refuses a literal with so many digits")
        code, out, err = run_bytes(capsys, ["build", "--model", "qubit", "--bind", f"J=1e{limit - 1}"])
        assert (code, err) == (0, "")
        assert json.loads(out)["bound"] == {"J": "1" + "0" * (limit - 1)}

    def test_lowered_digit_limit(self):
        # under PYTHONINTMAXSTRDIGITS=640 a literal shorter than the
        # tokenizer's bound is a parse error at its offset, and a value of
        # 641 digits an input error naming its binding: both exit 2
        import liouville_ep

        src = str(Path(liouville_ep.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640",
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        long = "7" * 700
        for value, err in (
            (long, f"error: binding 'J={long}': number of more digits than this interpreter reads (offset 0)\n"),
            ("1e640", "error: binding 'J=1e640': the value has more than 640 digits, more than this interpreter prints\n"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "liouville_ep.cli", "build", "--model", "qubit", "--bind", f"J={value}"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)

    @pytest.fixture
    def squared(self, tmp_path):
        # H = diag(J^2, 0): an entry of the generator is -i J^2, twice the
        # digits of J
        model = tmp_path / "squared.json"
        model.write_text(json.dumps({
            "name": "squared", "dim": 2, "params": ["J"],
            "hamiltonian": [["J^2", "0"], ["0", "0"]], "jumps": [],
        }))
        return str(model)

    def test_unprintable_entry_is_an_input_error(self, capsys, squared):
        # J = 10^3000 prints, its entry -10^6000*i does not: the first such
        # entry is named, before anything is printed; J = 10^2000 prints
        limit = sys.get_int_max_str_digits()
        if not 4000 < limit <= 6000:
            pytest.skip("the interpreter prints the 6001-digit entry, or not the 4001-digit one")
        start = time.perf_counter()
        got = run_bytes(capsys, ["build", "--model", squared, "--bind", "J=1e3000"])
        assert time.perf_counter() - start < 1
        err = f"error: entries[1][1]: the value has more than {limit} digits, more than this interpreter prints\n"
        assert got == (2, "", err)
        code, out, err = run_bytes(capsys, ["build", "--model", squared, "--bind", "J=1e2000"])
        assert (code, err) == (0, "")
        assert json.loads(out)["entries"][1][1] == "-1" + "0" * 4000 + "*i"

    def test_entry_parts_print_over_a_longer_common_denominator(self, capsys, tmp_path):
        # 1/2^14000 + i/3^8000 prints 4215- and 3818-digit denominators, while
        # its one denominator (a + b*i)/d has d = 2^14000 * 3^8000, of 8033
        # digits: the check reads the printed parts, not a, b and d
        if 0 < sys.get_int_max_str_digits() < 4215:
            pytest.skip("the interpreter does not print the parts")
        z = "1/2^14000+i/3^8000"
        model = tmp_path / "hermitian.json"
        model.write_text(json.dumps({
            "name": "hermitian", "dim": 2, "params": [],
            "hamiltonian": [["0", z], ["1/2^14000-i/3^8000", "0"]], "jumps": [],
        }))
        code, out, err = run_bytes(capsys, ["build", "--model", str(model)])
        assert (code, err) == (0, "")
        assert parse_expression(json.loads(out)["entries"][0][2], ()) == parse_expression(f"-i*({z})", ())

    def test_unprintable_entry_under_a_lowered_digit_limit(self, squared):
        import liouville_ep

        src = str(Path(liouville_ep.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640",
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for value, code in (("1e400", 2), ("1e300", 0)):
            proc = subprocess.run(
                [sys.executable, "-m", "liouville_ep.cli", "build", "--model", squared, "--bind", f"J={value}"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == code, proc.stderr
            if code:
                assert proc.stderr == (
                    "error: entries[1][1]: the value has more than 640 digits, more than this interpreter prints\n"
                )
            else:
                assert json.loads(proc.stdout)["entries"][1][1] == "-1" + "0" * 600 + "*i"

    @pytest.mark.parametrize(
        "hamiltonian, jumps, what",
        [
            ([["0", "10^5000"], ["0", "0"]], [],
             "hamiltonian[0][1] (not the conjugate of hamiltonian[1][0])"),
            ([["0", "0"], ["10^5000", "0"]], [],
             "hamiltonian[1][0] (not the conjugate of hamiltonian[0][1])"),
            ([["0", "0"], ["0", "0"]], [{"rate": "g + i*10^5000", "operator": [["0", "1"], ["0", "0"]]}],
             "jumps[0].rate (not real)"),
        ],
        ids=["hermiticity", "hermiticity-mirror", "non-real-rate"],
    )
    def test_unprintable_entry_of_a_faulty_model_is_named(self, capsys, tmp_path, hamiltonian, jumps, what):
        # the fault's message would print the entry: its field is named instead
        limit = sys.get_int_max_str_digits()
        if not 0 < limit <= 5000:
            pytest.skip("the interpreter prints the 5001-digit entry")
        model = tmp_path / "faulty.json"
        model.write_text(json.dumps(
            {"name": "faulty", "dim": 2, "params": ["g"], "hamiltonian": hamiltonian, "jumps": jumps}
        ))
        err = (f"error: model file {str(model)!r}: {what}: the value has more than {limit} digits, "
               "more than this interpreter prints\n")
        assert run_bytes(capsys, ["build", "--model", str(model)]) == (2, "", err)


# the characters of the differential between Fraction and the grammar
BINDING_TEXT = st.text(st.sampled_from(list("0123456789+-./eE_()^i* ")), max_size=7)


def fraction_only(text):
    """One of the spellings that Fraction reads and the grammar does not: a
    leading '+', a point without a digit before or after it, a '_'
    separator or an exponent of more than four digits."""
    stripped = text.strip()
    return (
        stripped.startswith("+")
        or re.search(r"(^|[^0-9])\.|\.([^0-9]|$)", stripped) is not None
        or "_" in stripped
        or re.search(r"[eE][-+]?[0-9]{5}", stripped) is not None
    )


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(BINDING_TEXT)
def test_binding_value_agrees_with_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return
    if fraction_only(text):
        with pytest.raises(cli.InputError):
            cli._parse_binding(f"g={text}")
    else:
        assert cli._parse_binding(f"g={text}") == ("g", expected)


class TestCustomModelFlow:
    @pytest.mark.parametrize(
        "data, argvs",
        [
            (
                SPIN_HALF,
                [
                    ["build"],
                    ["build", "--bind", "Omega=1", "--bind", "gamma_y=2"],
                    ["polygon", "--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_x=1",
                     "--bind", "gamma_y=2", "--omega0", "-3"],
                    ["scan", "--bind", "Omega=1", "--bind", "gamma_minus=0", "--bind", "gamma_y=2"],
                ],
            ),
            (
                QUBIT,
                [
                    ["build"],
                    ["build", "--bind", "gamma_e=1", "--bind", "gamma_f=0", "--bind", "J=1/4"],
                    ["polygon", *QUBIT_EP[2:], "--omega0", "-1/2", "--perturb", "gamma_f"],
                    ["scan", "--bind", "gamma_e=1", "--bind", "J=1/4"],
                    ["scan", "--bind", "gamma_e=1", "--bind", "gamma_f=0"],
                ],
            ),
        ],
        ids=["spin_half", "qubit"],
    )
    def test_builtin_written_as_a_file_prints_the_same(self, tmp_path, capsys, data, argvs):
        model = tmp_path / f"{data['name']}.json"
        model.write_text(json.dumps(data))
        for argv in argvs:
            builtin = run_bytes(capsys, [argv[0], "--model", data["name"], *argv[1:]])
            assert builtin[0] == 0
            assert run_bytes(capsys, [argv[0], "--model", str(model), *argv[1:]]) == builtin

    def test_json_model_end_to_end(self, tmp_path, capsys):
        model = tmp_path / "decay.json"
        model.write_text(json.dumps(DECAY))
        payload = run_json(
            capsys, ["build", "--model", str(model), "--bind", "g=2"]
        )
        assert payload["model"] == "decay"
        assert payload["entries"][0][0] == "0"
        assert payload["entries"][0][3] == "2"
        assert payload["entries"][3][3] == "-2"
        polygon = run_json(
            capsys,
            [
                "polygon",
                "--model",
                str(model),
                "--bind",
                "g=2",
                "--omega0",
                "-1",
            ],
        )
        assert polygon["classification"]["kind"] in ("ep", "diabolic", "inconclusive")
