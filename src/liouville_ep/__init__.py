"""Exact characterization of Liouvillian exceptional points.

Layers, bottom up:

  poly      exact Gaussian-rational polynomial/matrix arithmetic
  expr      expression grammar for model files and round-trip formatting
  models    Lindblad superoperator construction and built-in models
  newton    Newton polygons, root valuations, tropical cross-check
  numerics  root finding, eigenvalue tracking, amoebas, scaling fits
  scan      discriminant-based degeneracy scans and EP classification
  cli       command-line front end (liouville-ep)
"""

from .poly import (
    GaussRational,
    MultiPoly,
    PolyMatrix,
    det_cofactor,
    gcd_univariate,
    sylvester_resultant,
)
from .expr import ParseError, format_poly, parse_expression
from .models import (
    EPSILON,
    OMEGA,
    JumpChannel,
    ModelSpec,
    build_liouvillian,
    builtin_model,
    char_poly,
    generic_perturbation,
    model_from_dict,
    perturbation_matrix,
)
from .newton import (
    EPReport,
    NewtonPoint,
    NewtonPolygon,
    Segment,
    TropicalFunction,
    assert_routes_agree,
    ep_orders,
    lower_hull,
    newton_points,
    tentacle_directions,
    tropical_roots,
    tropicalize,
)
from .numerics import (
    AmoebaCloud,
    NumericalError,
    PermutationReport,
    ScalingFit,
    TentacleFit,
    amoeba_sample,
    as_complex_matrix,
    collapse_clusters,
    eigenvalues,
    encircle,
    fit_tentacles,
    roots_aberth,
    scaling_sweep,
)
from .scan import (
    Candidate,
    Classification,
    ScanResult,
    classify,
    geometric_multiplicity,
    scan_parameter,
    solve_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AmoebaCloud",
    "Candidate",
    "Classification",
    "EPReport",
    "EPSILON",
    "GaussRational",
    "JumpChannel",
    "ModelSpec",
    "MultiPoly",
    "NewtonPoint",
    "NewtonPolygon",
    "NumericalError",
    "OMEGA",
    "ParseError",
    "PermutationReport",
    "PolyMatrix",
    "ScalingFit",
    "ScanResult",
    "Segment",
    "TentacleFit",
    "TropicalFunction",
    "amoeba_sample",
    "as_complex_matrix",
    "assert_routes_agree",
    "build_liouvillian",
    "builtin_model",
    "char_poly",
    "classify",
    "collapse_clusters",
    "det_cofactor",
    "eigenvalues",
    "encircle",
    "ep_orders",
    "fit_tentacles",
    "format_poly",
    "gcd_univariate",
    "generic_perturbation",
    "geometric_multiplicity",
    "lower_hull",
    "model_from_dict",
    "newton_points",
    "parse_expression",
    "perturbation_matrix",
    "roots_aberth",
    "scaling_sweep",
    "scan_parameter",
    "solve_candidates",
    "sylvester_resultant",
    "tentacle_directions",
    "tropical_roots",
    "tropicalize",
]
