"""Exact vectorized Liouvillians for open quantum systems.

A model is one `ModelSpec`: a Hamiltonian plus a list of dissipation
channels with polynomial rates, and its one generator, built by
`build_liouvillian` as a dim^2 x dim^2 PolyMatrix when the model is made and
carried with it.  Every model is read from a description, the JSON
model-file shape, by `model_from_dict`, which checks it; the two built-in
models are such descriptions, and `builtin_model` reads them the same way.
Density matrices are flattened row-major: index(row, col) = row*dim + col,
so vec(A rho B) = (A kron B^T) vec(rho).  The generator is

    L = -i (H kron I - I kron H^T)
        + sum_k rate_k (G kron conj(G) - 1/2 (G^H G) kron I - 1/2 I kron (G^H G)^T)

with G the channel operator.  Loss-only channels (population leaving the
modeled subspace; `"refill": false` in a description) contribute only the
anticommutator part; for those the stored operator stands in for the
leaving operator and only G^H G enters.

No Kronecker product is formed.  With r = (i, j) and c = (k, l) the
generator's entry is

    L[r, c] = -i (H[i,k] delta[j,l] - delta[i,k] H[l,j])
              + sum_k rate_k (G[i,k] conj(G[j,l])
                              - 1/2 (G^H G)[i,k] delta[j,l] - 1/2 delta[i,k] (G^H G)[l,j])

so each nonzero entry of H, G^H G and G writes its terms straight into the
flat entries it reaches, and each generator entry is built once.

Reserved variable names: 'omega' (the eigenvalue variable), 'epsilon' (the
perturbation strength), and 'i'.  Model parameters may not collide with them,
and a description's entries and rates may not use them.  A description's
rates must be real, built-in or not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expr import ParseError, check_printable, format_poly, parse_expression
from .poly import GaussRational, MultiPoly, PolyMatrix, ScalarLike, _gr, char_poly_berkowitz

OMEGA = "omega"
EPSILON = "epsilon"
RESERVED_NAMES = ("i", OMEGA, EPSILON)


def ambient_variables(params: Sequence[str]) -> tuple[str, ...]:
    """Canonical variable list for a model: parameters, then omega, epsilon."""
    return tuple(params) + (OMEGA, EPSILON)


@dataclass(frozen=True)
class JumpChannel:
    """One dissipation channel: rate polynomial and jump operator.

    refill=False marks a loss-only channel: the recycling term G kron conj(G)
    is dropped because the population lands outside the modeled subspace.
    """

    rate: MultiPoly
    operator: PolyMatrix
    refill: bool = True


@dataclass(frozen=True)
class ModelSpec:
    """The model: its description, its generator as built by
    `build_liouvillian` (a dim^2 x dim^2 matrix acting on row-major
    vectorized densities) and the parameters that enter the channel rates.
    Both are derived in `__post_init__`, so `dataclasses.replace` rebuilds
    them; they take no part in `==` or `repr`."""

    name: str
    dim: int
    params: tuple[str, ...]
    hamiltonian: PolyMatrix
    channels: tuple[JumpChannel, ...]
    generator: PolyMatrix = field(init=False, repr=False, compare=False)
    rate_params: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for p in self.params:
            if p in RESERVED_NAMES:
                raise ValueError(f"parameter name {p!r} is reserved")
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        n, m = self.hamiltonian.shape
        if n != m or n != self.dim:
            raise ValueError("hamiltonian shape does not match dim")
        for ch in self.channels:
            if ch.operator.shape != (self.dim, self.dim):
                raise ValueError("channel operator shape does not match dim")
        object.__setattr__(self, "generator", build_liouvillian(self))
        object.__setattr__(self, "rate_params", _rate_param_names(self))

    @property
    def variables(self) -> tuple[str, ...]:
        return ambient_variables(self.params)


def _add_terms(acc: dict, terms: Mapping) -> None:
    """acc += terms in place; a sum that cancels stays as a zero
    coefficient, which `MultiPoly._trusted` drops."""
    for e, c in terms.items():
        acc[e] = acc[e] + c if e in acc else c


def _with_identity(n: int, left: Mapping, right: Mapping) -> dict[tuple[int, int], dict]:
    """Term maps of (A kron I) + (I kron B^T), entry by entry, for A and B
    given as {(row, col): terms} over their nonzero entries:
    (A kron I)[(i,j),(k,l)] = A[i,k] delta[j,l] and
    (I kron B^T)[(i,j),(k,l)] = delta[i,k] B[l,j]."""
    out: dict[tuple[int, int], dict] = {}
    for (i, k), terms in left.items():
        for j in range(n):
            _add_terms(out.setdefault((i * n + j, k * n + j), {}), terms)
    for (l, j), terms in right.items():
        for i in range(n):
            _add_terms(out.setdefault((i * n + j, i * n + l), {}), terms)
    return out


def build_liouvillian(spec: ModelSpec) -> PolyMatrix:
    """Assemble the model's generator, writing its nonzero terms straight
    into their flat entries.

    The commutator and every channel's anticommutator enter; a channel that
    refills adds its G kron conj(G) term, entry (G kron conj(G))[(i,j),(k,l)]
    = G[i,k] conj(G[j,l]).  Only the nonzero entries of H, G^H G and G are
    visited, and every entry's terms equal the dense sum's, term for term.
    """
    variables = spec.variables
    n = spec.dim
    # -i (H kron I - I kron H^T)
    h = spec.hamiltonian.rows
    nonzero_h = [(a, b) for a in range(n) for b in range(n) if h[a][b].terms]
    left = {(a, b): h[a][b].scale(GaussRational.of(0, -1)).terms for a, b in nonzero_h}
    right = {(a, b): h[a][b].scale(GaussRational.of(0, 1)).terms for a, b in nonzero_h}
    acc = _with_identity(n, left, right)

    def into(r: int, c: int, terms: Mapping) -> None:
        _add_terms(acc.setdefault((r, c), {}), terms)

    minus_half = GaussRational.of(Fraction(-1, 2))
    for ch in spec.channels:
        g = ch.operator.rows
        gbar = ch.operator.conjugate().rows
        nonzero_g = [(a, b) for a in range(n) for b in range(n) if g[a][b].terms]
        # G^H G summed over the rows t of G
        ghg: dict[tuple[int, int], dict] = {}
        for t in range(n):
            row = [b for a, b in nonzero_g if a == t]
            for i in row:
                for k in row:
                    _add_terms(ghg.setdefault((i, k), {}), (gbar[t][i] * g[t][k]).terms)
        half_rate = ch.rate.scale(minus_half)
        for (r, c), terms in _with_identity(n, ghg, ghg).items():
            if terms:
                into(r, c, (half_rate * MultiPoly._trusted(variables, terms)).terms)
        if ch.refill:
            for i, k in nonzero_g:
                for j, l in nonzero_g:
                    into(i * n + j, k * n + l, (ch.rate * (g[i][k] * gbar[j][l])).terms)
    zero = MultiPoly.zero(variables)
    rows = [[zero] * (n * n) for _ in range(n * n)]
    for (r, c), terms in acc.items():
        if terms:
            rows[r][c] = MultiPoly._trusted(variables, terms)
    return PolyMatrix(rows)


def char_poly(
    l0: PolyMatrix,
    perturbation: PolyMatrix | None = None,
    shift: ScalarLike = 0,
) -> MultiPoly:
    """Shifted characteristic polynomial det(L0 + eps*L1 - (omega + shift) I).

    The convention puts the eigenvalue at omega = 0: with the constant
    shift = s, omega = 0 is a root exactly when s is an eigenvalue of
    L0 + eps*L1.  This is the one-pencil case of `char_polys`.
    """
    return char_polys([(l0, perturbation, shift)])[0]


def char_polys(
    pencils: Sequence[tuple[PolyMatrix, PolyMatrix | np.ndarray | None, ScalarLike]],
) -> list[MultiPoly]:
    """`char_poly` of every (l0, perturbation, shift) pencil, in order.

    The perturbation is a PolyMatrix, None, or a seed's Gaussian-integer
    draws as `perturbation_draws` returns them.  Every determinant comes from
    one call of the dense kernel `char_poly_berkowitz`, which takes the
    pencil parts themselves: each distinct L0 and L1 of the batch is read
    once into flat term arrays with L1's epsilon exponents raised, and each
    shift is added to its pencil's diagonal constants in residues, so no
    pencil is assembled entry by entry.  The kernel is a division-free
    Berkowitz on residues modulo a fixed table of primes at integer points
    of the free variables, then interpolation and CRT, exact by a Hadamard
    bound on the unit torus; there is no fallback.  The pencils must share one shape and
    one variable tuple, which must include omega.  An entry of L0 or L1 that
    involves omega is a ValueError.
    """
    return char_poly_berkowitz(pencils, OMEGA, EPSILON)


def perturbation_matrix(superop: PolyMatrix, param: str) -> PolyMatrix:
    """Entrywise partial derivative of the generator with respect to one parameter."""
    if param not in superop.vars:
        raise ValueError(f"unknown parameter {param!r}")
    return PolyMatrix([[e.derivative(param) for e in row] for row in superop.rows])


def perturbation_draws(size: int, seed: int) -> np.ndarray:
    """The seeded generic perturbation as a (size, size, 2) integer array of
    Gaussian integers (re, im).

    Real and imaginary parts are drawn independently and uniformly from
    {-9, ..., 9}, row-major, real part first: random.Random(seed)'s
    randint(-9, 9) draws, taken as arrays.  randint(-9, 9) keeps the top
    five bits of one 32-bit Mersenne Twister output, draws again while they
    are 19 or more, and subtracts 9; getrandbits(32*m) returns m successive
    outputs, least significant word first.  The generator is this call's
    own, so words drawn past the last kept one are never seen.  This is the
    package's one draw from `random`.
    """
    count = 2 * size * size
    rng = random.Random(seed)
    kept = np.zeros(0, dtype=np.int64)
    while len(kept) < count:
        # 19 of every 32 words are kept on average
        words = 2 * (count - len(kept)) + 8
        top = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4") >> 27
        kept = np.concatenate([kept, top[top < 19]])
    return (kept[:count] - 9).reshape(size, size, 2)


def generic_perturbation(variables: Sequence[str], size: int, seed: int) -> PolyMatrix:
    """Deterministic dense perturbation with small Gaussian-integer entries:
    `perturbation_draws(size, seed)` as a PolyMatrix of constants over
    `variables`, for the subcommands that need the matrix itself."""
    variables = tuple(variables)
    constant = (0,) * len(variables)
    return PolyMatrix(
        [
            [MultiPoly._trusted(variables, {constant: _gr(re, im, 1)}) for re, im in row]
            for row in perturbation_draws(size, seed).tolist()
        ]
    )


# -- model descriptions -------------------------------------------------------


def _matrix_from_strings(
    rows: Sequence[Sequence[str]], variables: Sequence[str], field: str, dim: int
) -> PolyMatrix:
    """Parse a dim x dim nested list of expression strings; errors name `field`.

    Each distinct text is parsed once, at its first entry in row-major order,
    so an error names the first bad entry; the entries that share a text
    share its MultiPoly.
    """
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{field}: expected a non-empty list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{field}[{i}]: expected a list of expression strings")
        if not row:
            raise ValueError(f"{field}[{i}]: empty row")
        if len(row) != len(rows[0]):
            raise ValueError(
                f"{field}[{i}]: expected {len(rows[0])} entries like row 0, got {len(row)}"
            )
        for j, s in enumerate(row):
            if not isinstance(s, str):
                raise ValueError(
                    f"{field}[{i}][{j}]: expected an expression string, got {type(s).__name__}"
                )
    if (len(rows), len(rows[0])) != (dim, dim):
        raise ValueError(
            f"{field}: expected a {dim}x{dim} matrix, got {len(rows)}x{len(rows[0])}"
        )
    parsed: dict[str, MultiPoly] = {}
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            if s not in parsed:
                parsed[s] = _parse_entry(s, variables, f"{field}[{i}][{j}]")
    return PolyMatrix([[parsed[s] for s in row] for row in rows])


def _parse_entry(text: str, variables: Sequence[str], field: str) -> MultiPoly:
    """Parse one model expression over the ambient variables; a syntax error,
    or an expression that uses omega or epsilon, is a ValueError naming
    `field`."""
    try:
        p = parse_expression(text, variables)
    except ParseError as exc:
        raise ValueError(f"{field}: {exc}") from exc
    for name in (OMEGA, EPSILON):
        k = variables.index(name)
        if any(e[k] for e in p.terms):
            raise ValueError(
                f"{field}: uses the reserved variable {name!r}; a model entry may use only "
                "the model's parameters"
            )
    return p


def _rate_param_names(spec: ModelSpec) -> tuple[str, ...]:
    names = []
    for ch in spec.channels:
        for p in spec.params:
            idx = spec.variables.index(p)
            if any(e[idx] > 0 for e in ch.rate.terms) and p not in names:
                names.append(p)
    return tuple(names)


# the paper's two models as model descriptions; the qubit is the two-level
# submanifold {e, f} of a three-level ladder: the e -> ground decay leaves the
# subspace (a loss-only channel), the f -> e decay stays inside and refills e
_BUILTINS = {
    "spin_half": {
        "name": "spin_half",
        "dim": 2,
        "params": ["Omega", "gamma_minus", "gamma_x", "gamma_y"],
        "hamiltonian": [["Omega/2", "0"], ["0", "-Omega/2"]],
        "jumps": [
            {"rate": "gamma_minus", "operator": [["0", "0"], ["1", "0"]]},
            {"rate": "gamma_x", "operator": [["0", "1"], ["1", "0"]]},
            {"rate": "gamma_y", "operator": [["0", "-i"], ["i", "0"]]},
        ],
    },
    "qubit": {
        "name": "qubit",
        "dim": 2,
        "params": ["gamma_e", "gamma_f", "J"],
        "hamiltonian": [["0", "J"], ["J", "0"]],
        "jumps": [
            {"rate": "gamma_e", "operator": [["1", "0"], ["0", "0"]], "refill": False},
            {"rate": "gamma_f", "operator": [["0", "1"], ["0", "0"]]},
        ],
    },
}


def builtin_model(name: str) -> ModelSpec:
    """A built-in model ('spin_half' or 'qubit'), read from its description
    by `model_from_dict` like any model file."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin model {name!r}; have {sorted(_BUILTINS)}")
    return model_from_dict(_BUILTINS[name])


def model_from_dict(data: Mapping) -> ModelSpec:
    """Build a model from a plain dict (the JSON model-file shape).

    Expected keys: name (str), dim (int), params (list of str), hamiltonian
    (dim x dim nested list of expression strings), jumps (list of {rate:
    expression string, operator: nested list, and optionally refill: a
    boolean, true by default}).  A channel with refill false is loss-only:
    its population leaves the modeled subspace, so only its anticommutator
    enters.  The Hamiltonian must equal its conjugate transpose exactly, with
    the parameters taken as real; the first entry that does not is named.  No
    entry or rate may use omega or epsilon, and every rate's coefficients must
    be real; the offending field is named.
    """
    try:
        if not isinstance(data, Mapping):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        for key in ("name", "dim", "params", "hamiltonian"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        name = str(data["name"])
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise TypeError(f"dim must be a positive integer, got {dim!r}")
        params = data["params"]
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise TypeError(f"params must be a list of strings, got {params!r}")
        params = tuple(params)
        ham_rows = data["hamiltonian"]
        jumps = data.get("jumps", [])
        if not isinstance(jumps, list):
            raise TypeError(f"jumps must be a list, got {jumps!r}")
        for k, j in enumerate(jumps):
            if not isinstance(j, Mapping) or not {"rate", "operator"} <= j.keys():
                raise TypeError(f"jumps[{k}] must be an object with rate and operator, got {j!r}")
            if not isinstance(j.get("refill", True), bool):
                raise TypeError(f"jumps[{k}].refill must be true or false, got {j['refill']!r}")
        jumps = [(j["rate"], j["operator"], j.get("refill", True)) for j in jumps]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc
    variables = ambient_variables(params)
    h = _matrix_from_strings(ham_rows, variables, "hamiltonian", dim)
    # row-major over the upper triangle: a pair that fails fails first there
    for i in range(dim):
        for j in range(i, dim):
            entry, mirror = h.rows[i][j], h.rows[j][i].terms
            conj = MultiPoly._trusted(variables, {e: c.conjugate() for e, c in mirror.items()})
            if entry != conj:
                # the message prints both entries: each must be printable
                for a, b in ((i, j), (j, i)):
                    for c in h.rows[a][b].terms.values():
                        check_printable(c, f"hamiltonian[{a}][{b}] (not the conjugate of hamiltonian[{b}][{a}])")
                raise ValueError(
                    f"hamiltonian[{i}][{j}]: expected {format_poly(conj)}, the conjugate of "
                    f"hamiltonian[{j}][{i}], got {format_poly(entry)}; the Hamiltonian must "
                    "be Hermitian, with real parameters"
                )
    channels = []
    for k, (rate_text, op_rows, refill) in enumerate(jumps):
        if not isinstance(rate_text, str):
            raise ValueError(
                f"jumps[{k}].rate: expected an expression string, got {type(rate_text).__name__}"
            )
        rate = _parse_entry(rate_text, variables, f"jumps[{k}].rate")
        if any(c.b for c in rate.terms.values()):
            for c in rate.terms.values():
                check_printable(c, f"jumps[{k}].rate (not real)")
            raise ValueError(
                f"jumps[{k}].rate: {format_poly(rate)} has a non-real coefficient; a rate "
                "must be real, with real parameters"
            )
        op = _matrix_from_strings(op_rows, variables, f"jumps[{k}].operator", dim)
        channels.append(JumpChannel(rate, op, refill))
    return ModelSpec(name, dim, params, h, tuple(channels))
