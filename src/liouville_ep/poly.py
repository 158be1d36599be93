"""Exact sparse multivariate polynomial arithmetic over Gaussian rationals.

Coefficients are complex numbers with exact rational real and imaginary parts
(`GaussRational`: one Gaussian integer a + b*i over one positive integer d in
lowest terms, so its arithmetic is on plain ints; `re` and `im` are Fraction
views).  Polynomials carry a fixed, ordered variable tuple; every exponent
vector has one slot per variable and operations between polynomials require
identical variable tuples.  Variable lists are never extended silently: pick
the ambient list for a computation up front and stick with it.  The public
`MultiPoly` constructor validates its exponents; the ring operations,
`scale`, `derivative`, `constant` and `substitute` build their results through
one trusted internal constructor that only drops zero coefficients, and
`substitute` with constant values evaluates each term on scalars.

The matrix layer (`PolyMatrix`) provides the handful of exact linear-algebra
routines the rest of the package needs: Kronecker products and the dense
char-poly kernel `char_poly_berkowitz`, the one runtime determinant route.
The kernel takes a batch of equally shaped pencils L0 + eps*L1 - s I as
their parts and reads each distinct part once into flat term arrays; it
adds each shift to its pencil's diagonal constants and sums terms that meet
in residues.  It clears each pencil's denominators once and works on
residues in numpy int64: Z[i] modulo each prime p = 1 (mod 4) below 2^28 of
a fixed table (found on first use) splits into two copies of F_p, and one
batched division-free Berkowitz runs over every prime, embedding, integer
grid point of the free variables and pencil of the batch, in blocks of
(grid point, pencil) pairs that keep each stack near 2 MiB.  A product of
two residues is below 2^56, so a sum of at most 127 of them fits in int64:
the kernel takes matrices of up to 127 rows.  Interpolation
is modulo p, and Garner's CRT recovers the integers; a bound on the
coefficients by Hadamard and Cauchy on the unit torus, the largest over the
batch, fixes how many primes, so every result is exact by construction.
There is no Python-integer fallback.

The dense univariate layer serves a scan once its parameters are bound: lists
of Gaussian-integer pairs with a subresultant PRS (resultant and gcd), the
square-free part `square_free` (p over gcd(p, p'), one PRS) and homogenised
`horner` evaluation.

The Bareiss determinant, the Sylvester matrix and the multivariate resultant
on it, cofactor expansion, `gcd_univariate` and `MultiPoly.exact_div` are
test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from operator import add, attrgetter
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussRational"]


class GaussRational:
    """Complex number with exact rational parts, re + im*i.

    Stored as one Gaussian integer a + b*i over one positive integer d, in
    lowest terms: gcd(a, b, d) = 1, so zero is 0/1 and equal values have
    equal (a, b, d).  Arithmetic works on plain ints and takes one gcd only
    when the result's denominator is not 1.  `re` and `im` are Fraction
    views; instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: RationalLike, im: RationalLike):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        # the lcm of two reduced denominators leaves gcd(a, b, d) = 1
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        d = q * s // math.gcd(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussRational":
        return GaussRational(re, im)

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if type(x) is int:
            return _gr(x, 0, 1)
        return GaussRational(x, 0)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d, f = self.d, other.d
        if d == f:
            if d == 1:
                return _gr(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        d, f = self.d, other.d
        if d == f:
            if d == 1:
                return _gr(self.a - other.a, self.b - other.b, 1)
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __neg__(self) -> "GaussRational":
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d == 1:
            return _gr(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        c, e = other.a, other.b
        if not c and not e:
            raise ZeroDivisionError("division by zero GaussRational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / ((c^2 + e^2) d)
        a, b, f = self.a, self.b, other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, (c * c + e * e) * self.d)

    def conjugate(self) -> "GaussRational":
        return _gr(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        """'3/2', 'i', '-i', '3/2*i', '1/2-i': a unit imaginary part prints bare."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_str(a, d)
        im = "i" if abs(b) == d else f"{_ratio_str(abs(b), d)}*i"
        if not a:
            return im if b > 0 else f"-{im}"
        return f"{_ratio_str(a, d)}{'+' if b > 0 else '-'}{im}"


_new = object.__new__
_set_a = GaussRational.a.__set__
_set_b = GaussRational.b.__set__
_set_d = GaussRational.d.__set__


def _gr(a: int, b: int, d: int) -> GaussRational:
    """The trusted constructor: (a + b*i)/d already in lowest terms, d > 0."""
    z = _new(GaussRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d in lowest terms, for any nonzero d."""
    if d < 0:
        a, b, d = -a, -b, -d
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _gr(a, b, d)


def _scalar_power(x: GaussRational, k: int) -> GaussRational:
    out = GR_ONE
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:  # the last square would go unused
            x = x * x
    return out


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


GR_ZERO = GaussRational.of(0)
GR_ONE = GaussRational.of(1)


def _grlex_key(expo: tuple[int, ...]) -> tuple:
    # graded lexicographic: total degree first, then the exponent tuple itself
    # (leftmost variable most significant)
    return (sum(expo), expo)


class ExactDivisionError(ArithmeticError):
    """Raised when polynomial division is requested but not exact."""


class MultiPoly:
    """Sparse multivariate polynomial with GaussRational coefficients.

    Canonical form: `terms` maps exponent tuples (one entry per variable in
    `vars`) to nonzero coefficients.  The zero polynomial has an empty map.
    Instances are treated as immutable; do not mutate `terms` after creation.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], GaussRational]):
        vs = tuple(variables)
        clean: dict[tuple[int, ...], GaussRational] = {}
        for expo, coeff in terms.items():
            e = tuple(expo)
            if len(e) != len(vs):
                raise ValueError(f"exponent {e} does not match variables {vs}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            if not coeff.is_zero():
                clean[e] = coeff
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(
        variables: tuple[str, ...], terms: dict[tuple[int, ...], GaussRational]
    ) -> "MultiPoly":
        """The internal constructor: `terms` holds exponent tuples that a
        method built itself, so only its zero coefficients are dropped."""
        p = _new(MultiPoly)
        p.vars = variables
        p.terms = {e: c for e, c in terms.items() if c.a or c.b}
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def constant(variables: Sequence[str], value: ScalarLike) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly._trusted(vs, {(0,) * len(vs): GaussRational.coerce(value)})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"variable {name!r} not in {vs}")
        expo = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {expo: GR_ONE})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> GaussRational:
        if self.is_zero():
            return GR_ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return MultiPoly._trusted(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] - c if e in out else -c
        return MultiPoly._trusted(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out: dict[tuple[int, ...], GaussRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return MultiPoly._trusted(self.vars, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the last square would go unused
                base = base * base
        return result

    def scale(self, value: ScalarLike) -> "MultiPoly":
        c = GaussRational.coerce(value)
        return MultiPoly._trusted(self.vars, {e: co * c for e, co in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .expr import format_poly  # local import: expr depends on poly

        return f"MultiPoly({format_poly(self)!r})"

    # -- structure ---------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Degree in `var`, or total degree when var is None; zero poly -> -1."""
        if self.is_zero():
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        idx = self.vars.index(var)
        return max(e[idx] for e in self.terms)

    def coefficient_list(self, var: str) -> list["MultiPoly"]:
        """Dense ascending coefficient list [c0, c1, ..., c_deg] in `var`; the
        coefficients live in the same ambient variable list with `var`-exponent
        zero, and the zero polynomial's list is [0]."""
        idx = self.vars.index(var)
        groups: list[dict[tuple[int, ...], GaussRational]] = [
            {} for _ in range(max(self.degree(var), 0) + 1)
        ]
        for e, c in self.terms.items():
            groups[e[idx]][e[:idx] + (0,) + e[idx + 1:]] = c
        return [MultiPoly._trusted(self.vars, t) for t in groups]

    def derivative(self, var: str) -> "MultiPoly":
        idx = self.vars.index(var)
        out: dict[tuple[int, ...], GaussRational] = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            # distinct exponents keep distinct images, and k*c is not zero
            out[e[:idx] + (k - 1,) + e[idx + 1:]] = c * _gr(k, 0, 1)
        return MultiPoly._trusted(self.vars, out)

    def uses_only(self, allowed: Iterable[str]) -> bool:
        """True when every term's support is within `allowed`."""
        allowed_idx = {self.vars.index(v) for v in allowed}
        for e in self.terms:
            for i, k in enumerate(e):
                if k > 0 and i not in allowed_idx:
                    return False
        return True

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, bindings: Mapping[str, Union["MultiPoly", ScalarLike]]) -> "MultiPoly":
        """Simultaneously substitute polynomials or constants for variables.

        The result stays in the same ambient variable list.  Polynomial values
        must share that list.
        """
        return self._substitute_values(self._binding_values(bindings))

    def _binding_values(
        self, bindings: Mapping[str, Union["MultiPoly", ScalarLike]]
    ) -> dict[int, Union["MultiPoly", GaussRational]]:
        """Variable index -> polynomial or coerced scalar value."""
        values: dict[int, Union[MultiPoly, GaussRational]] = {}
        for name, val in bindings.items():
            idx = self.vars.index(name)
            if isinstance(val, MultiPoly):
                self._check_vars(val)
                values[idx] = val
            else:
                values[idx] = GaussRational.coerce(val)
        return values

    def _substitute_values(
        self, values: Mapping[int, Union["MultiPoly", GaussRational]]
    ) -> "MultiPoly":
        if not values:
            return self
        if any(isinstance(v, MultiPoly) for v in values.values()):
            return self._substitute_polys(
                {i: v if isinstance(v, MultiPoly) else MultiPoly.constant(self.vars, v)
                 for i, v in values.items()}
            )
        # every value is a scalar: each term is one scalar product
        powers: dict[tuple[int, int], GaussRational] = {}
        out: dict[tuple[int, ...], GaussRational] = {}
        for e, c in self.terms.items():
            for idx, v in values.items():
                k = e[idx]
                if k:
                    if (idx, k) not in powers:
                        powers[idx, k] = _scalar_power(v, k)
                    c = c * powers[idx, k]
            kept = tuple(0 if i in values else k for i, k in enumerate(e))
            out[kept] = out[kept] + c if kept in out else c
        return MultiPoly._trusted(self.vars, out)

    def _substitute_polys(self, values: Mapping[int, "MultiPoly"]) -> "MultiPoly":
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(idx: int, k: int) -> MultiPoly:
            key = (idx, k)
            if key not in power_cache:
                power_cache[key] = values[idx] ** k
            return power_cache[key]

        result = MultiPoly.zero(self.vars)
        for e, c in self.terms.items():
            kept = tuple(0 if i in values else k for i, k in enumerate(e))
            term = MultiPoly._trusted(self.vars, {kept: c})
            for idx in values:
                if e[idx]:
                    term = term * power(idx, e[idx])
            result = result + term
        return result

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        """Numerically evaluate with every variable bound to a complex number."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise ValueError(f"no value for variable {v!r}")
            vals.append(complex(assignment[v]))
        total = 0j
        for e, c in self.terms.items():
            m = complex(c)
            for base, k in zip(vals, e):
                if k:
                    m *= base ** k
            total += m
        return total

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ExactDivisionError if not exact."""
        self._check_vars(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        if divisor.is_constant():
            inv = GR_ONE / divisor.constant_value()
            return self.scale(inv)
        d_lead = max(divisor.terms, key=_grlex_key)
        d_coeff = divisor.terms[d_lead]
        remainder = dict(self.terms)
        quotient: dict[tuple[int, ...], GaussRational] = {}
        while remainder:
            r_lead = max(remainder, key=_grlex_key)
            e = tuple(a - b for a, b in zip(r_lead, d_lead))
            if any(k < 0 for k in e):
                raise ExactDivisionError("division is not exact")
            q_coeff = remainder[r_lead] / d_coeff
            quotient[e] = q_coeff
            for de, dc in divisor.terms.items():
                te = tuple(a + b for a, b in zip(e, de))
                new = remainder.get(te, GR_ZERO) - q_coeff * dc
                if new.is_zero():
                    remainder.pop(te, None)
                else:
                    remainder[te] = new
        return MultiPoly(self.vars, quotient)


# -- matrices ---------------------------------------------------------------


class PolyMatrix:
    """Dense matrix of MultiPoly entries sharing one variable list."""

    __slots__ = ("vars", "rows")

    def __init__(self, rows: Sequence[Sequence[MultiPoly]]):
        rs = tuple(tuple(row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rs[0])
        vs = rs[0][0].vars
        for row in rs:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.vars != vs:
                    raise ValueError("mixed variable lists in matrix")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "rows", rs)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.vars == other.vars and self.rows == other.rows

    def constant_rows(self) -> list[list[GaussRational]]:
        """The entries of a matrix whose parameters are all bound, as fresh
        rows of GaussRational values; a non-constant entry is a ValueError."""
        constant = (0,) * len(self.vars)
        out = []
        for row in self.rows:
            values = []
            for entry in row:
                terms = entry.terms
                if len(terms) > (constant in terms):  # a term other than the constant
                    raise ValueError("matrix entry is not constant; bind parameters first")
                values.append(terms.get(constant, GR_ZERO))
            out.append(values)
        return out

    @staticmethod
    def identity(variables: Sequence[str], n: int) -> "PolyMatrix":
        one = MultiPoly.constant(variables, 1)
        zero = MultiPoly.zero(variables)
        return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, factor: MultiPoly | ScalarLike) -> "PolyMatrix":
        if not isinstance(factor, MultiPoly):
            c = GaussRational.coerce(factor)
            return PolyMatrix([[e.scale(c) for e in row] for row in self.rows])
        return PolyMatrix([[factor * e for e in row] for row in self.rows])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("shape mismatch in matmul")
        zero = MultiPoly.zero(self.vars)
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = zero
                for t in range(k):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def transpose(self) -> "PolyMatrix":
        n, m = self.shape
        return PolyMatrix([[self.rows[i][j] for i in range(n)] for j in range(m)])

    def conjugate(self) -> "PolyMatrix":
        """Entrywise coefficient conjugation; variables are treated as real."""
        return PolyMatrix(
            [
                [
                    MultiPoly._trusted(e.vars, {k: c.conjugate() for k, c in e.terms.items()})
                    for e in row
                ]
                for row in self.rows
            ]
        )

    def dagger(self) -> "PolyMatrix":
        return self.conjugate().transpose()

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        n, m = self.shape
        p, q = other.shape
        out = [[None] * (m * q) for _ in range(n * p)]
        for i in range(n):
            for j in range(m):
                a = self.rows[i][j]
                for k in range(p):
                    for l in range(q):
                        out[i * p + k][j * q + l] = a * other.rows[k][l]
        return PolyMatrix(out)

    def substitute(self, bindings: Mapping[str, Union[MultiPoly, ScalarLike]]) -> "PolyMatrix":
        """Entrywise `MultiPoly.substitute`; the bindings are coerced once and
        zero entries are returned as they are."""
        values = self.rows[0][0]._binding_values(bindings)
        return PolyMatrix(
            [[e._substitute_values(values) if e.terms else e for e in row] for row in self.rows]
        )


def det_cofactor(matrix: PolyMatrix) -> MultiPoly:
    """Determinant by Laplace expansion along the first row.  Exponential;
    no runtime path calls it: it is kept as the independent test oracle for
    `det_bareiss`."""
    n, m = matrix.shape
    if n != m:
        raise ValueError("determinant of non-square matrix")
    rows = matrix.rows

    def rec(row_idx: int, cols: tuple[int, ...]) -> MultiPoly:
        if len(cols) == 1:
            return rows[row_idx][cols[0]]
        acc = MultiPoly.zero(matrix.vars)
        for pos, c in enumerate(cols):
            entry = rows[row_idx][c]
            if entry.is_zero():
                continue
            minor = rec(row_idx + 1, cols[:pos] + cols[pos + 1:])
            term = entry * minor
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return rec(0, tuple(range(n)))


def det_bareiss(matrix: PolyMatrix) -> MultiPoly:
    """Fraction-free Bareiss determinant: a test oracle, and the route of
    `sylvester_resultant`; no runtime path calls it.

    All intermediate divisions are exact.  Row pivoting handles zero pivots.
    A pivot column that is zero from the current row down means the
    determinant is 0: by Sylvester's identity det(M) times a nonzero power of
    the previous pivot equals the determinant of the trailing block, and that
    block has a zero column.
    """
    n, m = matrix.shape
    if n != m:
        raise ValueError("determinant of non-square matrix")
    work = [list(row) for row in matrix.rows]
    sign = 1
    prev = MultiPoly.constant(matrix.vars, 1)
    for k in range(n - 1):
        if work[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not work[r][k].is_zero()), None)
            if pivot_row is None:
                return MultiPoly.zero(matrix.vars)
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[i][j] * pivot - work[i][k] * work[k][j]
                work[i][j] = num.exact_div(prev)
            work[i][k] = MultiPoly.zero(matrix.vars)
        prev = pivot
    result = work[n - 1][n - 1]
    return result if sign == 1 else -result


@lru_cache(maxsize=64)
def _inverse_vandermonde(d: int) -> tuple[tuple[int, ...], ...]:
    """W with W / d! the inverse Vandermonde matrix of the points 0, ..., d.

    Row k holds d! times the x^k coefficient of each Lagrange basis
    polynomial L_j = N_j / prod_{i != j} (j - i), where N_j = prod_{i != j}
    (x - i) and d! / prod_{i != j} (j - i) = (-1)^(d-j) binomial(d, j).
    """
    full = [1]  # prod_{i=0..d} (x - i), ascending
    for i in range(d + 1):
        full = [a - i * b for a, b in zip([0] + full, full + [0])]
    cols = []
    for j in range(d + 1):
        quotient = [0] * (d + 1)  # N_j = full / (x - j), synthetic division
        carry = 0
        for t in range(d + 1, 0, -1):
            carry = full[t] + j * carry
            quotient[t - 1] = carry
        weight = (-1) ** (d - j) * math.comb(d, j)
        cols.append([weight * c for c in quotient])
    return tuple(zip(*cols))


# -- residue char-poly kernel -------------------------------------------------
#
# Z[i]/p is F_p x F_p for a prime p = 1 (mod 4), through i -> +iota and
# i -> -iota with iota^2 = -1 (mod p).  Residues stay below p < 2^28, so a
# product is below 2^56 and a sum of fewer than 2^7 products fits in int64:
# room for a Berkowitz step of up to 127 rows, and for the at most 3 terms
# (L0, L1 and the shift) that meet at one entry's monomial.

_PRIME_CEILING = 1 << 28
_TERMS_PER_SUM = 1 << 7
# residues per block of (grid point, matrix) pairs: 2 MiB of int64 matrices
_KERNEL_BLOCK = 1 << 18

# (p, iota) for the primes p = 1 (mod 4) below 2^28, largest first; filled on
# first use, as far as a call needs.
_PRIMES: list[tuple[int, int]] = []


def _is_prime(c: int) -> bool:
    """Trial division of the odd c > 1 by the odd d <= isqrt(c)."""
    return all(c % d for d in range(3, math.isqrt(c) + 1, 2))


def _primes_beyond(bound: int) -> list[tuple[int, int]]:
    """The fewest leading entries of the prime table whose product exceeds
    `bound`, each with its iota."""
    out, total = [], 1
    while total <= bound:
        if len(out) == len(_PRIMES):
            c = _PRIMES[-1][0] - 4 if _PRIMES else _PRIME_CEILING - 3
            while not _is_prime(c):
                c -= 4
            # a non-residue g has g^((c-1)/2) = -1, so g^((c-1)/4) squares to -1
            g = next(g for g in range(2, c) if pow(g, (c - 1) // 2, c) == c - 1)
            _PRIMES.append((c, pow(g, (c - 1) // 4, c)))
        out.append(_PRIMES[len(out)])
        total *= out[-1][0]
    return out


def _dot_mod(a: np.ndarray, b: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """a @ b modulo `mod` for int64 stacks of residues, summed in slices of
    fewer than 2^7 terms so that no partial sum overflows."""
    step = _TERMS_PER_SUM - 1
    out = a[..., :step] @ b[..., :step, :] % mod
    for s in range(step, a.shape[-1], step):
        out = (out + a[..., s:s + step] @ b[..., s:s + step, :]) % mod
    return out


def _berkowitz_mod(a: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """det(x I - A) modulo `mod` for a stack of residue matrices (..., n, n),
    as coefficients (..., n+1) with the highest power first, computed without
    division (Berkowitz 1984); `mod` broadcasts against (..., 1, 1).

    Step r borders the leading r x r block S with the column C, the row R and
    the corner a; the bordered char poly is the lower-triangular Toeplitz
    product of [1, -a, -R C, -R S C, ..., -R S^(r-1) C] with the block's.
    """
    n = a.shape[-1]
    one = np.ones(a.shape[:-2] + (1,), dtype=np.int64)
    poly = one[..., None]  # a column, so that each Toeplitz product is a matmul
    for r in range(n):
        s = a[..., :r, :r]
        krylov = [a[..., :r, r:r + 1]]  # C, S C, ..., S^(r-1) C
        for _ in range(1, r):
            krylov.append(s @ krylov[-1] % mod)
        tail = a[..., r, r:r + 1]
        if r:
            row = a[..., r:r + 1, :r] @ np.concatenate(krylov, axis=-1)
            tail = np.concatenate([tail, row[..., 0, :]], axis=-1)
        # r + 1 zeros after q, where the Toeplitz matrix's negative indices land
        q = np.concatenate([one, -tail % mod[..., 0], np.zeros_like(tail)], axis=-1)
        poly = q[..., np.arange(r + 2)[:, None] - np.arange(r + 1)] @ poly % mod
    return poly[..., 0]


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """lo[k], lo[k] + 1, ..., lo[k] + counts[k] - 1 for every k, concatenated."""
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _pencil_terms(
    pencils: Sequence[tuple[PolyMatrix, PolyMatrix | np.ndarray | None, ScalarLike]], eps: str
) -> tuple[tuple[str, ...], int, np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the parts L0 and eps*L1 of every pencil of a batch as
    flat arrays; the shift is left to the kernel.

    Returns the variables, n, and per term: the index `at` of its entry (row
    (at % nn) // n, column at % n of pencil at // nn), pencil by pencil, L0's
    terms before L1's; its exponent row; and its coefficient's (a, b, d) as
    object rows.  Each distinct part (by identity) is read once: the
    PolyMatrix parts in one pass over their terms, an integer array's nonzero
    (re, im) pairs as constants over 1.  Each pencil takes its parts' terms
    by index, L1's with eps's exponent raised by one.  Terms of L0 and eps*L1
    that meet at one entry and exponent stay apart.
    """
    if not pencils:
        raise ValueError("at least one pencil required")
    vs = pencils[0][0].vars
    n = pencils[0][0].shape[0]
    nn = n * n
    parts = {id(part): part for pencil in pencils for part in pencil[:2] if part is not None}
    matrices = [part for part in parts.values() if isinstance(part, PolyMatrix)]
    arrays = [part for part in parts.values() if not isinstance(part, PolyMatrix)]
    for matrix in matrices:
        if matrix.shape != (n, n):
            raise ValueError(f"square matrices of one shape required: {matrix.shape} vs {(n, n)}")
        if matrix.vars != vs:
            raise ValueError(f"variable mismatch: {vs} vs {matrix.vars}")
    for array in arrays:
        if array.shape != (n, n, 2):
            raise ValueError(f"square matrices of one shape required: {array.shape} vs {(n, n, 2)}")
    # one pass over the matrices' terms, part after part, then the arrays'
    # nonzero pairs
    entries = [e.terms for matrix in matrices for row in matrix.rows for e in row]
    items = [item for terms in entries for item in terms.items()]
    expos, coeffs = zip(*items) if items else ((), ())
    pairs = np.concatenate(arrays).reshape(-1, 2) if arrays else np.zeros((0, 2), np.int64)
    nonzero = pairs.any(axis=1).nonzero()[0]
    size_t = len(items) + len(nonzero)
    expo = np.zeros((size_t, len(vs)), dtype=np.int64)
    expo[:len(items)] = np.fromiter(chain.from_iterable(expos), np.int64, len(items) * len(vs)).reshape(-1, len(vs))
    abd = np.ones((3, size_t), dtype=object)
    abd[:, :len(items)] = np.fromiter(
        chain.from_iterable(map(attrgetter("a", "b", "d"), coeffs)), object, 3 * len(items)
    ).reshape(-1, 3).T
    abd[:2, len(items):] = pairs[nonzero].T.astype(object)
    at = np.concatenate([np.repeat(np.arange(len(entries)), list(map(len, entries))), len(entries) + nonzero])
    starts = np.searchsorted(at, np.arange(len(parts) + 1) * nn).tolist()
    slot = {id(part): k for k, part in enumerate(matrices + arrays)}

    # each pencil's terms, gathered from its parts'
    spans = [
        (starts[slot[id(part)]], starts[slot[id(part)] + 1], k, lift)
        for k, (l0, l1, _) in enumerate(pencils)
        for part, lift in ((l0, False), (l1, True))
        if part is not None
    ]
    lo, hi, owner, lift = (np.array(column, dtype=np.int64) for column in zip(*spans))
    counts = hi - lo
    take = _ranges(lo, counts)
    owner, lift = np.repeat(owner, counts), np.repeat(lift, counts).astype(bool)
    expo = expo[take]
    if lift.any():
        if eps not in vs:
            raise ValueError(f"variables {vs} do not include {eps!r}")
        expo[lift.nonzero()[0], vs.index(eps)] += 1
    return vs, n, at[take] % nn + owner * nn, expo, abd[:, take]


def char_poly_berkowitz(
    pencils: Sequence[tuple[PolyMatrix, PolyMatrix | np.ndarray | None, ScalarLike]], var: str, eps: str
) -> list[MultiPoly]:
    """det(L0 + eps*L1 - (var + s) I) for each pencil (L0, L1, s) of a
    batch, in order; no entry may involve var.

    The dense exact kernel behind `models.char_polys`.  L0 is a PolyMatrix;
    L1 is a PolyMatrix, an (n, n, 2) integer array of Gaussian-integer
    constants (re, im), or None; s is a constant.  The batch is a non-empty
    sequence of pencils whose parts are square matrices of one shape on one
    variable tuple (anything else is a ValueError), and it is one residue
    computation; a single pencil is a batch of one, and (M, None, 0) is the
    plain det(M - var*I).  `_pencil_terms` reads each distinct part once and
    gathers each pencil's terms of L0 and eps*L1 as arrays, and -s_k joins
    them as a constant term on each diagonal entry of pencil k.  Terms that
    meet are summed in residues; the degree table and the bound count them
    apart, which by the triangle inequality keeps both upper bounds.  Each
    pencil's denominators are cleared once: with D_k the lcm of the
    denominators of pencil k's terms (s_k's included), D_k*M_k takes
    Gaussian-integer values at integer points, so a batch-mate never
    enlarges its entries.  For each other variable x that occurs in the
    batch, a determinant's x-degree is at most min(sum of row-max, sum of
    column-max) of its entries' x-degrees; the maximum of that over the batch
    bounds the grid 0..bound_x, and every char poly is taken at every point
    of the tensor grid.

    The arithmetic is residues in numpy int64.  For each prime p of a fixed
    table (p = 1 mod 4 and p < 2^28, largest first, found on first use),
    Z[i]/p splits into two copies of F_p through i -> +-iota, iota^2 = -1, so
    every prime, embedding, grid point and pencil gives one residue matrix of
    the stack (primes, 2, points, pencils, n, n), and one batched
    division-free Berkowitz (`_berkowitz_mod`) runs on it.  A stack larger
    than `_KERNEL_BLOCK` residues (2 MiB) goes through in blocks of (grid
    point, pencil) pairs: runs of points with the whole batch while a point
    fits in a block, else runs of pencils at one point, so every block stays
    near the limit whatever the batch size.  Each var-coefficient is
    interpolated axis by axis modulo p (`_inverse_vandermonde` times
    (b!)^-1).  The real and imaginary parts are (x+ + x-)/2 and
    (x+ - x-)/(2 iota), and Garner's CRT with the symmetric lift gives the
    integers, divided once at the end by (-1)^n * D_k^(n-j) for the var^j
    coefficient of pencil k.

    The bookkeeping around the residue Berkowitz is array work on the flat
    term arrays (entry index, exponent rows and each coefficient's (a, b,
    d)): the degree table, the denominators, the bound, each monomial's
    mixed-radix code on the grid's axes (one-to-one, as no exponent passes
    its axis bound) and the coefficient residues all come from them.
    Integers that may pass int64 (the cleared coefficients, the CRT lift and
    the denominators) stay Python ints, in object arrays, so there is no
    int64 shortcut and no size switch.

    The prime count is a proof, not a probability.  On the unit torus of the
    free variables an entry of D_k*M_k is at most nu, the sum of its
    coefficients' |re| + |im|, so row i has norm at most
    rho_i = ceil(sqrt(sum of nu^2)).  By Hadamard and then Cauchy's estimate,
    every monomial coefficient of var^(n-j) in det(x I - D_k*M_k), real and
    imaginary parts alike, is at most e_j(rho); primes are taken until their
    product exceeds twice the largest e_j(rho) of the batch.  There is no
    Python-integer fallback: one path serves every size up to 127 rows,
    since a Berkowitz step sums up to n products of residues below 2^56 in
    int64; a larger matrix is a ValueError.
    """
    vs, n, at, expo, abd = _pencil_terms(pencils, eps)
    if var not in vs:
        raise ValueError(f"variables {vs} do not include {var!r}")
    if n >= _TERMS_PER_SUM:
        # a Berkowitz step sums up to n products of residues
        raise ValueError(f"the residue kernel takes fewer than {_TERMS_PER_SUM} rows")
    iv = vs.index(var)
    batch, nn = len(pencils), n * n
    # pencil k's shift is the constant -s_k on each of its diagonal entries
    minus = np.array([attrgetter("a", "b", "d")(-GaussRational.coerce(s)) for *_, s in pencils], dtype=object)
    at = np.concatenate([at, (np.arange(batch)[:, None] * nn + np.arange(n) * (n + 1)).ravel()])
    expo = np.concatenate([expo, np.zeros((batch * n, len(vs)), dtype=np.int64)])
    abd = np.concatenate([abd, np.repeat(minus.T, n, axis=1)], axis=1)
    # the (pencils, n, n, variables) table of entry degrees; a variable that
    # occurs has a nonzero bound
    degs = np.zeros((batch, n, n, len(vs)), dtype=np.int64)
    np.maximum.at(degs.reshape(batch * nn, len(vs)), at, expo)
    bounds = np.minimum(degs.max(axis=2).sum(axis=1), degs.max(axis=1).sum(axis=1)).max(axis=0).tolist()
    if bounds[iv]:
        raise ValueError(f"matrix entries must not involve {var!r}")
    free = [k for k, b in enumerate(bounds) if b]
    bounds = [bounds[k] for k in free]
    denoms = np.ones(batch, dtype=object)
    np.lcm.at(denoms, at // nn, abd[2])
    # re and im of every term of the D_k*M_k
    scaled = abd[:2] * (denoms[at // nn] // abd[2])
    # on the unit torus an entry is at most nu, its coefficients' |re| + |im|
    nu = np.zeros(batch * nn, dtype=object)
    np.add.at(nu, at, abs(scaled).sum(axis=0))
    rho = [math.isqrt(sq - 1) + 1 if sq else 0 for sq in (nu * nu).reshape(batch * n, n).sum(axis=1).tolist()]
    bound = 1
    for first in range(0, batch * n, n):
        e = [1] + [0] * n  # e_j(rho) over the row norms rho seen so far
        for r in rho[first:first + n]:
            for j in range(n, 0, -1):
                e[j] += e[j - 1] * r
        bound = max(bound, *e)
    primes = _primes_beyond(2 * bound)
    count = len(primes)
    ps = np.array([p for p, _ in primes], dtype=object).reshape(count, 1, 1)
    mod = ps.astype(np.int64)  # broadcasts against (primes, *, *)
    mod4 = mod[..., None]

    # each monomial's mixed-radix code on the grid's axes: every exponent is
    # at most its axis bound, so the code is one-to-one
    shape = tuple(b + 1 for b in bounds)
    size = math.prod(shape)
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    stride_of = [0] * len(vs)
    for k, stride in zip(free, strides):
        stride_of[k] = stride
    codes = expo @ np.array(stride_of, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    monomials = seen.nonzero()[0]
    # coefficient residues (prime, embedding, monomial, entry) of the
    # embeddings re +- iota im
    residue = (scaled % ps).astype(np.int64)
    iota = np.array([[[i], [p - i]] for p, i in primes], dtype=np.int64)
    coeff = np.zeros((count, 2, len(monomials), batch * nn), dtype=np.int64)
    # an entry's monomial takes at most an L0, an L1 and a shift term, each
    # below 2^56 + 2^28, so their sum fits in int64
    place = (slice(None), slice(None), np.searchsorted(monomials, codes), at)
    np.add.at(coeff, place, residue[:, :1] + residue[:, 1:] * iota)
    coeff %= mod4
    # powers[axis][p, x, e] = x^e modulo the p-th prime, and each monomial's
    # exponent on that axis
    exponents = [monomials // stride % extent for stride, extent in zip(strides, shape)]
    powers = []
    for b, e in zip(bounds, exponents):
        power = np.ones((count, b + 1, int(e.max()) + 1), dtype=np.int64)
        for k in range(1, power.shape[2]):
            power[..., k] = power[..., k - 1] * np.arange(b + 1) % mod[..., 0]
        powers.append(power)
    residues = np.empty((count, 2, size, batch, n + 1), dtype=np.int64)
    # a block is `rows` grid points times `width` pencils, and its
    # (primes, 2, points, pencils, n, n) stack stays near _KERNEL_BLOCK
    # residues: whole points while one point of the batch fits, else one
    # point and as many pencils as fit
    pairs = max(1, _KERNEL_BLOCK // (2 * count * nn))
    width = min(batch, pairs)
    rows = pairs // width
    for start in range(0, size, rows):
        points = np.arange(start, min(start + rows, size))[:, None]
        values = np.ones((count, len(points), len(monomials)), dtype=np.int64)
        for power, stride, extent, e in zip(powers, strides, shape, exponents):
            values = values * power[:, points // stride % extent, e] % mod
        for first in range(0, batch, width):
            block = coeff[..., first * nn:(first + width) * nn]
            stack = _dot_mod(values[:, None], block, mod4).reshape(count, -1, n, n)
            residues[:, :, start:start + rows, first:first + width] = _berkowitz_mod(stack, mod4).reshape(
                count, 2, len(points), -1, n + 1
            )
    residues = residues.reshape((count, 2) + shape + (batch * (n + 1),))
    for axis, b in enumerate(bounds, 2):
        # times (b!)^-1 mod p, the scaled inverse Vandermonde is the inverse itself
        inverse = np.array([pow(math.factorial(b), -1, p) for p, _ in primes], dtype=np.int64)
        w = (np.array(_inverse_vandermonde(b), dtype=object) % ps).astype(np.int64)
        w = w * inverse[:, None, None] % mod
        lead = math.prod(residues.shape[1:axis])
        residues = _dot_mod(w[:, None], residues.reshape(count, lead, b + 1, -1), mod4).reshape(residues.shape)
    # re and im from the two embeddings x+- = re +- iota im: the rows of
    # [[1/2, 1/2], [1/(2 iota), -1/(2 iota)]] modulo p, where 1/iota = -iota
    to_parts = np.array(
        [[[h, h], [h * (p - i) % p, h * i % p]] for p, i in primes for h in ((p + 1) // 2,)], dtype=np.int64
    )
    parts = to_parts @ residues.reshape(count, 2, -1) % mod
    # Garner on the nonzero coefficients: mixed-radix digits, then the
    # integers with the symmetric lift
    found = parts.any(axis=(0, 1)).nonzero()[0]
    parts = parts[..., found]
    digits = [parts[0]]
    for i in range(1, count):
        p, d = primes[i][0], parts[i]
        for j in range(i):
            d = (d - digits[j]) % p * pow(primes[j][0], -1, p) % p
        digits.append(d)
    x = digits[-1].astype(object)
    for (p, _), d in zip(primes[-2::-1], digits[-2::-1]):
        x = x * p + d
    modulus = math.prod(p for p, _ in primes)
    x = (x + modulus // 2) % modulus - modulus // 2

    # det(M - var I) = (-1)^n det(var I - M), and the var^(n-t) coefficient
    # of pencil k is over D_k^t
    *free_expo, k, t = np.unravel_index(found, shape + (batch, n + 1))
    scale = (-1) ** n
    dens = [[scale * d ** j for j in range(n + 1)] for d in denoms]
    out = np.zeros((len(vs), len(found)), dtype=np.int64)
    out[iv] = n - t
    for v, column in zip(free, free_expo):
        out[v] = column
    terms = [{} for _ in range(batch)]
    for m, j, e, re, im in zip(k.tolist(), t.tolist(), zip(*out.tolist()), *x.tolist()):
        terms[m][e] = _reduced(re, im, dens[m][j])
    return [MultiPoly._trusted(vs, t) for t in terms]


# -- dense univariate layer ---------------------------------------------------
#
# Once a scan has bound every parameter but its target, everything it derives
# from the char poly is univariate.  These helpers take dense lists of
# Gaussian-integer pairs (re, im), highest power first with a nonzero leading
# pair ([] is zero).

Dense = list[tuple[int, int]]


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gdiv(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x / y for Gaussian integers where y divides x."""
    if not y[1]:
        return (x[0] // y[0], x[1] // y[0])
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) // n, (x[1] * y[0] - x[0] * y[1]) // n)


def _gpow(x: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = _gmul(out, x)
    return out


def _trim(p: Dense) -> Dense:
    k = 0
    while k < len(p) and p[k] == (0, 0):
        k += 1
    return p[k:]


def _derivative(p: Dense) -> Dense:
    return [(k * re, k * im) for k, (re, im) in zip(range(len(p) - 1, 0, -1), p)]


def _ggcd(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """gcd of two Gaussian integers, up to a unit: Euclid with the quotient
    rounded to the nearest Gaussian integer, which at least halves the norm."""
    while y != (0, 0):
        n = y[0] * y[0] + y[1] * y[1]
        t0, t1 = x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]
        q0, q1 = (2 * t0 + n) // (2 * n), (2 * t1 + n) // (2 * n)
        x, y = y, (x[0] - q0 * y[0] + q1 * y[1], x[1] - q0 * y[1] - q1 * y[0])
    return x


def _content(p: Dense) -> tuple[int, int]:
    """gcd of the coefficients of p in Z[i], up to a unit; (0, 0) for p = 0."""
    g = math.gcd(*(x for c in p for x in c))
    if not g or not any(im for _, im in p):
        return (g, 0)
    out = (0, 0)
    for re, im in p:
        out = _ggcd((re // g, im // g), out)
    return (out[0] * g, out[1] * g)


def _primitive(p: Dense) -> Dense:
    """p over its content, times the unit that puts its leading pair in
    re > 0, im >= 0."""
    c = _content(p)
    p = [_gdiv(x, c) for x in p]
    while not (p[0][0] > 0 and p[0][1] >= 0):
        p = [(-im, re) for re, im in p]
    return p


def _prem(a: Dense, b: Dense) -> Dense:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b, which
    is integral.  Needs deg a >= deg b >= 0."""
    (lr, li), tail = b[0], b[1:]
    for _ in range(len(a) - len(b) + 1):
        cr, ci = a[0]
        a = [
            (lr * xr - li * xi - cr * yr + ci * yi, lr * xi + li * xr - cr * yi - ci * yr)
            for (xr, xi), (yr, yi) in zip_longest(a[1:], tail, fillvalue=(0, 0))
        ]
    return _trim(a)


def _exact_quotient(a: Dense, b: Dense) -> Dense:
    """a / b for a primitive b that divides a over the fractions: by Gauss's
    lemma the quotient is integral, so every step divides by lc(b) exactly."""
    lead, tail = b[0], b[1:]
    quotient = []
    for _ in range(len(a) - len(b) + 1):
        cr, ci = c = _gdiv(a[0], lead)
        quotient.append(c)
        a = [
            (xr - cr * yr + ci * yi, xi - cr * yi - ci * yr)
            for (xr, xi), (yr, yi) in zip_longest(a[1:], tail, fillvalue=(0, 0))
        ]
    return quotient


def _subresultant_prs(a: Dense, b: Dense) -> tuple[tuple[int, int], Dense]:
    """Res(a, b) and the last nonzero remainder of the subresultant PRS, a
    scalar multiple of gcd(a, b) (Collins 1967; Brown & Traub 1971; Cohen,
    Algorithm 3.3.7).  With a = 0 or b = 0 the resultant is 0 and the
    remainder is the other argument.

    The contents of a and b are divided out first.  Each pseudo-remainder is
    then divided by the factor g * h^delta that the subresultant theorem says
    it carries, so coefficients grow only linearly along the sequence.
    """
    if not a or not b:
        return (0, 0), a or b
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    if len(b) == 1:
        res = _gpow(b[0], len(a) - 1)
        return (sign * res[0], sign * res[1]), b
    ca, cb = _content(a), _content(b)
    scale = _gmul(_gpow(ca, len(b) - 1), _gpow(cb, len(a) - 1))
    scale = (sign * scale[0], sign * scale[1])
    a = [_gdiv(c, ca) for c in a]
    b = [_gdiv(c, cb) for c in b]
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            scale = (-scale[0], -scale[1])
        d = _gmul(g, _gpow(h, delta))
        a, b = b, [_gdiv(c, d) for c in _prem(a, b)]
        g = a[0]
        if delta:
            h = _gdiv(_gpow(g, delta), _gpow(h, delta - 1))
    if not b:
        return (0, 0), a
    return _gmul(scale, _gdiv(_gpow(b[0], len(a) - 1), _gpow(h, len(a) - 2))), b


def square_free(p: Dense) -> Dense:
    """Square-free part of a non-constant p, primitive: p over its gcd with
    p', which has the same roots, each once."""
    return _primitive(_exact_quotient(p, _primitive(_subresultant_prs(p, _derivative(p))[1])))


def horner(p: Dense, num: tuple[int, int], den: int) -> tuple[int, int]:
    """den^(len(p) - 1) * p(num/den) by homogenised Horner, exactly; leading
    zeros in p raise the power of den."""
    acc, power = (0, 0), 1
    for re, im in p:
        acc = _gmul(acc, num)
        acc = (acc[0] + re * power, acc[1] + im * power)
        power *= den
    return acc


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> PolyMatrix:
    """Sylvester matrix of f and g in `var` (n shifted rows of f's coefficients
    over m of g's, m and n their degrees); its entries do not involve `var`."""
    if f.vars != g.vars:
        raise ValueError("variable mismatch")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    m = f.degree(var)
    n = g.degree(var)
    if m == 0 and n == 0:
        raise ValueError("both polynomials are constant in " + repr(var))
    zero = MultiPoly.zero(f.vars)
    rows = []
    for coeffs, count in ((f.coefficient_list(var), n), (g.coefficient_list(var), m)):
        for shift in range(count):
            row = [zero] * (m + n)
            row[shift:shift + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    return PolyMatrix(rows)


def sylvester_resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g in `var`: Bareiss on the Sylvester matrix, so
    Res(c, g) = c^deg(g); both constant in `var` is an error.

    The general multivariate route, kept as a test oracle; the scan's bound
    discriminant comes from the dense univariate layer.
    """
    return det_bareiss(sylvester_matrix(f, g, var))


def _univariate_coeffs(p: MultiPoly, var: str) -> list[GaussRational]:
    """Ascending constant coefficients of a polynomial univariate in `var`."""
    if not p.uses_only([var]):
        raise ValueError(f"polynomial is not univariate in {var!r}")
    return [c.constant_value() for c in p.coefficient_list(var)]


def _from_univariate(coeffs: Sequence[GaussRational], variables: Sequence[str], var: str) -> MultiPoly:
    vs = tuple(variables)
    idx = vs.index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        e = tuple(k if i == idx else 0 for i in range(len(vs)))
        terms[e] = c
    return MultiPoly(vs, terms)


def gcd_univariate(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd of two univariate polynomials over the Gaussian rationals.

    Inputs must be univariate in `var` (other ambient variables already
    substituted away).  gcd(0, 0) is an error; gcd with one zero argument is
    the monic normalization of the other.
    """
    if f.vars != g.vars:
        raise ValueError("variable mismatch")
    a = _univariate_coeffs(f, var)
    b = _univariate_coeffs(g, var)

    def trim(c: list[GaussRational]) -> list[GaussRational]:
        while c and c[-1].is_zero():
            c.pop()
        return c

    a, b = trim(list(a)), trim(list(b))
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")

    def rem(num: list[GaussRational], den: list[GaussRational]) -> list[GaussRational]:
        num = list(num)
        dn = len(den) - 1
        lead = den[-1]
        while len(num) - 1 >= dn and num:
            k = len(num) - 1 - dn
            q = num[-1] / lead
            for i, dc in enumerate(den):
                num[k + i] = num[k + i] - q * dc
            num = trim(num)
            if not num:
                break
        return num

    while b:
        a, b = b, rem(a, b)
    lead = a[-1]
    monic = [c / lead for c in a]
    return _from_univariate(monic, f.vars, var)
