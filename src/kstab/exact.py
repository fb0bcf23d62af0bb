"""Exact arithmetic substrate: rational scalars, multivariate polynomials,
small linear algebra, and exact univariate interpolation.

Everything downstream (polytopes, integrals, stability functionals) is built
on these primitives, and nothing here ever touches floating point: sign
certificates produced by the package must be unconditional.

Rationals are `fractions.Fraction` (arbitrary precision, always stored in
lowest terms with a positive denominator, serialized as ``p/q`` or ``p``).
Polynomials are stored densely by exponent vector; total degrees in this
package never exceed 13, so no sparse cleverness is needed.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FitMismatch, KstabError

Vec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# rational scalars and vectors

def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise KstabError(f"refusing to coerce float {x!r}; inputs must be exact")
    return Fraction(x)


def rat_str(q: Fraction) -> str:
    """Serialize in lowest terms as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(q))


def as_vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise KstabError(f"dot: length mismatch {len(a)} vs {len(b)}")
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def vscale(c, a: Sequence) -> Vec:
    c = rat(c)
    return tuple(c * Fraction(x) for x in a)


def lcm_denominators(values: Iterable) -> int:
    out = 1
    for v in values:
        out = out * Fraction(v).denominator // math.gcd(out, Fraction(v).denominator)
    return out


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction (sign) is preserved; only the positive scale is removed.
    """
    den = lcm_denominators(v)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise KstabError("primitive: zero vector")
    return tuple(x // g for x in ints)


def is_lattice_point(v: Sequence) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


# ---------------------------------------------------------------------------
# multivariate polynomials

class MPoly:
    """Polynomial with Fraction coefficients in a fixed number of variables.

    Terms map dense exponent tuples to nonzero coefficients; the zero
    polynomial has an empty term map.  Instances are immutable by
    convention and safe to share.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            c = rat(c)
            if not c:
                continue
            e = tuple(int(k) for k in e)
            if len(e) != self.nvars or any(k < 0 for k in e):
                raise KstabError(f"bad exponent vector {e} for {self.nvars} variables")
            clean[e] = clean.get(e, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors
    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def affine(cls, constant, gradient: Sequence) -> "MPoly":
        """The polynomial constant + <gradient, x>."""
        n = len(gradient)
        terms = {(0,) * n: rat(constant)}
        for i, g in enumerate(gradient):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = rat(g)
        return cls(n, terms)

    # -- basic queries
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic
    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise KstabError("variable-count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            c = rat(other)
            return MPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        if other.nvars != self.nvars:
            raise KstabError("variable-count mismatch")
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise KstabError("negative power")
        out = MPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- structure
    def homogeneous_part(self, d: int) -> "MPoly":
        """Sum of the terms of total degree exactly d (zero if none)."""
        return MPoly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def integer_terms(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """(D, terms scaled by D): D is the least common denominator of the
        coefficients, so every scaled coefficient is an integer."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return den, {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, in integer arithmetic over one
        common denominator for the coefficients and the coordinates."""
        pt = [rat(x) for x in point]
        if len(pt) != self.nvars:
            raise KstabError("evaluation point has wrong length")
        q = math.lcm(*(x.denominator for x in pt))
        return self.sum_at([[x.numerator * (q // x.denominator) for x in pt]], q)

    def sum_at(self, points: Iterable[Sequence[int]], q: int) -> Fraction:
        """Exact sum of the values at the points x/q, for integer vectors x
        and a positive integer q.

        The terms are scaled to integers and homogenized by q, so the sum is
        taken in integers and a single Fraction is built at the end.
        """
        if not self.terms:
            return Fraction(0)
        deg = self.degree()
        den, scaled = self.integer_terms()
        q_pow = list(itertools.accumulate(itertools.repeat(q, deg), operator.mul, initial=1))
        terms = [(c * q_pow[deg - sum(e)], e) for e, c in scaled.items()]
        total = 0
        for x in points:
            x_pow = [list(itertools.accumulate(itertools.repeat(xi, deg), operator.mul,
                                               initial=1)) for xi in x]
            total += sum(c * math.prod(p[k] for p, k in zip(x_pow, e)) for c, e in terms)
        return Fraction(total, den * q_pow[deg])

    def substitute_affine(self, rows: Sequence[Sequence], offset: Sequence) -> "MPoly":
        """Compose with an affine map: x_i = offset_i + sum_j rows[i][j] * t_j.

        Returns the polynomial in the t variables; the result may live in a
        different number of variables than the input.
        """
        if len(rows) != self.nvars or len(offset) != self.nvars:
            raise KstabError("affine map has wrong shape")
        k = len(rows[0]) if rows else 0
        linear = [MPoly.affine(offset[i], rows[i]) for i in range(self.nvars)]
        # memoized powers of each substituted coordinate
        pows: list[dict[int, MPoly]] = [{0: MPoly.const(k, 1)} for _ in range(self.nvars)]

        def power(i: int, e: int) -> MPoly:
            cache = pows[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * linear[i]
            return cache[e]

        out = MPoly.zero(k)
        for e, c in self.terms.items():
            term = MPoly.const(k, c)
            for i, exp in enumerate(e):
                if exp:
                    term = term * power(i, exp)
            out = out + term
        return out

    def substitute_zero(self, i: int) -> "MPoly":
        """Restrict to the hyperplane {x_i = 0} (same variable count)."""
        return MPoly(self.nvars, {e: c for e, c in self.terms.items() if e[i] == 0})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            parts.append(f"{rat_str(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# univariate polynomials (dense coefficient lists, low degree first)

def upoly_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    x = rat(x)
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def interpolate_univariate(samples: Sequence[tuple], degree: int) -> list[Fraction]:
    """Exact polynomial of degree <= `degree` through the first degree+1 samples.

    Extra samples are verified against the fit; a mismatch raises
    FitMismatch, which signals quasi-polynomial input or a wrong degree.
    Duplicate abscissae are rejected.
    """
    pts = [(rat(k), rat(v)) for k, v in samples]
    if len(pts) < degree + 1:
        raise KstabError(f"need at least {degree + 1} samples, got {len(pts)}")
    xs = [k for k, _ in pts]
    if len(set(xs)) != len(xs):
        raise KstabError("duplicate abscissae")
    base = pts[: degree + 1]
    # Newton divided differences
    coef = [v for _, v in base]
    for level in range(1, len(base)):
        for i in reversed(range(level, len(base))):
            coef[i] = (coef[i] - coef[i - 1]) / (base[i][0] - base[i - level][0])
    # expand Newton form to monomial coefficients
    poly = [Fraction(0)] * (degree + 1)
    acc = [Fraction(1)]  # product of (x - x_j) so far
    for i, c in enumerate(coef):
        for j, a in enumerate(acc):
            poly[j] += c * a
        if i < len(base) - 1:
            xi = base[i][0]
            acc = [Fraction(0)] + acc
            for j in range(len(acc) - 1):
                acc[j] -= xi * acc[j + 1]
    for k, v in pts[degree + 1:]:
        got = upoly_eval(poly, k)
        if got != v:
            raise FitMismatch(
                f"extra sample at k={rat_str(k)}: fit gives {rat_str(got)}, "
                f"observed {rat_str(v)}")
    return poly


def series_div(num: Sequence[Fraction], den: Sequence[Fraction], order: int) -> list[Fraction]:
    """Power series quotient num/den up to (excluding) u^order; den[0] != 0."""
    if not den or not den[0]:
        raise KstabError("series division needs an invertible leading coefficient")
    out: list[Fraction] = []
    for k in range(order):
        acc = num[k] if k < len(num) else Fraction(0)
        for i in range(k):
            dk = den[k - i] if k - i < len(den) else Fraction(0)
            acc -= out[i] * dk
        out.append(acc / den[0])
    return out


# ---------------------------------------------------------------------------
# small exact linear algebra

def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(M: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in M)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]):
    return tuple(tuple(sum(Fraction(A[i][k]) * Fraction(B[k][j]) for k in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def _integer_rows(rows: Sequence[Sequence], extra: Sequence | None = None):
    """Scale each row (plus optional rhs entry) to integers."""
    out = []
    for idx, row in enumerate(rows):
        vals = list(row) + ([extra[idx]] if extra is not None else [])
        den = lcm_denominators(vals)
        out.append([int(Fraction(x) * den) for x in vals])
    return out


def _bareiss(M: list[list[int]], n: int) -> int | None:
    """Fraction-free forward elimination of the first n columns of the
    integer matrix M, in place; the sign of the row permutation, or None
    when the leading n x n block is singular."""
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return None
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(M[k])):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    M = _integer_rows(rows)
    sign = _bareiss(M, n)
    if sign is None:
        return Fraction(0)
    return Fraction(sign * M[n - 1][n - 1], math.prod(lcm_denominators(row) for row in rows))


def solve_linear(A: Sequence[Sequence], b: Sequence) -> Vec | None:
    """Unique solution of a square system, or None when singular."""
    n = len(A)
    M = _integer_rows(A, b)
    if _bareiss(M, n) is None:
        return None
    xs = [Fraction(0)] * n
    for i in reversed(range(n)):
        s = Fraction(M[i][n])
        for j in range(i + 1, n):
            s -= M[i][j] * xs[j]
        xs[i] = s / M[i][i]
    return tuple(xs)


def _row_reduce(rows: Sequence[Sequence], ncols: int):
    """Reduced row echelon form over Q: (reduced rows, pivot columns)."""
    R = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def rational_kernel(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x in Q^ncols : A x = 0}."""
    R, pivots = _row_reduce(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -R[pr][free]
        basis.append(tuple(v))
    return basis


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {x in Z^ncols : A x = 0}.

    Unimodular column operations reduce A to column echelon form; the
    columns of the accumulated transform over the zeroed-out part give a
    basis, automatically saturated.
    """
    A = [[int(x) for x in row] for row in rows]
    V = identity_int(ncols)

    def swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    col = 0
    for r in range(len(A)):
        if col >= ncols:
            break
        while True:
            js = [j for j in range(col, ncols) if A[r][j]]
            if not js:
                break
            j0 = min(js, key=lambda j: (abs(A[r][j]), j))
            if j0 != col:
                swap(j0, col)
            reduced = True
            for j in range(col + 1, ncols):
                if A[r][j]:
                    q = A[r][j] // A[r][col]
                    if q:
                        addmul(j, col, -q)
                    if A[r][j]:
                        reduced = False
            if reduced:
                break
        if col < ncols and A[r][col]:
            col += 1
    return [tuple(V[i][j] for i in range(ncols)) for j in range(col, ncols)]


def saturated_direction_basis(dirs: Sequence[Sequence], ambient: int) -> list[tuple[int, ...]]:
    """Lattice basis of Z^ambient intersected with the span of `dirs`.

    This is the direction lattice that normalizes the face measure: a
    fundamental cell of the returned basis has measure 1.
    """
    dirs = [d for d in dirs if any(Fraction(x) for x in d)]
    if not dirs:
        return []
    forms = rational_kernel(dirs, ambient)
    if not forms:
        return [tuple(row) for row in identity_int(ambient)]
    C = [primitive(f) for f in forms]
    return integer_kernel(C, ambient)
