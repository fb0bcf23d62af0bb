"""First-principles verification by weighted lattice-point sums.

Nothing in this module reuses the closed-form integrals: dimensions d_k
and total weights w_k are exact sums over the lattice points of dilated
polytopes.  One walker serves every dimension: it runs over the bounding
box of the leading coordinates and yields each non-empty fiber, the exact
integer range of the last coordinate, computed in integers.  A weight
sum never visits single points: the weight, scaled to integer
coefficients over one common denominator, restricts on each fiber to an
integer polynomial, which is summed in closed form by its forward
differences (power sums; Beck-Robins, Computing the Continuous
Discretely, ch. 2), and the lifted weight is split where its minimizing
piece changes.  One Fraction is built per sum.  The budget still counts
points, fiber by fiber, so a sum refuses exactly the dilates that
`lattice_points` refuses, with the same message.  The sums are fitted to exact polynomials along an arithmetic
progression (the dilates of a non-lattice chamber cut are only
quasi-polynomial, so the progression step clears every denominator in
sight and the fit is verified on held-out samples).  The Futaki invariant
then comes out of the expansion

    F(k) = w_k / (k d_k) = F0 + F1/k + ...

by exact power-series division, with no reference to the closed-form
bracket.  Agreement of -F1 with the bracket formula is the package's core
acceptance check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, FitMismatch, KstabError
from .exact import (MPoly, interpolate_univariate, lcm_denominators, rat,
                    series_div)
from .polytope import Polytope
from .plfunc import PLFunction, max_on_polytope, subdivision_from_pl
from .rootsys import RootSystem

DEFAULT_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# lattice point enumeration

def _axis_interval(constraints, prefix: tuple[int, ...]) -> tuple[int, int]:
    """Integer range of the last coordinate given the leading ones.

    constraints: list of integer (normal, offset) meaning <normal, x> >= offset.
    Returns (lo, hi) integer bounds, possibly an empty range.
    """
    lo = hi = None
    for n, c in constraints:
        rest = c - sum(a * b for a, b in zip(n, prefix))  # zip stops before n[-1]
        coef = n[-1]
        if coef > 0:
            val = -(-rest // coef)
            if lo is None or val > lo:
                lo = val
        elif coef < 0:
            val = rest // coef
            if hi is None or val < hi:
                hi = val
        elif rest > 0:
            return 1, 0  # infeasible prefix
    if lo is None or hi is None:
        raise KstabError("unbounded lattice enumeration")
    return lo, hi


def _fibers(P: Polytope, k):
    """The non-empty lines of lattice points of k*P along the last
    coordinate, as (prefix, lo, hi) in lexicographic order; k is any
    non-negative rational."""
    if not P.is_full_dim:
        raise KstabError("lattice enumeration expects a full-dimensional polytope")
    k = rat(k)
    cons = []
    for f in P.facets:
        c = k * f.offset
        cons.append((tuple(a * c.denominator for a in f.normal), c.numerator))
    outer_ranges = []
    for i in range(P.ambient - 1):
        lo = min(v[i] for v in P.vertices) * k
        hi = max(v[i] for v in P.vertices) * k
        outer_ranges.append(range(-((-lo.numerator) // lo.denominator),
                                  hi.numerator // hi.denominator + 1))
    for prefix in itertools.product(*outer_ranges):
        lo, hi = _axis_interval(cons, prefix)
        if lo <= hi:
            yield prefix, lo, hi


def _over_budget(budget: int, k) -> BudgetError:
    return BudgetError(
        f"lattice enumeration exceeds the budget of {budget} points at k={rat(k)}")


def lattice_points(P: Polytope, k, budget: int = DEFAULT_BUDGET):
    """Iterate the lattice points of the dilate k*P in lexicographic order,
    refusing past budget; k is any non-negative rational."""
    count = 0
    for prefix, lo, hi in _fibers(P, k):
        for x in range(lo, hi + 1):
            count += 1
            if count > budget:
                raise _over_budget(budget, k)
            yield prefix + (x,)


# ---------------------------------------------------------------------------
# closed-form sums along a fiber

def _restrict(terms, prefix: tuple[int, ...], deg: int) -> list[int]:
    """Coefficients, low degree first, of the integer polynomial
    x -> sum of c * m(prefix, x) over the (exponent, c) terms."""
    out = [0] * (deg + 1)
    for e, c in terms:
        for p, m in zip(prefix, e):
            if m:
                c *= p ** m
        out[e[-1]] += c
    return out


def _times_linear(coeffs: list[int], a: int, b: int) -> list[int]:
    """Coefficients of (a + b*x) * p(x)."""
    return [a * c1 + b * c0 for c0, c1 in zip([0] + coeffs, coeffs + [0])]


def _horner(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _line_sum(coeffs: list[int], lo: int, hi: int) -> int:
    """p(lo) + ... + p(hi) for an integer polynomial p, exactly: the
    Newton forward-difference form sum_i (Delta^i p)(lo) * C(n, i+1) with
    n = hi - lo + 1 (Beck-Robins, ch. 2), or directly for short lines."""
    n = hi - lo + 1
    if n <= len(coeffs):
        return sum(_horner(coeffs, x) for x in range(lo, hi + 1))
    vals = [_horner(coeffs, lo + t) for t in range(len(coeffs))]
    total = 0
    for i in range(len(coeffs)):
        total += vals[0] * math.comb(n, i + 1)
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return total


def _min_segments(lines, lo: int, hi: int):
    """Split lo..hi where the minimum of the affine functions a + b*x
    (integer a, b) changes piece; yields (a, b, start, end).  Among pieces
    tied at a start the one of least slope is taken, which stays minimal
    longest; any tied piece gives the same values."""
    x = lo
    while x <= hi:
        a, b = min(lines, key=lambda ab: (ab[0] + ab[1] * x, ab[1]))
        end = hi
        for a2, b2 in lines:
            if b2 < b:  # a2 + b2*y < a + b*y exactly for y > (a2 - a)/(b - b2)
                end = min(end, (a2 - a) // (b - b2))
        yield a, b, x, end
        x = end + 1


def weighted_lattice_sum(rs: RootSystem, P: Polytope, k, weight="H",
                         f: PLFunction | None = None, R=None,
                         budget: int = DEFAULT_BUDGET) -> Fraction:
    """Sum over the lattice points of k*P of a pointwise weight.

    weight: "one", "H", an arbitrary MPoly, or "lifted" for
    H(lambda) * (k*R - k*f(lambda/k)), the total weight of the induced
    one-parameter action.  The lifted weight is H times the minimum over
    pieces of (k*R - k*const - <gradient, lambda>), which is exact with
    no division.  Each fiber is summed in closed form in integers, over
    the common denominators of the weight and the pieces; the budget
    counts the points of the fibers.
    """
    if isinstance(weight, MPoly):
        poly = weight
    elif weight == "one":
        poly = MPoly.const(P.ambient, 1)
    elif weight in ("H", "lifted"):
        poly = rs.H
    else:
        raise KstabError(f"unknown weight {weight!r}")
    den, scaled = poly.integer_terms()
    terms = list(scaled.items())
    deg = max((e[-1] for e, _ in terms), default=0)
    lifted = weight == "lifted"
    scale = 1
    if lifted:
        if f is None or R is None:
            raise KstabError("lifted weight needs f and R")
        k, R = rat(k), rat(R)
        pieces = [(k * R - k * c, g) for c, g in f.pieces]
        scale = lcm_denominators([x for a, g in pieces for x in (a, *g)])
        pieces = [(int(a * scale), [int(x * scale) for x in g]) for a, g in pieces]
    total = 0
    count = 0
    for prefix, lo, hi in _fibers(P, k):
        count += hi - lo + 1
        if count > budget:
            raise _over_budget(budget, k)
        p = _restrict(terms, prefix, deg)
        if lifted:
            lines = [(a - sum(x * y for x, y in zip(g, prefix)), -g[-1]) for a, g in pieces]
            for a, b, x0, x1 in _min_segments(lines, lo, hi):
                total += _line_sum(_times_linear(p, a, b), x0, x1)
        else:
            total += _line_sum(p, lo, hi)
    return Fraction(total, den * scale)


# ---------------------------------------------------------------------------
# series fitting

@dataclass(frozen=True)
class LatticeSumSeries:
    k0: int
    step: int
    count: int
    d_values: tuple[Fraction, ...]
    w_values: tuple[Fraction, ...] | None
    fitted_d: tuple[Fraction, ...]          # coefficients, low degree first
    fitted_w: tuple[Fraction, ...] | None
    verified_from: int                      # smallest k0 for which the fit verified

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(self.k0 + i * self.step for i in range(self.count))


def required_step(rs: RootSystem, Pplus: Polytope, f: PLFunction | None = None,
                  R=None) -> int:
    """Progression step clearing every denominator of the instance.

    Multiples of this step dilate the chamber cut, the linearity cells and
    the roof to lattice data, which makes the sampled sums exactly
    polynomial along the progression.
    """
    vals = [x for v in Pplus.vertices for x in v]
    if f is not None:
        sub = subdivision_from_pl(Pplus, f)
        for cell, _ in sub.cells:
            vals.extend(x for v in cell.vertices for x in v)
        for c, g in f.pieces:
            vals.append(c)
            vals.extend(g)
        if R is not None:
            vals.append(rat(R))
    return lcm_denominators(vals)


def fit_series(rs: RootSystem, Pplus: Polytope, f: PLFunction | None = None,
               R=None, progression: tuple[int, int, int] | None = None,
               budget: int = DEFAULT_BUDGET, retries: int = 2) -> LatticeSumSeries:
    """Fit d_k (and w_k when f is given) to exact polynomials in k.

    d_k has degree n and w_k degree n+1, where n = rank + deg H.  The fit
    is verified on held-out samples; a verification failure signals
    quasi-polynomial onset and is retried with a shifted window before
    giving up.
    """
    step = required_step(rs, Pplus, f, R)
    n = rs.n
    count = n + 5
    k0 = step
    if progression is not None:
        k0, step_req, count = progression
        if k0 < 0 or step_req < 1 or count < 1:
            raise KstabError(f"bad progression {k0}:{step_req}:{count}; "
                             "need k0 >= 0, step >= 1 and count >= 1")
        if step_req % step:
            raise KstabError(
                f"progression step {step_req} is not a multiple of the required step {step}")
        step = step_req
        if count < n + 4:
            raise KstabError(f"progression too short: need at least {n + 4} samples")
    if R is None and f is not None:
        mx = max_on_polytope(f, Pplus)
        R = mx if mx > 0 else Fraction(1)
    last_error: FitMismatch | None = None
    for attempt in range(retries + 1):
        ks = [k0 + i * step for i in range(count)]
        d_vals = [weighted_lattice_sum(rs, Pplus, k, "H", budget=budget) for k in ks]
        try:
            fitted_d = interpolate_univariate(list(zip(ks, d_vals)), n)
            w_vals = None
            fitted_w = None
            if f is not None:
                w_vals = [weighted_lattice_sum(rs, Pplus, k, "lifted", f=f, R=R,
                                               budget=budget) for k in ks]
                fitted_w = interpolate_univariate(list(zip(ks, w_vals)), n + 1)
            return LatticeSumSeries(
                k0=k0, step=step, count=count,
                d_values=tuple(d_vals),
                w_values=tuple(w_vals) if w_vals is not None else None,
                fitted_d=tuple(fitted_d),
                fitted_w=tuple(fitted_w) if fitted_w is not None else None,
                verified_from=k0)
        except FitMismatch as exc:
            last_error = exc
            k0 += step * count
    raise FitMismatch(f"series fit failed after {retries + 1} windows: {last_error}")


def oracle_futaki(rs: RootSystem, Pplus: Polytope, f: PLFunction, R=None,
                  progression=None, budget: int = DEFAULT_BUDGET) -> Fraction:
    """The coefficient F1 in w_k/(k d_k) = F0 + F1/k + ..., from raw sums.

    Positive F1 destabilizes; the closed-form bracket equals -2*F1 times
    the H_top mass when both paths are correct.
    """
    series = fit_series(rs, Pplus, f, R=R, progression=progression, budget=budget)
    return futaki_from_series(series)


def futaki_from_series(series: LatticeSumSeries) -> Fraction:
    if series.fitted_w is None:
        raise KstabError("series carries no w_k data")
    d = list(series.fitted_d)
    w = list(series.fitted_w)
    deg_d = len(d) - 1
    while deg_d >= 0 and not d[deg_d]:
        deg_d -= 1
    if deg_d < 0:
        raise KstabError("zero dimension series")
    deg_w = deg_d + 1
    w += [Fraction(0)] * (deg_w + 1 - len(w))
    # as power series in u = 1/k: numerator w reversed, denominator k*d reversed
    num = [w[deg_w - m] for m in range(deg_w + 1)]
    den = [d[deg_d - m] for m in range(deg_d + 1)] + [Fraction(0)]
    coeffs = series_div(num, den, 2)
    return coeffs[1]


# ---------------------------------------------------------------------------
# lattice-sum lemma check

@dataclass(frozen=True)
class LemmaCheck:
    ok: bool
    fitted: tuple[Fraction, ...]
    top_coefficient: Fraction
    second_coefficient: Fraction
    expected_top: Fraction
    expected_second: Fraction


def lemma_check(P: Polytope, g: MPoly, budget: int = DEFAULT_BUDGET) -> LemmaCheck:
    """Verify the two leading coefficients of sum over k*P of g against the
    interior and half-boundary integrals, exactly.

    P must be a lattice polytope and g homogeneous; the sum is then an
    exact polynomial in k of degree dim + deg whose top coefficient is the
    integral of g over P and whose second coefficient is half the boundary
    integral of g (all facets, lattice face measure).
    """
    from .integrate import boundary_integral, integrate_poly
    from .exact import is_lattice_point
    if any(not is_lattice_point(v) for v in P.vertices):
        raise KstabError("lemma check needs a lattice polytope")
    deg = g.degree()
    if deg < 0:
        raise KstabError("zero weight")
    if g.homogeneous_part(deg) != g:
        raise KstabError("weight must be homogeneous")
    degree = P.dim + deg
    ks = list(range(1, degree + 4))
    sums = [weighted_lattice_sum(None, P, k, g, budget=budget) for k in ks]
    fitted = interpolate_univariate(list(zip(ks, sums)), degree)
    top = fitted[degree]
    second = fitted[degree - 1] if degree >= 1 else Fraction(0)
    expected_top = integrate_poly(P, g)
    expected_second = boundary_integral(P, g, "all") / 2
    return LemmaCheck(
        ok=(top == expected_top and second == expected_second),
        fitted=tuple(fitted), top_coefficient=top, second_coefficient=second,
        expected_top=expected_top, expected_second=expected_second)
