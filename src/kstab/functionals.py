"""Closed-form stability quantities on the moment polytope.

A single exact bracket

    B(f) = int_{outer boundary} f*H_top dsigma + 2 int f*H_sub dmu
           - a int f*H_top dmu,
    a    = (int_{outer boundary} H_top dsigma + 2 int H_sub dmu) / int H_top dmu

backs the Futaki invariant (-F1 = B(f) / (2 int H_top dmu)), the linear
part of the Mabuchi energy (B(f) times a symbolic (2*pi)^r), and the final
verdict: a negative bracket certifies that no constant-scalar-curvature
metric exists in the polarization class.

All of these, and the ABCD coefficients of the lifted degeneration, are
arithmetic on six integrals over P+ (`BracketTerms`): the masses X and Z
(outer boundary and interior H_top mass) and Y (H_sub mass), integrated
once per P+ by `plus_masses`, and their f-weighted counterparts B_top,
I_top and I_sub, integrated once per (P+, f) by `bracket_terms` over the
cells of f's linearity subdivision.

The boundary is always taken over the outer facets; the top graded part
vanishes identically on chamber walls, so the choice is immaterial for the
weights used here but fixes the semantics once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError, ValidationError
from .exact import rat, rat_str
from .integrate import boundary_integral, face_integral, integrate_poly
from .oracle import DEFAULT_BUDGET, lattice_points
from .polytope import (OUTER, Polytope, chamber_intersect, facet_polytope,
                       is_w_invariant)
from .plfunc import (PLFunction, is_w_invariant_pl, max_on_polytope,
                     piece_poly, subdivision_from_pl)
from .rootsys import RootSystem

VERDICT_DESTABILIZING = "destabilizing"
VERDICT_NONNEGATIVE = "non-negative"
VERDICT_ZERO = "zero"

_APPROX_NOTE = ("certificate test functions are piecewise linear; they stand in "
                "for C^1 potentials by approximation, so a negative value rules "
                "out constant-scalar-curvature metrics in this class")


@dataclass(frozen=True)
class StabilityReport:
    root_system: str
    a: Fraction
    bracket: Fraction
    minus_F1: Fraction
    mabuchi_coeff: Fraction          # equal to the bracket by construction
    mabuchi_prefactor: str           # symbolic, e.g. "(2*pi)^2"
    abcd: tuple[Fraction, Fraction, Fraction, Fraction]
    abcd_ratio: Fraction             # (A*D - B*C)/C^2, equals minus_F1
    roof: Fraction
    verdict: str
    note: str

    def to_text(self) -> str:
        A, B, C, D = self.abcd
        lines = [
            f"root_system: {self.root_system}",
            f"a: {rat_str(self.a)}",
            f"bracket: {rat_str(self.bracket)}",
            f"minus_F1: {rat_str(self.minus_F1)}",
            f"mabuchi_linear_coefficient: {rat_str(self.mabuchi_coeff)} x {self.mabuchi_prefactor}",
            f"roof_R: {rat_str(self.roof)}",
            f"A: {rat_str(A)}",
            f"B: {rat_str(B)}",
            f"C: {rat_str(C)}",
            f"D: {rat_str(D)}",
            f"(AD-BC)/C^2: {rat_str(self.abcd_ratio)}",
            f"note: {self.note}",
            f"VERDICT: {self.verdict}",
        ]
        return "\n".join(lines)


def plus_masses(rs: RootSystem, Pplus: Polytope) -> tuple[Fraction, Fraction, Fraction]:
    """(X, Y, Z) = (outer boundary H_top mass, H_sub mass, H_top mass) of P+."""
    X = boundary_integral(Pplus, rs.H_top, OUTER)
    Y = integrate_poly(Pplus, rs.H_sub)
    Z = integrate_poly(Pplus, rs.H_top)
    if Z <= 0:
        raise ValidationError("degenerate polytope: H_top has no mass")
    return X, Y, Z


@dataclass(frozen=True)
class BracketTerms:
    """The six integrals of one (P+, f), and the max of f on P+."""
    X: Fraction      # outer boundary H_top mass
    Y: Fraction      # H_sub mass
    Z: Fraction      # H_top mass, positive
    B_top: Fraction  # outer boundary f*H_top mass
    I_sub: Fraction  # f*H_sub mass
    I_top: Fraction  # f*H_top mass
    f_max: Fraction  # the least admissible roof constant

    @property
    def a(self) -> Fraction:
        return (self.X + 2 * self.Y) / self.Z

    @property
    def bracket(self) -> Fraction:
        return self.B_top + 2 * self.I_sub - self.a * self.I_top

    @property
    def minus_F1(self) -> Fraction:
        return self.bracket / (2 * self.Z)

    def abcd(self, R):
        """The four expansion coefficients of the lifted degeneration with
        roof R, plus the cross-check ratio (A*D - B*C)/C^2 which equals -F1
        exactly."""
        R = rat(R)
        if R < self.f_max:
            raise ValidationError("roof constant below max of f")
        A = R * self.Z - self.I_top
        D = Fraction(1, 2) * self.X + self.Y
        B = R * D - (Fraction(1, 2) * self.B_top + self.I_sub)
        C = self.Z
        return A, B, C, D, (A * D - B * C) / C ** 2


def bracket_terms(rs: RootSystem, Pplus: Polytope, f: PLFunction,
                  masses: tuple[Fraction, Fraction, Fraction]) -> BracketTerms:
    """Complete the masses of `plus_masses` with the f-weighted terms.

    f is affine on each cell of its linearity subdivision of the moment
    polytope, so every integrand is an exact polynomial per cell; the cell
    facets inherit the outer/wall tags, which makes the boundary term a sum
    over exactly the outer part of the boundary with no double counting.
    """
    B_top = Fraction(0)
    I_sub = Fraction(0)
    I_top = Fraction(0)
    for cell, idx in subdivision_from_pl(Pplus, f).cells:
        ell = piece_poly(f.pieces[idx])
        I_top += integrate_poly(cell, ell * rs.H_top)
        I_sub += integrate_poly(cell, ell * rs.H_sub)
        for ft in cell.facets:
            if ft.tag == OUTER:
                B_top += face_integral(facet_polytope(cell, ft), ell * rs.H_top)
    return BracketTerms(*masses, B_top, I_sub, I_top, max_on_polytope(f, Pplus))


def average_a(rs: RootSystem, Pplus: Polytope) -> Fraction:
    """Average scalar curvature of the polarization, from polytope data."""
    X, Y, Z = plus_masses(rs, Pplus)
    return (X + 2 * Y) / Z


def stability_bracket(rs: RootSystem, Pplus: Polytope, f: PLFunction) -> Fraction:
    return bracket_terms(rs, Pplus, f, plus_masses(rs, Pplus)).bracket


def futaki_minus_F1(rs: RootSystem, Pplus: Polytope, f: PLFunction) -> Fraction:
    return bracket_terms(rs, Pplus, f, plus_masses(rs, Pplus)).minus_F1


def abcd_coefficients(rs: RootSystem, Pplus: Polytope, f: PLFunction, R):
    """A, B, C, D and (A*D - B*C)/C^2; see `BracketTerms.abcd`."""
    return bracket_terms(rs, Pplus, f, plus_masses(rs, Pplus)).abcd(R)


@dataclass(frozen=True)
class DensityScan:
    rows: tuple[tuple[tuple[Fraction, ...], int], ...]  # (point, sign)
    negative_fraction: Fraction
    vertex_signs: tuple[tuple[tuple[Fraction, ...], int], ...]


def density_sign_scan(rs: RootSystem, Pplus: Polytope, grid_step,
                      budget: int = DEFAULT_BUDGET) -> DensityScan:
    """Exact sign table of the pointwise destabilizer density
    2*H_sub(x) - a*H_top(x) over a rational grid in the moment polytope.

    The grid points are step * m for the lattice points m of P+ / step, in
    lexicographic order; more than `budget` of them are refused.  Also
    reports the sign at every outer vertex (vertices not lying on a
    chamber wall), where a negative density is the precondition for a
    corner crease to destabilize.
    """
    step = rat(grid_step)
    if step <= 0:
        raise KstabError("grid step must be positive")
    a = average_a(rs, Pplus)
    density = 2 * rs.H_sub - a * rs.H_top

    def _sign(q: Fraction) -> int:
        return (q > 0) - (q < 0)
    rows = []
    negatives = 0
    for m in lattice_points(Pplus, 1 / step, budget):
        pt = tuple(step * x for x in m)
        s = _sign(density.evaluate(pt))
        rows.append((pt, s))
        negatives += s < 0
    vertex_signs = []
    for v in Pplus.vertices:
        if rs.wall_normals and any(sum(Fraction(w[i]) * v[i] for i in range(len(v))) == 0
                                   for w in rs.wall_normals):
            continue
        vertex_signs.append((v, _sign(density.evaluate(v))))
    frac = Fraction(negatives, len(rows)) if rows else Fraction(0)
    return DensityScan(tuple(rows), frac, tuple(vertex_signs))


def csc_verdict(rs: RootSystem, P: Polytope, f: PLFunction,
                roof=None) -> StabilityReport:
    """Full stability report for a Weyl-invariant polytope and test function."""
    ok, witness = is_w_invariant(rs, P)
    if not ok:
        raise ValidationError(f"polytope is not Weyl-invariant, witness {witness}")
    if not is_w_invariant_pl(rs, f, P):
        raise ValidationError("test function is not Weyl-invariant on the polytope")
    Pplus = chamber_intersect(rs, P)
    terms = bracket_terms(rs, Pplus, f, plus_masses(rs, Pplus))
    bracket = terms.bracket
    if roof is None:
        # P and f are W-invariant, so f has the same max on P and on P+
        mx = terms.f_max
        roof = Fraction(-((-mx.numerator) // mx.denominator)) if mx > 0 else Fraction(1)
    A, B, C, D, ratio = terms.abcd(roof)
    if bracket < 0:
        verdict = VERDICT_DESTABILIZING
        note = ("Mabuchi energy unbounded below along this degeneration; no "
                "constant-scalar-curvature metric exists in this class. " + _APPROX_NOTE)
    elif bracket == 0:
        verdict = VERDICT_ZERO
        note = _APPROX_NOTE
    else:
        verdict = VERDICT_NONNEGATIVE
        note = _APPROX_NOTE
    return StabilityReport(
        root_system=rs.label, a=terms.a, bracket=bracket, minus_F1=terms.minus_F1,
        mabuchi_coeff=bracket, mabuchi_prefactor=f"(2*pi)^{rs.rank}",
        abcd=(A, B, C, D), abcd_ratio=ratio, roof=rat(roof),
        verdict=verdict, note=note)
