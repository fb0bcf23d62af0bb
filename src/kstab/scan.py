"""Destabilizer parameter scans over the example families.

Each grid point builds the (unsmoothed) polytope, the symmetrized corner
crease, and evaluates the exact stability bracket.  Grid points whose
crease parameter is geometrically invalid (the chord would reach another
vertex) are reported as such rather than erroring out.  Rows are emitted
in deterministic grid-product order with exact rationals; the float
column is a convenience and marked non-authoritative.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError, ParseError, ValidationError
from .exact import rat, rat_str
from .functionals import (StabilityReport, bracket_terms, csc_verdict,
                          plus_masses)
from .generators import gen_donaldson72, gen_pgl3_family, gen_wonderful
from .polytope import chamber_intersect, hull_and_facets
from .plfunc import corner_crease, symmetrize
from .problemfile import CreaseSpec, Problem, parse_rat
from .rootsys import build_root_system

FAMILIES = ("donaldson72", "pgl3", "wonderful-a1")

_AXES = {
    "donaldson72": ("n", "epsilon", "slope"),
    "pgl3": ("s", "n", "epsilon", "slope"),
    "wonderful-a1": ("s", "epsilon", "slope"),
}

DEFAULT_GRIDS = {
    "donaldson72": {
        "n": [10, 20, 50, 100],
        "epsilon": [Fraction(1, 64), Fraction(1, 32), Fraction(1, 16),
                    Fraction(1, 8), Fraction(1, 4)],
        "slope": [Fraction(1), Fraction(4), Fraction(16)],
    },
    "pgl3": {
        "s": [Fraction(5), Fraction(10), Fraction(20)],
        "n": [10, 20, 50, 100],
        "epsilon": [Fraction(1, 64), Fraction(1, 32), Fraction(1, 16),
                    Fraction(1, 8), Fraction(1, 4)],
        "slope": [Fraction(1), Fraction(4), Fraction(16)],
    },
    "wonderful-a1": {
        "s": [Fraction(1), Fraction(2), Fraction(5)],
        "epsilon": [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)],
        "slope": [Fraction(1), Fraction(4)],
    },
}


@dataclass(frozen=True)
class ScanRow:
    params: tuple[tuple[str, Fraction], ...]
    status: str                 # "ok" | "invalid-epsilon"
    bracket: Fraction | None


@dataclass(frozen=True)
class ScanResult:
    family: str
    rows: tuple[ScanRow, ...]
    best: ScanRow | None        # most negative bracket, grid order tie-break
    best_problem: Problem | None
    best_report: StabilityReport | None

    @property
    def found_certificate(self) -> bool:
        return self.best is not None and self.best.bracket is not None \
            and self.best.bracket < 0

    def to_csv(self) -> str:
        axes = _AXES[self.family]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(axes) + ["status", "bracket",
                                      "bracket_float_nonauthoritative"])
        for row in self.rows:
            vals = dict(row.params)
            record = [rat_str(vals[a]) for a in axes] + [row.status]
            if row.bracket is None:
                record += ["", ""]
            else:
                record += [rat_str(row.bracket), repr(float(row.bracket))]
            writer.writerow(record)
        return buf.getvalue()


def _instance(family: str, params: dict[str, Fraction]):
    """(problem, rs, P, P+, masses of P+, crease corner) for one (s, n)
    slice of the grid."""
    if family == "donaldson72":
        problem = gen_donaldson72(int(params["n"]))
    elif family == "pgl3":
        problem = gen_pgl3_family(params["s"], int(params["n"]))
    elif family == "wonderful-a1":
        problem = gen_wonderful("A1", (params["s"],))
    else:
        raise KstabError(f"unknown family {family!r}; choose from {FAMILIES}")
    rs = build_root_system(problem.root_system)
    P = hull_and_facets(problem.vertices)
    if problem.crease is not None:
        corner = problem.crease.corner
    else:  # wonderful family: crease at the chamber-ray vertex
        corner = max(P.vertices)
    Pplus = chamber_intersect(rs, P)
    return problem, rs, P, Pplus, plus_masses(rs, Pplus), corner


def _crease_for(rs, Pplus, corner, params):
    f = corner_crease(Pplus, corner, params["epsilon"], params["slope"], rs=rs)
    return f if rs.is_toric else symmetrize(rs, f)


def scan_destabilizer(family: str, grid: dict | None = None) -> ScanResult:
    grid_in = dict(DEFAULT_GRIDS[family]) if grid is None else dict(grid)
    axes = _AXES[family]
    missing = [a for a in axes if a not in grid_in]
    if missing:
        raise ParseError(f"grid is missing axes {missing}")
    unknown = [a for a in grid_in if a not in axes]
    if unknown:
        raise ParseError(f"family {family!r} has no grid axes {unknown}; "
                         f"its axes are {list(axes)}")
    axis_values = [[rat(v) for v in grid_in[a]] for a in axes]
    if "n" in axes:
        bad = [rat_str(v) for v in axis_values[axes.index("n")] if v.denominator != 1]
        if bad:
            raise ParseError(f"grid axis 'n' takes integers, got {bad}")
    rows: list[ScanRow] = []
    best_idx: int | None = None
    cache: dict[tuple, tuple] = {}
    for combo in itertools.product(*axis_values):
        params = dict(zip(axes, combo))
        key = tuple(params[a] for a in axes if a in ("s", "n"))
        if key not in cache:
            cache[key] = _instance(family, params)
        problem, rs, P, Pplus, masses, corner = cache[key]
        try:
            f = _crease_for(rs, Pplus, corner, params)
        except ValidationError:
            rows.append(ScanRow(tuple(sorted(params.items())), "invalid-epsilon", None))
            continue
        bracket = bracket_terms(rs, Pplus, f, masses).bracket
        rows.append(ScanRow(tuple(sorted(params.items())), "ok", bracket))
        if best_idx is None or bracket < rows[best_idx].bracket:
            best_idx = len(rows) - 1
    best = rows[best_idx] if best_idx is not None else None
    best_problem = None
    best_report = None
    if best is not None:
        params = dict(best.params)
        problem, rs, P, Pplus, _, corner = cache[
            tuple(params[a] for a in axes if a in ("s", "n"))]
        best_report = csc_verdict(rs, P, _crease_for(rs, Pplus, corner, params))
        crease = None
        if problem.crease is not None:
            crease = CreaseSpec(corner=problem.crease.corner,
                                epsilon=params["epsilon"], slope=params["slope"],
                                symmetrize=not rs.is_toric)
        best_problem = Problem(problem.root_system, problem.vertices,
                               problem.pl_pieces, crease, problem.options)
    return ScanResult(family, tuple(rows), best, best_problem, best_report)


def parse_grid(spec: str) -> dict[str, list[Fraction]]:
    """Parse "n=10,20;epsilon=1/64,1/32;slope=1" into a grid dict."""
    grid: dict[str, list[Fraction]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad grid chunk {chunk!r}; expected name=v1,v2,...")
        name, vals = chunk.split("=", 1)
        grid[name.strip()] = [parse_rat(v.strip()) for v in vals.split(",")]
    return grid
