"""Command-line interface.

Commands: validate, hilbert, futaki, mabuchi, oracle-futaki, lemma-check,
density, lift, gen-example, scan.  Outputs are deterministic; every number
printed is an exact rational except columns explicitly marked as
non-authoritative float approximations.

Exit codes: 0 success, 2 validation failure, 3 budget refusal,
4 parse error (malformed input or command line).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import BudgetError, KstabError, ParseError, ValidationError
from .exact import MPoly, rat_str
from .functionals import csc_verdict, density_sign_scan
from .generators import (gen_donaldson72, gen_pgl3_family, gen_pgln_simplex,
                         gen_wonderful)
from .integrate import boundary_integral, integrate_poly
from .oracle import DEFAULT_BUDGET, fit_series, lemma_check, oracle_futaki
from .polytope import (Polytope, chamber_intersect, dilate, hull_and_facets,
                       is_delzant, is_w_invariant, lattice_scale,
                       wall_vertex_check)
from .plfunc import (PLFunction, build_test_polytope, corner_crease,
                     is_w_invariant_pl, max_on_polytope, pl_from_pieces,
                     symmetrize)
from .problemfile import (Problem, load_problem, parse_rat, save_problem,
                          serialize_problem)
from .rootsys import RootSystem, build_root_system
from .scan import FAMILIES, parse_grid, scan_destabilizer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4


def _load(args) -> tuple[Problem, RootSystem, Polytope]:
    problem = load_problem(args.infile)
    rs = build_root_system(args.root_system or problem.root_system)
    P = hull_and_facets(problem.vertices)
    if P.ambient != rs.rank:
        raise ValidationError("polytope dimension does not match the root system rank")
    return problem, rs, P


def _test_function(problem: Problem, rs, P) -> PLFunction | None:
    if problem.pl_pieces is not None:
        return pl_from_pieces(rs.rank, problem.pl_pieces)
    if problem.crease is not None:
        Pplus = chamber_intersect(rs, P)
        f = corner_crease(Pplus, problem.crease.corner, problem.crease.epsilon,
                          problem.crease.slope, rs=rs)
        if problem.crease.symmetrize:
            f = symmetrize(rs, f)
        return f
    return None


def _parse_progression(spec: str | None):
    if spec is None:
        return None
    try:
        k0, step, count = (int(x) for x in spec.split(":"))
    except ValueError:
        raise ParseError(f"bad progression {spec!r}; expected k0:step:count") from None
    if k0 < 0 or step < 1 or count < 1:
        raise ParseError(f"bad progression {spec!r}; "
                         "need k0 >= 0, step >= 1 and count >= 1")
    return k0, step, count


def _emit(args, text: str) -> None:
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    problem, rs, P = _load(args)
    lines = [f"root_system: {rs.label}",
             f"vertices: {len(P.vertices)}",
             f"full_dimensional: {P.is_full_dim}"]
    ok_all = True
    winv, witness = is_w_invariant(rs, P)
    ok_all &= winv
    lines.append(f"w_invariant: {winv}" + ("" if winv else f"  # witness {witness}"))
    wall_ok, wall_wit = wall_vertex_check(rs, P)
    lines.append(f"wall_vertex_check: {wall_ok}"
                 + ("" if wall_ok else f"  # on-wall vertices {list(wall_wit)}"))
    scale = lattice_scale(P)
    lines.append(f"lattice_scale: {scale}")
    rep = is_delzant(dilate(P, scale) if scale != 1 else P)
    lines.append(f"delzant: {rep.ok}")
    for v, why in rep.failures:
        lines.append(f"  delzant_fail: ({', '.join(rat_str(x) for x in v)}) {why}")
    f = _test_function(problem, rs, P)
    if f is not None:
        finv = is_w_invariant_pl(rs, f, P)
        ok_all &= finv
        lines.append(f"pl_w_invariant: {finv}")
    lines.append("result: " + ("OK" if ok_all else "INVALID"))
    _emit(args, "\n".join(lines))
    return EXIT_OK if ok_all else EXIT_VALIDATION


def cmd_hilbert(args) -> int:
    problem, rs, P = _load(args)
    Pplus = chamber_intersect(rs, P)
    f = _test_function(problem, rs, P)
    series = fit_series(rs, Pplus, f=f,
                        progression=_parse_progression(args.progression),
                        budget=args.budget)
    lines = [f"progression: {series.k0}:{series.step}:{series.count}",
             f"verified_from: {series.verified_from}",
             "d_values: " + " ".join(rat_str(v) for v in series.d_values),
             "fitted_d: " + " ".join(rat_str(c) for c in series.fitted_d)]
    lines.append(f"leading_coefficient: {rat_str(series.fitted_d[-1])}")
    lines.append(f"H_top_mass: {rat_str(integrate_poly(Pplus, rs.H_top))}")
    lines.append(f"H_top_boundary_mass[{args.selector}]: "
                 f"{rat_str(boundary_integral(Pplus, rs.H_top, args.selector))}")
    if series.fitted_w is not None:
        lines.append("w_values: " + " ".join(rat_str(v) for v in series.w_values))
        lines.append("fitted_w: " + " ".join(rat_str(c) for c in series.fitted_w))
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _report_command(args, emphasize: str) -> int:
    problem, rs, P = _load(args)
    f = _test_function(problem, rs, P)
    if f is None:
        raise ValidationError("problem file carries no test function")
    roof = problem.option("roof")
    report = csc_verdict(rs, P, f, roof=parse_rat(roof) if roof else None)
    _emit(args, f"# {emphasize}\n" + report.to_text())
    return EXIT_OK


def cmd_futaki(args) -> int:
    return _report_command(args, "Futaki invariant of the induced degeneration: minus_F1")


def cmd_mabuchi(args) -> int:
    return _report_command(
        args, "linear part of the Mabuchi energy: mabuchi_linear_coefficient")


def cmd_oracle_futaki(args) -> int:
    problem, rs, P = _load(args)
    f = _test_function(problem, rs, P)
    if f is None:
        raise ValidationError("problem file carries no test function")
    Pplus = chamber_intersect(rs, P)
    roof = problem.option("roof")
    R = parse_rat(roof) if roof else None
    F1 = oracle_futaki(rs, Pplus, f, R=R,
                       progression=_parse_progression(args.progression),
                       budget=args.budget)
    from .functionals import futaki_minus_F1
    closed = futaki_minus_F1(rs, Pplus, f)
    lines = [f"oracle_F1: {rat_str(F1)}",
             f"oracle_minus_F1: {rat_str(-F1)}",
             f"closed_form_minus_F1: {rat_str(closed)}",
             f"agreement: {-F1 == closed}"]
    _emit(args, "\n".join(lines))
    return EXIT_OK if -F1 == closed else EXIT_VALIDATION


def cmd_lemma_check(args) -> int:
    problem, rs, P = _load(args)
    scale = lattice_scale(P)
    if scale != 1:
        P = dilate(P, scale)
    weights = {"H_top": rs.H_top, "H_sub": rs.H_sub, "one": MPoly.const(rs.rank, 1)}
    g = weights[args.weight]
    check = lemma_check(P, g, budget=args.budget)
    lines = [f"weight: {args.weight}",
             f"lattice_scale_applied: {scale}",
             f"top_coefficient: {rat_str(check.top_coefficient)}",
             f"expected_top: {rat_str(check.expected_top)}",
             f"second_coefficient: {rat_str(check.second_coefficient)}",
             f"expected_second: {rat_str(check.expected_second)}",
             f"result: {'OK' if check.ok else 'MISMATCH'}"]
    _emit(args, "\n".join(lines))
    return EXIT_OK if check.ok else EXIT_VALIDATION


def cmd_density(args) -> int:
    problem, rs, P = _load(args)
    Pplus = chamber_intersect(rs, P)
    step = parse_rat(args.grid) if args.grid else Fraction(1, 8)
    scan = density_sign_scan(rs, Pplus, step, budget=args.budget)
    lines = ["point,sign"]
    for pt, sign in scan.rows:
        lines.append(" ".join(rat_str(x) for x in pt) + f",{sign}")
    lines.append(f"# negative_fraction: {rat_str(scan.negative_fraction)}")
    for v, sign in scan.vertex_signs:
        lines.append(f"# outer_vertex {' '.join(rat_str(x) for x in v)}: sign {sign}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_lift(args) -> int:
    problem, rs, P = _load(args)
    f = _test_function(problem, rs, P)
    if f is None:
        raise ValidationError("problem file carries no test function")
    roof = problem.option("roof")
    R = parse_rat(roof) if roof else max(max_on_polytope(f, P), Fraction(1))
    lift = build_test_polytope(P, f, R)
    lines = [f"roof_R: {rat_str(lift.roof)}",
             f"lattice_scale: {lift.scale}",
             f"vertices: {len(lift.polytope.vertices)}"]
    for v in lift.polytope.vertices:
        lines.append("  " + " ".join(rat_str(x) for x in v))
    lines.append(f"facets: {len(lift.polytope.facets)}")
    for ft in lift.polytope.facets:
        lines.append(f"  normal ({', '.join(str(x) for x in ft.normal)}) "
                     f"offset {rat_str(ft.offset)} tag {ft.tag}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_gen_example(args) -> int:
    fam = args.family
    if fam == "wonderful":
        point = tuple(parse_rat(x) for x in args.point.split(","))
        problem = gen_wonderful(args.root_system or "A2", point)
    elif fam == "pgln-simplex":
        problem = gen_pgln_simplex(args.n or 2, scale=parse_rat(args.scale or "1"))
    elif fam == "donaldson72":
        problem = gen_donaldson72(args.n or 10, smooth=args.smooth,
                                  delta=parse_rat(args.delta) if args.delta else None)
    elif fam == "pgl3":
        problem = gen_pgl3_family(parse_rat(args.s or "5"), args.n or 10,
                                  smooth=args.smooth,
                                  delta=parse_rat(args.delta) if args.delta else None)
    else:
        raise KstabError(f"unknown family {fam!r}")
    if args.epsilon and problem.crease is not None:
        crease = problem.crease
        problem = Problem(problem.root_system, problem.vertices, problem.pl_pieces,
                          type(crease)(crease.corner, parse_rat(args.epsilon),
                                       parse_rat(args.slope or "1"), crease.symmetrize),
                          problem.options)
    text = serialize_problem(problem)
    if args.outfile:
        save_problem(problem, args.outfile)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_scan(args) -> int:
    grid = parse_grid(args.grid) if args.grid else None
    result = scan_destabilizer(args.family, grid)
    csv_text = result.to_csv()
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    if result.found_certificate:
        print("# certificate found: most negative bracket "
              f"{rat_str(result.best.bracket)} at {dict(result.best.params)}")
        print(result.best_report.to_text())
    else:
        print("# no certificate found on this grid")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parse errors: one stderr
    line and exit 4, not argparse's exit 2, which here means a validation
    failure.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"parse error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="kstab",
        description="Exact K-stability certificates from polytope data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True,
                           help="problem file path")
        p.add_argument("--out", dest="outfile", help="write the report here")
        p.add_argument("--root-system", dest="root_system",
                       help="override the problem file label")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="lattice enumeration refusal threshold")
        p.add_argument("--progression", help="k0:step:count for series fits")
        p.add_argument("--selector", choices=["outer", "wall", "all"],
                       default="outer")
        p.add_argument("--grid", help="grid spec (scan) or grid step (density)")

    for name, fn in [("validate", cmd_validate), ("hilbert", cmd_hilbert),
                     ("futaki", cmd_futaki), ("mabuchi", cmd_mabuchi),
                     ("oracle-futaki", cmd_oracle_futaki),
                     ("density", cmd_density), ("lift", cmd_lift)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("lemma-check")
    common(p)
    p.add_argument("--weight", choices=["H_top", "H_sub", "one"], default="H_top")
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("gen-example")
    common(p, needs_in=False)
    p.add_argument("--family", required=True,
                   choices=["wonderful", "pgln-simplex", "donaldson72", "pgl3"])
    p.add_argument("--point", default="1,1", help="interior point (wonderful)")
    p.add_argument("--n", type=int, help="corner-family parameter n")
    p.add_argument("--s", help="hexagon size parameter")
    p.add_argument("--smooth", action="store_true",
                   help="resolve non-smooth corners (reports the rescale)")
    p.add_argument("--delta", help="corner smoothing depth")
    p.add_argument("--epsilon", help="crease distance for the emitted problem")
    p.add_argument("--slope", help="crease slope for the emitted problem")
    p.add_argument("--scale", help="dilation for pgln-simplex")
    p.set_defaults(func=cmd_gen_example)

    p = sub.add_parser("scan")
    common(p, needs_in=False)
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
