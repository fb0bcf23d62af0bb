"""Acceptance suite: one test per criterion, every tolerance exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; a failing assertion is the FAIL line.  Expected values
marked as derived were reproduced through the independent lattice-point
oracle before being frozen here.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from kstab.exact import MPoly
from kstab.functionals import (average_a, futaki_minus_F1, stability_bracket)
from kstab.generators import random_w_invariant_polytope
from kstab.integrate import boundary_integral, integrate_poly
from kstab.oracle import fit_series, lemma_check, oracle_futaki
from kstab.polytope import (chamber_intersect, dilate, hull_and_facets,
                            is_delzant, is_w_invariant, lattice_scale,
                            make_delzant_2d, validate_complex,
                            wall_vertex_check)
from kstab.plfunc import (corner_crease, pl_constant, pl_from_pieces,
                          symmetrize)
from kstab.rootsys import build_root_system, weyl_orbit
from kstab.scan import scan_destabilizer

EPS_GRID = [F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(1, 4)]
SLOPE_GRID = [F(1), F(4), F(16)]

# sha256 of the default-grid scan CSVs; any change to a bracket, a status
# or the row order shows here
DONALDSON72_CSV_SHA256 = "11b2437bdaff88c8eafb412d4ae9732144f3d00324716255d4dae26b905f0136"
PGL3_CSV_SHA256 = "1e5999ae248c377bec7e27e239d3992c076c471bcea73d70197aa8005640ef03"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_constant_function_kernel():
    rng = random.Random(20240)
    labels = ["toric:1", "toric:2", "toric:3", "A1", "A2"]
    checked = 0
    while checked < 20:
        rs = build_root_system(labels[checked % len(labels)])
        P = random_w_invariant_polytope(rs, rng)
        assert len(P.vertices) <= 12
        Pp = chamber_intersect(rs, P)
        c = F(rng.randint(-30, 30), rng.randint(1, 11))
        assert stability_bracket(rs, Pp, pl_constant(rs.rank, c)) == 0
        checked += 1
    _ok(1, f"bracket(constant) == 0 exactly on {checked} instances "
           "across toric:1..3, A1, A2")


def test_criterion_2_closed_form_vs_oracle_futaki():
    # (i) A1, P = [-1, 1], symmetrized crease at 1/2
    rs = build_root_system("A1")
    Pp = chamber_intersect(rs, hull_and_facets([(-1,), (1,)]))
    f = symmetrize(rs, pl_from_pieces(1, [(0, (0,)), (F(-1, 2), (1,))]))
    closed = futaki_minus_F1(rs, Pp, f)
    oracle = -oracle_futaki(rs, Pp, f, R=1)
    assert closed == oracle == F(23, 128)
    # (ii) toric interval [0, 2], crease at 1
    rst = build_root_system("toric:1")
    P2 = hull_and_facets([(0,), (2,)])
    g = pl_from_pieces(1, [(0, (0,)), (-1, (1,))])
    closed2 = futaki_minus_F1(rst, P2, g)
    oracle2 = -oracle_futaki(rst, P2, g, R=1)
    assert closed2 == oracle2 == F(1, 8)
    _ok(2, "closed form equals lattice oracle exactly: 23/128 (A1 crease) "
           "and 1/8 (toric interval)")


def test_criterion_3_a2_oracle_agreement():
    rs = build_root_system("A2")
    Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
    f = symmetrize(rs, corner_crease(Pp, (1, 1), F(1, 4), 1, rs=rs))
    bracket = stability_bracket(rs, Pp, f)
    closed = futaki_minus_F1(rs, Pp, f)
    F1 = oracle_futaki(rs, Pp, f, R=F(1, 4))
    assert ((-F1) > 0) == (bracket > 0)
    assert -F1 == closed
    _ok(3, f"A2 hexagon crease: oracle -F1 == bracket/(2 H_top mass) == {closed}")


def test_criterion_4_lattice_sum_lemma():
    P1 = hull_and_facets([(0,), (1,)])
    c1 = lemma_check(P1, MPoly.var(1, 0) ** 2)
    assert c1.ok and c1.top_coefficient == F(1, 3) and c1.second_coefficient == F(1, 2)
    P2 = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
    c2 = lemma_check(P2, MPoly.const(2, 1))
    assert c2.ok and c2.top_coefficient == 1 and c2.second_coefficient == 2
    rs = build_root_system("A2")
    hexagon = hull_and_facets(weyl_orbit(rs, (1, 1)))
    c3 = lemma_check(hexagon, rs.H_top)
    assert c3.ok
    _ok(4, "weighted lattice sums match (integral, half boundary) exactly on "
           "[0,1]/x^2, unit square/1, hexagon/H_top")


def test_criterion_5_hilbert_cross_check():
    for label, seed in [("A1", (1,)), ("A2", (1, 1))]:
        rs = build_root_system(label)
        P = hull_and_facets(weyl_orbit(rs, seed)) if rs.rank > 1 \
            else hull_and_facets([(-1,), (1,)])
        Pp = chamber_intersect(rs, P)
        series = fit_series(rs, Pp)
        lead = series.fitted_d[rs.n]
        second = series.fitted_d[rs.n - 1]
        assert lead == integrate_poly(Pp, rs.H_top)
        assert second == boundary_integral(Pp, rs.H_top, "outer") / 2 \
            + integrate_poly(Pp, rs.H_sub)
    _ok(5, "fitted dimension series has leading = H_top mass and second = "
           "half boundary + H_sub mass, exactly, on A1 and A2")


def test_criterion_6_toric_reduction():
    from kstab.integrate import face_integral
    from kstab.polytope import facet_polytope
    from kstab.plfunc import piece_poly, subdivision_from_pl
    rs = build_root_system("toric:2")
    square = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert average_a(rs, square) == 4
    rng = random.Random(77)
    one = MPoly.const(2, 1)
    for _ in range(5):
        P = random_w_invariant_polytope(rs, rng)
        f = pl_from_pieces(2, [(0, (0, 0)),
                               (F(rng.randint(-5, -1)),
                                (rng.randint(0, 2), rng.randint(0, 2)))])
        area = integrate_poly(P, one)
        per = boundary_integral(P, one, "all")
        # Donaldson's toric quantities, computed without the graded machinery
        a_toric = per / area
        b_toric = F(0)
        i_toric = F(0)
        for cell, idx in subdivision_from_pl(P, f).cells:
            ell = piece_poly(f.pieces[idx])
            i_toric += integrate_poly(cell, ell)
            for ft in cell.facets:
                if ft.tag == "outer":
                    b_toric += face_integral(facet_polytope(cell, ft), ell)
        assert average_a(rs, P) == a_toric
        assert stability_bracket(rs, P, f) == b_toric - a_toric * i_toric
        assert futaki_minus_F1(rs, P, f) == (b_toric - a_toric * i_toric) / (2 * area)
    _ok(6, "toric a, bracket and -F1 coincide exactly with the perimeter/area "
           "formulas on 5 random polygons; unit square a = 4")


def test_criterion_7_donaldson_certificate():
    grid = {"n": [10, 20, 50, 100], "epsilon": EPS_GRID, "slope": SLOPE_GRID}
    result = scan_destabilizer("donaldson72", grid)
    assert _sha256(result.to_csv()) == DONALDSON72_CSV_SHA256
    negatives = [r for r in result.rows if r.bracket is not None and r.bracket < 0]
    if not negatives:
        pytest.fail("no destabilizer found; full scan:\n" + result.to_csv())
    assert result.found_certificate
    assert result.best_report.verdict == "destabilizing"
    _ok(7, f"corner-cut triangle family: {len(negatives)} grid points with "
           f"bracket < 0; most negative {result.best.bracket} at "
           f"{dict(result.best.params)}")


def test_criterion_8_pgl3_certificate():
    grid = {"s": [F(5), F(10), F(20)], "n": [10, 20, 50, 100],
            "epsilon": EPS_GRID, "slope": SLOPE_GRID}
    result = scan_destabilizer("pgl3", grid)
    assert _sha256(result.to_csv()) == PGL3_CSV_SHA256
    negatives = [r for r in result.rows if r.bracket is not None and r.bracket < 0]
    if not negatives:
        pytest.fail("no destabilizer found; full scan:\n" + result.to_csv())
    assert result.found_certificate
    rs = build_root_system("A2")
    P = hull_and_facets(result.best_problem.vertices)
    assert is_w_invariant(rs, P)[0]
    assert wall_vertex_check(rs, P)[0]
    smoothed = make_delzant_2d(dilate(P, lattice_scale(P)))
    assert is_delzant(smoothed.polytope).ok
    assert is_w_invariant(rs, smoothed.polytope)[0]
    _ok(8, f"reductive family: {len(negatives)} grid points with bracket < 0; "
           f"best instance invariant, off-wall, and smooth after corner "
           f"resolution (rescale {smoothed.scale})")


def test_criterion_9_structural_suites():
    # Delzant verdicts
    assert is_delzant(hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])).ok
    rep = is_delzant(hull_and_facets([(0, 0), (1, 0), (0, 2)]))
    assert not rep.ok and [v for v, _ in rep.failures] == [(F(1), F(0))]
    assert is_delzant(hull_and_facets([(0, 0), (1, 0), (0, 1)])).ok
    # wall vanishing of the H_top boundary weight
    for label, seed in [("A1", None), ("A2", (1, 1))]:
        rs = build_root_system(label)
        P = hull_and_facets([(-1,), (1,)]) if seed is None \
            else hull_and_facets(weyl_orbit(rs, seed))
        Pp = chamber_intersect(rs, P)
        assert boundary_integral(Pp, rs.H_top, "wall") == 0
    # complex validation of the three-cell interval subdivision
    cells = [hull_and_facets([(-1,), (F(-1, 2),)]),
             hull_and_facets([(F(-1, 2),), (F(1, 2),)]),
             hull_and_facets([(F(1, 2),), (1,)])]
    repc = validate_complex(cells)
    assert repc.valid and not repc.unique_maximal
    # dilation covariance of the average
    for label, seed in [("A1", None), ("A2", (1, 1)), ("toric:2", None)]:
        rs = build_root_system(label)
        if label == "toric:2":
            Pp = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        elif seed is None:
            Pp = chamber_intersect(rs, hull_and_facets([(-1,), (1,)]))
        else:
            Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, seed)))
        a = average_a(rs, Pp)
        for N in (2, 3, 5):
            assert average_a(rs, dilate(Pp, N)) == a / N
    _ok(9, "Delzant verdicts, wall vanishing, interval complex, and "
           "a(N*P) = a(P)/N all exact")
