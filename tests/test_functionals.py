import random
from fractions import Fraction as F

import pytest

import kstab.functionals
from kstab.exact import MPoly
from kstab.functionals import (VERDICT_NONNEGATIVE, VERDICT_ZERO,
                               abcd_coefficients, average_a, bracket_terms,
                               csc_verdict, density_sign_scan, futaki_minus_F1,
                               plus_masses, stability_bracket)
from kstab.generators import random_w_invariant_polytope
from kstab.integrate import boundary_integral, integrate_poly
from kstab.polytope import chamber_intersect, dilate, hull_and_facets
from kstab.plfunc import (corner_crease, pl_constant, pl_from_pieces,
                          symmetrize)
from kstab.rootsys import build_root_system, weyl_orbit
from kstab.scan import DEFAULT_GRIDS, scan_destabilizer


def interval(a, b):
    return hull_and_facets([(a,), (b,)])


def a1_setup(m=1):
    rs = build_root_system("A1")
    P = interval(-m, m)
    return rs, P, chamber_intersect(rs, P)


def a1_crease():
    rs = build_root_system("A1")
    return symmetrize(rs, pl_from_pieces(1, [(0, (0,)), (F(-1, 2), (1,))]))


class TestAverageA:
    def test_a1_unit(self):
        rs, _, Pp = a1_setup()
        assert average_a(rs, Pp) == 9

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_a1_scaling(self, m):
        rs, _, Pp = a1_setup(m)
        assert average_a(rs, Pp) == F(9, m)

    def test_unit_square_perimeter_over_area(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert average_a(rs, P) == 4

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_inverse_dilation_covariance(self, N):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        assert average_a(rs, dilate(Pp, N)) == average_a(rs, Pp) / N


class TestBracket:
    def test_a1_crease_value(self):
        rs, _, Pp = a1_setup()
        assert stability_bracket(rs, Pp, a1_crease()) == F(23, 192)

    def test_constant_kernel(self):
        rs, _, Pp = a1_setup()
        for c in [F(0), F(1), F(-3, 7), F(22, 5)]:
            assert stability_bracket(rs, Pp, pl_constant(1, c)) == 0

    def test_toric_square_crease(self):
        # hand computation: boundary 2*(1/8), cap integral 1/48, a = 4
        rs = build_root_system("toric:2")
        P = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        f = pl_from_pieces(2, [(0, (0, 0)), (F(-3, 2), (1, 1))])
        assert stability_bracket(rs, P, f) == F(1, 4) - 4 * F(1, 48)  # = 1/6

    def test_linearity(self):
        rs, _, Pp = a1_setup()
        f = a1_crease()
        g = symmetrize(rs, pl_from_pieces(1, [(0, (0,)), (F(-3, 4), (2,))]))
        bf = stability_bracket(rs, Pp, f)
        bg = stability_bracket(rs, Pp, g)
        assert stability_bracket(rs, Pp, f + g) == bf + bg
        assert stability_bracket(rs, Pp, f.scale(7)) == 7 * bf

    @pytest.mark.parametrize("N", [2, 3])
    def test_dilation_covariance(self, N):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        Pp = chamber_intersect(rs, P)
        f = symmetrize(rs, corner_crease(Pp, (1, 1), F(1, 4), 1, rs=rs))
        base = stability_bracket(rs, Pp, f)
        scaled = stability_bracket(rs, dilate(Pp, N), f.rescale_domain(N))
        assert scaled == F(N) ** (rs.rank + rs.d) * base


class TestFutaki:
    def test_constant_zero(self):
        rs, _, Pp = a1_setup()
        assert futaki_minus_F1(rs, Pp, pl_constant(1, 3)) == 0

    def test_a1_crease(self):
        rs, _, Pp = a1_setup()
        assert futaki_minus_F1(rs, Pp, a1_crease()) == F(23, 128)

    def test_toric_reduction_donaldson_formula(self):
        # independent implementation of the toric formula on random polygons
        rng = random.Random(11)
        rs = build_root_system("toric:2")
        one = MPoly.const(2, 1)
        count = 0
        while count < 5:
            P = random_w_invariant_polytope(rs, rng)
            f = pl_from_pieces(2, [(0, (0, 0)),
                                   (F(rng.randint(-4, 0)),
                                    (rng.randint(0, 2), rng.randint(0, 2)))])
            area = integrate_poly(P, one)
            per = boundary_integral(P, one, "all")
            a = per / area
            donaldson = _toric_bracket(P, f, a)
            assert stability_bracket(rs, P, f) == donaldson
            assert futaki_minus_F1(rs, P, f) == donaldson / (2 * area)
            count += 1


def _toric_bracket(P, f, a):
    """Donaldson's toric expression, computed without the graded machinery."""
    from kstab.integrate import face_integral
    from kstab.polytope import facet_polytope
    from kstab.plfunc import piece_poly, subdivision_from_pl
    one = MPoly.const(2, 1)
    total_b = F(0)
    total_i = F(0)
    sub = subdivision_from_pl(P, f)
    for cell, idx in sub.cells:
        ell = piece_poly(f.pieces[idx])
        total_i += integrate_poly(cell, ell)
        for ft in cell.facets:
            if ft.tag == "outer":
                total_b += face_integral(facet_polytope(cell, ft), ell)
    return total_b - a * total_i


class TestABCD:
    def test_zero_function_product_configuration(self):
        rs, _, Pp = a1_setup()
        A, B, C, D, ratio = abcd_coefficients(rs, Pp, pl_constant(1, 0), 5)
        assert A == 5 * C and B == 5 * D and ratio == 0

    def test_a1_crease_values(self):
        rs, _, Pp = a1_setup()
        A, B, C, D, ratio = abcd_coefficients(rs, Pp, a1_crease(), 1)
        assert C == F(1, 3)
        assert D == F(3, 2)
        assert A == F(1, 3) - F(17, 192)
        assert B == F(3, 2) - (F(1, 2) * F(1, 2) + F(5, 24))
        # exact identity: (AD - BC)/C^2 equals the Futaki quantity
        assert ratio == futaki_minus_F1(rs, Pp, a1_crease())

    def test_toric_square_zero_function(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        for R in [F(1), F(3), F(7, 2)]:
            A, B, C, D, ratio = abcd_coefficients(rs, P, pl_constant(2, 0), R)
            assert (A, B, C, D) == (R, 2 * R, F(1), F(2))
            assert ratio == 0

    def test_ratio_is_roof_independent(self):
        rs, _, Pp = a1_setup()
        ratios = {abcd_coefficients(rs, Pp, a1_crease(), R)[4] for R in (1, 2, 7)}
        assert len(ratios) == 1


class TestA3Brackets:
    # -F1 of the 13-piece symmetrized crease max(0, -1/2 + x_0), frozen from
    # the substitution integrator that exact cubature replaced
    @pytest.mark.parametrize("seed,minus_F1", [
        ((1, 0, 0), F(1818879, 2097152)),
        ((1, 1, 1), F(-597567318600448506557073, 4314790285698406446792704)),
    ], ids=["tetrahedron", "permutohedron"])
    def test_symmetrized_crease(self, seed, minus_F1):
        rs = build_root_system("A3")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, seed)))
        f = symmetrize(rs, pl_from_pieces(3, [(0, (0, 0, 0)), (F(-1, 2), (1, 0, 0))]))
        assert len(f.pieces) == 13
        terms = bracket_terms(rs, Pp, f, plus_masses(rs, Pp))
        assert terms.minus_F1 == minus_F1
        for R in (terms.f_max, terms.f_max + 3):
            assert terms.abcd(R)[4] == minus_F1


class TestDensity:
    def test_a1_signs(self):
        rs, _, Pp = a1_setup()
        scan = density_sign_scan(rs, Pp, F(1, 4))
        table = dict(scan.rows)
        assert table[(F(1),)] == -1       # 4 - 9 < 0
        assert table[(F(1, 4),)] == 1     # 1 - 9/16 > 0
        assert scan.vertex_signs == (((F(1),), -1),)

    def test_toric_everywhere_negative(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        scan = density_sign_scan(rs, P, F(1, 2))
        assert all(s == -1 for _, s in scan.rows)
        assert scan.negative_fraction == 1

    def test_grid_count_step_eighth(self):
        rs, _, Pp = a1_setup()
        scan = density_sign_scan(rs, Pp, F(1, 8))
        assert len(scan.rows) == 9


class TestVerdict:
    def test_constant_zero_verdict(self):
        rs, P, _ = a1_setup()
        report = csc_verdict(rs, P, pl_constant(1, 2))
        assert report.verdict == VERDICT_ZERO
        assert report.bracket == 0

    def test_a1_crease_nonnegative(self):
        rs, P, _ = a1_setup()
        report = csc_verdict(rs, P, a1_crease())
        assert report.verdict == VERDICT_NONNEGATIVE
        assert report.bracket == F(23, 192)
        assert report.minus_F1 == F(23, 128)
        assert report.mabuchi_coeff == report.bracket
        assert report.abcd_ratio == report.minus_F1
        assert "VERDICT: non-negative" in report.to_text()

    def test_report_documents_pl_approximation(self):
        rs, P, _ = a1_setup()
        assert "piecewise linear" in csc_verdict(rs, P, a1_crease()).note


def count_calls(monkeypatch, name):
    """Count the calls kstab.functionals makes to one of its imports."""
    calls = []
    original = getattr(kstab.functionals, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kstab.functionals, name, counted)
    return calls


class TestSinglePass:
    """Each integral over P+ is computed once per (P+, f), and the masses
    of P+ once per P+."""

    def test_verdict_integrates_once(self, monkeypatch):
        boundary = count_calls(monkeypatch, "boundary_integral")
        cells = count_calls(monkeypatch, "subdivision_from_pl")
        rs, P, _ = a1_setup()
        report = csc_verdict(rs, P, a1_crease())
        assert report.minus_F1 == F(23, 128)
        assert len(boundary) == 1
        assert len(cells) == 1

    def test_scan_integrates_masses_once_per_slice(self, monkeypatch):
        boundary = count_calls(monkeypatch, "boundary_integral")
        grid = dict(DEFAULT_GRIDS["pgl3"], s=[5, 20], n=[50])
        result = scan_destabilizer("pgl3", grid)
        assert len(result.rows) == 30
        assert result.found_certificate
        # one per (s, n) slice, plus one for the best row's report
        assert len(boundary) == 3


class TestConstantKernelCorpus:
    def test_twenty_instances(self):
        rng = random.Random(2024)
        labels = ["toric:1", "toric:2", "toric:3", "A1", "A2"]
        instances = 0
        while instances < 20:
            label = labels[instances % len(labels)]
            rs = build_root_system(label)
            P = random_w_invariant_polytope(rs, rng)
            Pp = chamber_intersect(rs, P)
            c = F(rng.randint(-20, 20), rng.randint(1, 9))
            assert stability_bracket(rs, Pp, pl_constant(rs.rank, c)) == 0
            instances += 1
