import itertools
import math
import random
from fractions import Fraction as F

import pytest

from kstab.errors import BudgetError, KstabError
from kstab.exact import MPoly, dot, upoly_eval
from kstab.functionals import futaki_minus_F1, stability_bracket
from kstab.integrate import boundary_integral, integrate_poly
from kstab.oracle import (fit_series, lattice_points, lemma_check,
                          oracle_futaki, required_step, weighted_lattice_sum)
from kstab.polytope import chamber_intersect, contains, hull_and_facets
from kstab.plfunc import PLFunction, pl_constant, pl_from_pieces, symmetrize
from kstab.rootsys import build_root_system, weyl_orbit

UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def a1_instance():
    rs = build_root_system("A1")
    P = hull_and_facets([(-1,), (1,)])
    Pp = chamber_intersect(rs, P)
    f = symmetrize(rs, pl_from_pieces(1, [(0, (0,)), (F(-1, 2), (1,))]))
    return rs, Pp, f


class TestWeightedSums:
    def test_square_unweighted(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        assert weighted_lattice_sum(rs, P, 3, "one") == 16

    def test_a1_multiplicity_weight(self):
        rs, Pp, _ = a1_instance()
        assert weighted_lattice_sum(rs, Pp, 4, "H") == 55

    def test_a1_top_part_only(self):
        rs, Pp, _ = a1_instance()
        assert weighted_lattice_sum(rs, Pp, 3, rs.H_top) == 14

    def test_lifted_weight_closed_form(self):
        # toric square with crease max(0, x+y-3k/2): hand-derived total
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        f = pl_from_pieces(2, [(0, (0, 0)), (F(-3, 2), (1, 1))])
        for k in (2, 4, 6):
            got = weighted_lattice_sum(rs, P, k, "lifted", f=f, R=1)
            T = k // 2
            assert got == k * (k + 1) ** 2 - F(T * (T + 1) * (T + 2), 6)

    def test_budget_refusal(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        with pytest.raises(BudgetError):
            weighted_lattice_sum(rs, P, 10, "one", budget=50)

    def test_cube_counts(self):
        rs = build_root_system("toric:3")
        cube = hull_and_facets([(a, b, c) for a in (0, 1) for b in (0, 1)
                                for c in (0, 1)])
        for k in (1, 2, 5):
            assert weighted_lattice_sum(rs, cube, k, "one") == (k + 1) ** 3


def brute_force_points(P, k):
    """Reference: the bounding box of k*P filtered by membership, in
    lexicographic order."""
    box = [range(math.ceil(min(v[i] for v in P.vertices) * k),
                 math.floor(max(v[i] for v in P.vertices) * k) + 1)
           for i in range(P.ambient)]
    return [m for m in itertools.product(*box)
            if contains(P, tuple(F(x) / k for x in m))]


class TestLatticeWalker:
    def test_matches_brute_force_random(self):
        rng = random.Random(5)
        cases = 0
        while cases < 60:
            d = 1 + cases % 3
            pts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
                   for _ in range(rng.randint(d + 1, d + 4))]
            P = hull_and_facets(pts)
            if not P.is_full_dim:
                continue
            for k in (1, 2, F(1, 2), F(5, 3)):
                assert list(lattice_points(P, k)) == brute_force_points(P, k), \
                    (P.vertices, k)
            cases += 1

    def test_budget_counts_points(self):
        P = hull_and_facets([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, F(5, 2))])
        want = brute_force_points(P, F(3, 2))
        assert list(lattice_points(P, F(3, 2), budget=len(want))) == want
        walker = lattice_points(P, F(3, 2), budget=len(want) - 1)
        got = [next(walker) for _ in range(len(want) - 1)]
        assert got == want[:-1]
        with pytest.raises(BudgetError, match=f"budget of {len(want) - 1} points"):
            next(walker)

    def test_lower_dimensional_rejected(self):
        with pytest.raises(KstabError):
            list(lattice_points(hull_and_facets([(0, 0), (1, 1)]), 1))


def reference_sums(rs, P, k, poly, f, R):
    """Reference: each weight evaluated point by point over lattice_points."""
    out = {"one": F(0), "H": F(0), "poly": F(0), "lifted": F(0)}
    for lam in lattice_points(P, k):
        h = rs.H.evaluate(lam)
        out["one"] += 1
        out["H"] += h
        out["poly"] += poly.evaluate(lam)
        out["lifted"] += h * (k * R - max(k * c + dot(g, lam) for c, g in f.pieces))
    return out


def random_polytope(rng, d, span=3):
    while True:
        pts = [tuple(F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(d))
               for _ in range(rng.randint(d + 1, d + 4))]
        P = hull_and_facets(pts)
        if P.is_full_dim:
            return P


def random_poly(rng, d):
    """A random polynomial of degree <= 3 with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [0] * d
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(d)] += 1
        terms[tuple(e)] = F(rng.randint(-9, 9), rng.randint(1, 6))
    return MPoly(d, terms)


def random_convex_pl(rng, d):
    """Max of random affine pieces, plus a piece with the first one's slope
    along the last coordinate, a piece tied with it on the lattice
    hyperplane x_d = t, and an exact duplicate of it."""
    def rnd(lo, hi, den):
        return F(rng.randint(lo, hi), rng.randint(1, den))
    pieces = [(rnd(-4, 4, 4), tuple(rnd(-3, 3, 2) for _ in range(d)))
              for _ in range(rng.randint(1, 3))]
    c, g = pieces[0]
    s, t = rnd(-2, 2, 2) or F(1), rng.randint(-2, 2)
    pieces.append((c + rnd(-1, 1, 2), tuple(rnd(-3, 3, 2) for _ in g[:-1]) + (g[-1],)))
    pieces.append((c - s * t, g[:-1] + (g[-1] + s,)))
    pieces.append(pieces[0])
    return PLFunction(d, tuple(pieces))


ROOT_SYSTEMS = {1: ("A1", "toric:1"), 2: ("A2", "toric:2"), 3: ("A3", "toric:3")}


class TestFiberSums:
    """weighted_lattice_sum sums whole fibers in closed form; pinned here to
    the point-by-point sum over lattice_points."""

    def test_matches_point_by_point_random(self):
        rng = random.Random(11)
        for case in range(24):
            d = 1 + case % 3
            rs = build_root_system(ROOT_SYSTEMS[d][case // 3 % 2])
            P = random_polytope(rng, d, span=5 - d)
            poly, f = random_poly(rng, d), random_convex_pl(rng, d)
            R = F(rng.randint(-5, 5), rng.randint(1, 3))
            for k in (1, 2, 3, 5):
                want = reference_sums(rs, P, k, poly, f, R)
                got = {"one": weighted_lattice_sum(rs, P, k, "one"),
                       "H": weighted_lattice_sum(rs, P, k, "H"),
                       "poly": weighted_lattice_sum(rs, P, k, poly),
                       "lifted": weighted_lattice_sum(rs, P, k, "lifted", f=f, R=R)}
                assert got == want, (P.vertices, k, poly, f, R)

    def test_symmetrized_crease_a2_hexagon(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        f = symmetrize(rs, pl_from_pieces(2, [(0, (0, 0)), (F(-5, 4), (1, 1))]))
        for k in (1, 2, 3, 5):
            for R in (1, 3, F(7, 3)):
                assert weighted_lattice_sum(rs, Pp, k, "lifted", f=f, R=R) \
                    == reference_sums(rs, Pp, k, rs.H, f, R)["lifted"]

    def test_budget_counts_points(self):
        rng = random.Random(3)
        for d in (1, 2, 3):
            rs = build_root_system(ROOT_SYSTEMS[d][0])
            P = random_polytope(rng, d, span=5 - d)
            f = random_convex_pl(rng, d)
            want = reference_sums(rs, P, 3, rs.H, f, 2)
            count = want["one"]
            for weight in ("one", "H", "lifted"):
                got = weighted_lattice_sum(rs, P, 3, weight, f=f, R=2, budget=count)
                assert got == want[weight]
                with pytest.raises(BudgetError) as exc:
                    weighted_lattice_sum(rs, P, 3, weight, f=f, R=2, budget=count - 1)
                assert str(exc.value) == \
                    f"lattice enumeration exceeds the budget of {count - 1} points at k=3"

    def test_never_evaluates_pointwise(self, monkeypatch):
        def refuse(self, point):
            raise AssertionError("MPoly.evaluate called")

        rs, Pp, _ = a1_instance()
        toric = build_root_system("toric:2")
        square = hull_and_facets(UNIT_SQUARE)
        crease = pl_from_pieces(2, [(0, (0, 0)), (F(-3, 2), (1, 1))])
        monkeypatch.setattr(MPoly, "evaluate", refuse)
        assert weighted_lattice_sum(rs, Pp, 4, "H") == 55
        assert weighted_lattice_sum(rs, Pp, 3, rs.H_top) == 14
        assert weighted_lattice_sum(rs, Pp, 4, "one") == 5
        assert weighted_lattice_sum(toric, square, 4, "lifted", f=crease, R=1) == 4 * 25 - 4


class TestFitSeries:
    def test_a1_sum_of_squares(self):
        rs, Pp, _ = a1_instance()
        series = fit_series(rs, Pp)
        for k in range(1, 10):
            assert upoly_eval(series.fitted_d, k) == F((k + 1) * (k + 2) * (2 * k + 3), 6)
        assert series.fitted_d[-1] == F(1, 3)

    def test_square_ehrhart(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        series = fit_series(rs, P)
        assert list(series.fitted_d) == [F(1), F(2), F(1)]  # (k+1)^2

    def test_a2_leading_coefficient_is_volume_mass(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        series = fit_series(rs, Pp)
        assert len(series.fitted_d) == rs.n + 1
        assert series.fitted_d[rs.n] == integrate_poly(Pp, rs.H_top)

    def test_a2_second_coefficient(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        series = fit_series(rs, Pp)
        expected = boundary_integral(Pp, rs.H_top, "outer") / 2 \
            + integrate_poly(Pp, rs.H_sub)
        assert series.fitted_d[rs.n - 1] == expected

    def test_a1_second_coefficient(self):
        rs, Pp, _ = a1_instance()
        series = fit_series(rs, Pp)
        expected = boundary_integral(Pp, rs.H_top, "outer") / 2 \
            + integrate_poly(Pp, rs.H_sub)
        assert series.fitted_d[rs.n - 1] == expected

    def test_progression_respects_required_step(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        assert required_step(rs, Pp) == 2
        with pytest.raises(KstabError):
            fit_series(rs, Pp, progression=(3, 3, 14))

    @pytest.mark.parametrize("progression", [(-8, 2, 8), (8, -2, 8), (4, 0, 12), (0, 2, 0)])
    def test_malformed_progression_rejected(self, progression):
        rs, Pp, f = a1_instance()
        with pytest.raises(KstabError, match="bad progression"):
            fit_series(rs, Pp, f, progression=progression)

    def test_progression_from_zero(self):
        rs, Pp, _ = a1_instance()
        series = fit_series(rs, Pp, progression=(0, 2, 8))
        assert series.ks == (0, 2, 4, 6, 8, 10, 12, 14)
        assert series.d_values[0] == 1


class TestOracleFutaki:
    def test_constant_is_product_configuration(self):
        rs, Pp, _ = a1_instance()
        assert oracle_futaki(rs, Pp, pl_constant(1, F(2, 3)), R=1) == 0

    def test_a1_crease_matches_closed_form(self):
        rs, Pp, f = a1_instance()
        F1 = oracle_futaki(rs, Pp, f, R=1)
        assert -F1 == F(23, 128)
        assert -F1 == futaki_minus_F1(rs, Pp, f)

    def test_toric_interval_donaldson_value(self):
        rs = build_root_system("toric:1")
        P = hull_and_facets([(0,), (2,)])
        f = pl_from_pieces(1, [(0, (0,)), (-1, (1,))])
        assert -oracle_futaki(rs, P, f, R=1) == F(1, 8)

    def test_toric_square_crease(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        f = pl_from_pieces(2, [(0, (0, 0)), (F(-3, 2), (1, 1))])
        F1 = oracle_futaki(rs, P, f, R=1)
        assert -F1 == futaki_minus_F1(rs, P, f) == F(1, 12)

    def test_roof_independence(self):
        rs, Pp, f = a1_instance()
        assert oracle_futaki(rs, Pp, f, R=1) == oracle_futaki(rs, Pp, f, R=3)

    def test_sign_agreement(self):
        rs, Pp, f = a1_instance()
        assert (-oracle_futaki(rs, Pp, f, R=1) > 0) == (stability_bracket(rs, Pp, f) > 0)


class TestLemmaCheck:
    def test_interval_square_weight(self):
        P = hull_and_facets([(0,), (1,)])
        check = lemma_check(P, MPoly.var(1, 0) ** 2)
        assert check.ok
        assert check.top_coefficient == F(1, 3)
        assert check.second_coefficient == F(1, 2)

    def test_unit_square_count(self):
        P = hull_and_facets(UNIT_SQUARE)
        check = lemma_check(P, MPoly.const(2, 1))
        assert check.ok
        assert check.top_coefficient == 1
        assert check.second_coefficient == 2

    def test_hexagon_top_weight(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        check = lemma_check(P, rs.H_top)
        assert check.ok
        assert check.top_coefficient == integrate_poly(P, rs.H_top)
        assert check.second_coefficient == boundary_integral(P, rs.H_top, "all") / 2

    def test_inhomogeneous_rejected(self):
        P = hull_and_facets([(0,), (1,)])
        with pytest.raises(KstabError):
            lemma_check(P, MPoly.var(1, 0) + 1)

    def test_non_lattice_rejected(self):
        P = hull_and_facets([(0,), (F(1, 2),)])
        with pytest.raises(KstabError):
            lemma_check(P, MPoly.var(1, 0))

    def test_cube_3d(self):
        cube = hull_and_facets([(a, b, c) for a in (0, 1) for b in (0, 1)
                                for c in (0, 1)])
        check = lemma_check(cube, MPoly.const(3, 1))
        assert check.ok
        assert check.top_coefficient == 1      # volume
        assert check.second_coefficient == 3   # half the lattice surface area
