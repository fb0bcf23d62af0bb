import itertools
import math
import random
from fractions import Fraction as F

import pytest

from kstab.exact import MPoly, det, dot, rank, vsub
from kstab.integrate import (_gm_rule, boundary_integral, face_integral,
                             integrate_poly, integrate_simplex, triangulate,
                             volume)
from kstab.polytope import (_hull_ring_2d, affine_coords, chamber_intersect,
                            dilate, facet_polytope, facet_vertices,
                            hull_and_facets)
from kstab.rootsys import build_root_system, weyl_orbit

UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def square():
    return hull_and_facets(UNIT_SQUARE)


class TestTriangulate:
    def test_square_two_triangles(self):
        assert len(triangulate(square()).simplices) == 2

    def test_segment_is_itself(self):
        P = hull_and_facets([(0,), (1,)])
        assert triangulate(P).simplices == ((( F(0),), (F(1),)),)

    def test_chamber_quadrilateral(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        dec = triangulate(Pp)
        assert dec.pulled_from == (F(0), F(0))
        assert len(dec.simplices) == 2

    def test_cube_simplices_cover_volume(self):
        cube = hull_and_facets([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
        assert volume(cube) == 1


def fan_triangulation(P, v0):
    """Reference: the per-dimension fan triangulation pulled from v0.

    A segment is its own simplex; in 2-D each edge missing v0 is coned from
    v0; in 3-D each facet missing v0 is fanned from its smallest vertex
    around its 2-D hull ring (in chart coordinates), then coned from v0.
    Simplices come back as vertex sets.
    """
    if P.dim == 1:
        return {frozenset(P.vertices)}
    out = set()
    for facet in P.facets:
        if dot(facet.normal, v0) == facet.offset:
            continue
        fverts = facet_vertices(P, facet)
        if P.dim == 2:
            out.add(frozenset((v0,) + fverts))
            continue
        Fc = facet_polytope(P, facet)
        lift = {affine_coords(Fc.chart_anchor, Fc.chart_basis, v): v
                for v in Fc.vertices}
        ring = [lift[t] for t in _hull_ring_2d(list(Fc.inner.vertices))]
        i = ring.index(min(ring))
        ring = ring[i:] + ring[:i]
        for a, b in zip(ring[1:], ring[2:]):
            out.add(frozenset((v0, ring[0], a, b)))
    return out


def random_polytopes(seed, dims, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = dims[len(out) % len(dims)]
        den = rng.choice((1, 2, 3))  # small grids make coplanar facets likely
        pts = [tuple(F(rng.randint(-3, 3), den) for _ in range(d))
               for _ in range(rng.randint(d + 1, d + 6))]
        P = hull_and_facets(pts)
        if P.is_full_dim:
            out.append(P)
    return out


CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
# a hexagonal prism capped by a pyramid: rectangle, hexagon and triangle facets
PRISM_PYRAMID = [(x, y, z) for x, y in [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
                 for z in (0, 3)] + [(0, 0, 5)]


class TestTriangulateMatchesFan:
    @pytest.mark.parametrize("pts", [[(F(-1, 2),), (3,)], UNIT_SQUARE, CUBE, PRISM_PYRAMID],
                             ids=["segment", "square", "cube", "prism-pyramid"])
    def test_named(self, pts):
        P = hull_and_facets(pts)
        for pull in P.vertices:
            dec = triangulate(P, pull=pull)
            got = [frozenset(s) for s in dec.simplices]
            assert len(got) == len(set(got))
            assert set(got) == fan_triangulation(P, pull)

    def test_random_2d_and_3d(self):
        cases = random_polytopes(11, (2, 3), 40)
        non_triangular = 0
        for P in cases:
            non_triangular += P.dim == 3 and any(
                len(facet_vertices(P, f)) > 3 for f in P.facets)
            for pull in P.vertices:
                got = [frozenset(s) for s in triangulate(P, pull=pull).simplices]
                assert len(got) == len(set(got))
                assert set(got) == fan_triangulation(P, pull), (P.vertices, pull)
        assert non_triangular >= 3


class TestIntegratePoly:
    def test_unit_square_constant(self):
        assert integrate_poly(square(), MPoly.const(2, 1)) == 1

    def test_standard_simplex_x(self):
        P = hull_and_facets([(0, 0), (1, 0), (0, 1)])
        assert integrate_poly(P, MPoly.var(2, 0)) == F(1, 6)

    def test_interval_square_weight(self):
        P = hull_and_facets([(0,), (1,)])
        assert integrate_poly(P, MPoly.var(1, 0) ** 2) == F(1, 3)

    def test_additivity_over_complex(self):
        cells = [hull_and_facets([(-1,), (F(-1, 2),)]),
                 hull_and_facets([(F(-1, 2),), (F(1, 2),)]),
                 hull_and_facets([(F(1, 2),), (1,)])]
        g = MPoly.var(1, 0) ** 3 + 2 * MPoly.var(1, 0)
        whole = integrate_poly(hull_and_facets([(-1,), (1,)]), g)
        assert whole == sum(integrate_poly(c, g) for c in cells)

    def test_additivity_square_diagonal(self):
        t1 = hull_and_facets([(0, 0), (1, 0), (1, 1)])
        t2 = hull_and_facets([(0, 0), (0, 1), (1, 1)])
        g = (MPoly.var(2, 0) + 1) * (MPoly.var(2, 1) + 2) ** 2
        assert integrate_poly(square(), g) == integrate_poly(t1, g) + integrate_poly(t2, g)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("label,pts", [("A1", [(-1,), (1,)]),
                                           ("A2", "hex")])
    def test_dilation_homogeneity(self, N, label, pts):
        rs = build_root_system(label)
        P = hull_and_facets(weyl_orbit(rs, (1, 1))) if pts == "hex" else hull_and_facets(pts)
        Pp = chamber_intersect(rs, P)
        base = integrate_poly(Pp, rs.H_top)
        scaled = integrate_poly(dilate(Pp, N), rs.H_top)
        assert scaled == F(N) ** (rs.rank + rs.d) * base

    def test_triangulation_independence(self):
        # the A3 integrand l * H_top has degree 13, the highest the package meets
        cases = [("A2", (1, 1), lambda rs: rs.H_top + rs.H_sub),
                 ("A3", (1, 1, 1), lambda rs: MPoly.affine(F(-1, 2), (1, 0, 0)) * rs.H_top)]
        for label, seed, integrand in cases:
            rs = build_root_system(label)
            Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, seed)))
            g = integrand(rs)
            totals = set()
            for pull in Pp.vertices:
                dec = triangulate(Pp, pull=pull)
                totals.add(sum((integrate_simplex(s, g) for s in dec.simplices), F(0)))
            assert len(totals) == 1, label


def reference_simplex_integral(verts, g):
    """The substitution integrator: g composed with the affine map from the
    standard simplex, integrated term by term by the closed form
    a_1! ... a_d! / (d + |a|)!, times the absolute determinant of the map."""
    d = len(verts) - 1
    base = verts[0]
    cols = [vsub(v, base) for v in verts[1:]]
    rows = [[cols[j][i] for j in range(d)] for i in range(len(base))]
    total = sum((c * F(math.prod(map(math.factorial, e)), math.factorial(d + sum(e)))
                 for e, c in g.substitute_affine(rows, base).terms.items()), F(0))
    return abs(det(rows)) * total


def reference_integral(P, g):
    """integrate_poly by substitution: a face pulls g back through its chart."""
    if P.is_full_dim:
        return sum((reference_simplex_integral(s, g) for s in triangulate(P).simplices), F(0))
    rows = [[F(P.chart_basis[j][i]) for j in range(P.dim)] for i in range(P.ambient)]
    return reference_integral(P.inner, g.substitute_affine(rows, P.chart_anchor))


def random_poly(rng, n, degree):
    """A rational polynomial in n variables of exactly this total degree."""
    def exponent(d):
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        return tuple(e)
    terms = {exponent(rng.randint(0, degree)): F(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(rng.randint(0, 4))}
    terms[exponent(degree)] = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return MPoly(n, terms)


def random_simplex(rng, k, ambient):
    """k + 1 affinely independent rational points in the given dimension."""
    while True:
        verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(ambient))
                 for _ in range(k + 1)]
        if rank([vsub(v, verts[0]) for v in verts[1:]]) == k:
            return tuple(verts)


class TestCubature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", range(7))
    def test_rule_weights_and_monomials(self, n, s):
        rule = _gm_rule(n, s)
        assert sum(w * len(nodes) for w, _, nodes in rule) == F(1, math.factorial(n))
        assert all(sum(lam) == m for _, m, nodes in rule for lam in nodes)
        # the standard simplex has vertices 0, e_1, ..., e_n, so t = lambda_1..n
        for a in itertools.product(range(2 * s + 2), repeat=n):
            if sum(a) > 2 * s + 1:
                continue
            got = sum((w * F(sum(math.prod(t ** k for t, k in zip(lam[1:], a)) for lam in nodes),
                             m ** sum(a))
                       for w, m, nodes in rule), F(0))
            assert got == F(math.prod(map(math.factorial, a)), math.factorial(n + sum(a))), a

    @pytest.mark.parametrize("n,s,count", [(2, 3, 20), (3, 6, 210)])
    def test_node_counts(self, n, s, count):
        assert sum(len(nodes) for _, _, nodes in _gm_rule(n, s)) == count

    @pytest.mark.parametrize("k,ambient", [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)])
    def test_matches_substitution(self, k, ambient):
        rng = random.Random(100 * k + ambient)
        for degree in [*range(14), *range(14)]:
            verts = random_simplex(rng, k, ambient)
            g = random_poly(rng, ambient, degree)
            P = hull_and_facets(verts)
            want = reference_integral(P, g)
            if k == ambient:
                assert integrate_simplex(verts, g) == want, (verts, g)
            assert integrate_poly(P, g) == want, (verts, g)

    def test_no_substitution(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("substitute_affine called")

        monkeypatch.setattr(MPoly, "substitute_affine", refuse)
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        g = MPoly.affine(F(-1, 3), (1, 2)) * rs.H_top
        assert integrate_poly(Pp, g) != 0
        assert boundary_integral(Pp, g, "all") != 0
        T = hull_and_facets([(0, 0, 1), (F(1, 2), 1, 0), (2, F(1, 3), 1)])
        assert integrate_poly(T, MPoly.var(3, 0) ** 5) != 0


class TestFaceIntegral:
    def test_antidiagonal_edge_length(self):
        F_ = hull_and_facets([(0, 2), (2, 0)])
        assert face_integral(F_, MPoly.const(2, 1)) == 2

    def test_vertex_evaluation(self):
        pt = hull_and_facets([(1,)])
        assert face_integral(pt, MPoly.var(1, 0) ** 2) == 1

    def test_square_edges(self):
        P = square()
        one = MPoly.const(2, 1)
        for f in P.facets:
            assert face_integral(facet_polytope(P, f), one) == 1
        assert boundary_integral(P, one, "all") == 4

    def test_non_lattice_anchor_edge(self):
        # direction lattice normalization is translation invariant: the
        # edge from (1/4, 0) to (1/4, 1) still has length 1
        E = hull_and_facets([(F(1, 4), 0), (F(1, 4), 1)])
        assert face_integral(E, MPoly.const(2, 1)) == 1

    def test_skew_edge_weighted(self):
        # edge (0,0)-(2,4): primitive step (1,2), two steps; g = x
        E = hull_and_facets([(0, 0), (2, 4)])
        assert face_integral(E, MPoly.var(2, 0)) == 2  # int_0^2 t dt with x = t


class TestBoundaryIntegral:
    def test_a1_outer(self):
        rs = build_root_system("A1")
        Pp = chamber_intersect(rs, hull_and_facets([(-1,), (1,)]))
        assert boundary_integral(Pp, rs.H_top, "outer") == 1

    def test_a1_wall_vanishes(self):
        rs = build_root_system("A1")
        Pp = chamber_intersect(rs, hull_and_facets([(-1,), (1,)]))
        assert boundary_integral(Pp, rs.H_top, "wall") == 0

    def test_a2_wall_vanishes(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        assert boundary_integral(Pp, rs.H_top, "wall") == 0
        assert boundary_integral(Pp, rs.H_top, "all") == boundary_integral(Pp, rs.H_top, "outer")

    def test_square_all(self):
        rs = build_root_system("toric:2")
        P = chamber_intersect(rs, square())
        assert boundary_integral(P, MPoly.const(2, 1), "all") == 4


class TestVolumes:
    @pytest.mark.parametrize("label,seed", [("A1", (1,)), ("A2", (1, 1)), ("A2", (2, 1))])
    def test_chamber_fraction_of_volume(self, label, seed):
        rs = build_root_system(label)
        P = hull_and_facets(weyl_orbit(rs, seed))
        Pp = chamber_intersect(rs, P)
        assert len(rs.elements) * volume(Pp) == volume(P)

    def test_hexagon_volume(self):
        rs = build_root_system("A2")
        assert volume(hull_and_facets(weyl_orbit(rs, (1, 1)))) == 9
