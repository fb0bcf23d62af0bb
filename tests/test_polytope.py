import random
from fractions import Fraction as F

import pytest

from kstab.errors import ValidationError
from kstab.exact import det
from kstab.polytope import (WALL, OUTER, chamber_intersect, clip, contains, dilate,
                            edge_directions_at, hj_rays, hj_smooth_corner_2d,
                            hull_and_facets, is_delzant, is_w_invariant,
                            lattice_scale, make_delzant_2d, polygon_from_ring,
                            validate_complex, validate_vh, vertices_from_halfspaces,
                            wall_vertex_check)
from kstab.rootsys import build_root_system, weyl_orbit


def V(*xs):
    return tuple(F(x) for x in xs)


def interval(a, b):
    return hull_and_facets([(a,), (b,)])


UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestHull:
    def test_unit_square(self):
        P = hull_and_facets(UNIT_SQUARE)
        assert len(P.vertices) == 4
        got = {(f.normal, f.offset) for f in P.facets}
        assert got == {((1, 0), F(0)), ((-1, 0), F(-1)), ((0, 1), F(0)), ((0, -1), F(-1))}

    def test_redundant_interior_point_dropped(self):
        P = hull_and_facets([(0,), (1,), (F(1, 2),)])
        assert P.vertices == (V(0), V(1))

    def test_a2_hexagon(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        assert len(P.vertices) == 6 and len(P.facets) == 6

    def test_idempotent(self):
        P = hull_and_facets(UNIT_SQUARE + [(F(1, 3), F(2, 3))])
        Q = hull_and_facets(P.vertices)
        assert Q.vertices == P.vertices and Q.facets == P.facets

    def test_lower_dimensional_segment_in_plane(self):
        P = hull_and_facets([(0, 0), (2, 2), (1, 1)])
        assert P.dim == 1 and P.ambient == 2
        assert set(P.vertices) == {V(0, 0), V(2, 2)}
        assert contains(P, (1, 1)) and not contains(P, (1, 0))

    def test_cube(self):
        cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        P = hull_and_facets(cube)
        assert len(P.vertices) == 8 and len(P.facets) == 6
        validate_vh(P)

    def test_vh_consistency_random(self):
        import random
        rng = random.Random(3)
        for _ in range(5):
            pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(8)]
            P = hull_and_facets(pts)
            if P.is_full_dim:
                validate_vh(P)


class TestWInvariance:
    def test_symmetric_interval(self):
        rs = build_root_system("A1")
        assert is_w_invariant(rs, interval(-1, 1))[0]

    def test_asymmetric_interval(self):
        rs = build_root_system("A1")
        ok, witness = is_w_invariant(rs, interval(-1, 2))
        # both endpoints offend: the reflection image of either is missing
        assert not ok and witness[0] in (V(2), V(-1))

    def test_orbit_hull_invariant(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        assert is_w_invariant(rs, P)[0]


class TestChamberIntersect:
    def test_a1_interval(self):
        rs = build_root_system("A1")
        Pp = chamber_intersect(rs, interval(-3, 3))
        assert Pp.vertices == (V(0), V(3))
        tags = {(f.normal, f.tag) for f in Pp.facets}
        assert tags == {((1,), WALL), ((-1,), OUTER)}

    def test_a2_hexagon_quadrilateral(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        Pp = chamber_intersect(rs, P)
        assert set(Pp.vertices) == {V(0, 0), V(F(3, 2), 0), V(1, 1), V(0, F(3, 2))}
        assert sum(f.tag == WALL for f in Pp.facets) == 2

    def test_toric_identity(self):
        rs = build_root_system("toric:2")
        P = hull_and_facets(UNIT_SQUARE)
        assert chamber_intersect(rs, P) is P

    def test_contained_in_both(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (2, 1)))
        Pp = chamber_intersect(rs, P)
        for v in Pp.vertices:
            assert contains(P, v)
            assert rs.in_chamber(v)

    def test_non_invariant_rejected(self):
        rs = build_root_system("A1")
        with pytest.raises(ValidationError):
            chamber_intersect(rs, interval(-1, 2))


class TestDelzant:
    def test_unit_square(self):
        assert is_delzant(hull_and_facets(UNIT_SQUARE)).ok

    def test_stretched_triangle_fails_at_1_0(self):
        rep = is_delzant(hull_and_facets([(0, 0), (1, 0), (0, 2)]))
        assert not rep.ok
        assert [v for v, _ in rep.failures] == [V(1, 0)]
        assert "2" in rep.failures[0][1]

    def test_standard_simplex(self):
        assert is_delzant(hull_and_facets([(0, 0), (1, 0), (0, 1)])).ok

    def test_non_lattice_rejected(self):
        with pytest.raises(ValidationError):
            is_delzant(hull_and_facets([(0, 0), (F(1, 2), 0), (0, 1)]))

    def test_interval_always_smooth(self):
        assert is_delzant(interval(-2, 5)).ok

    def test_cube(self):
        cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        assert is_delzant(hull_and_facets(cube)).ok

    def test_3d_nonsmooth(self):
        # cone over the stretched triangle
        P = hull_and_facets([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 1)])
        assert not is_delzant(P).ok


class TestWallVertex:
    def test_a1_off_wall(self):
        rs = build_root_system("A1")
        assert wall_vertex_check(rs, interval(-1, 1))[0]

    def test_a2_orbit_of_wall_point(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 0)))
        ok, witnesses = wall_vertex_check(rs, P)
        assert not ok and V(1, 0) in witnesses

    def test_a2_hexagon_clear(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        assert wall_vertex_check(rs, P)[0]


class TestComplex:
    def test_interval_subdivision(self):
        cells = [interval(-1, F(-1, 2)), interval(F(-1, 2), F(1, 2)), interval(F(1, 2), 1)]
        rep = validate_complex(cells)
        assert rep.valid and not rep.unique_maximal

    def test_single_cell(self):
        rep = validate_complex([interval(0, 1)])
        assert rep.valid and rep.unique_maximal

    def test_overlap_invalid(self):
        rep = validate_complex([interval(0, 1), interval(F(1, 2), 2)])
        assert not rep.valid

    def test_2d_diagonal_split(self):
        t1 = hull_and_facets([(0, 0), (1, 0), (1, 1)])
        t2 = hull_and_facets([(0, 0), (0, 1), (1, 1)])
        assert validate_complex([t1, t2]).valid

    def test_2d_bad_pair(self):
        t1 = hull_and_facets([(0, 0), (2, 0), (2, 2)])
        t2 = hull_and_facets([(1, 0), (3, 0), (1, 2)])
        assert not validate_complex([t1, t2]).valid


class TestHJ:
    def test_rays_det2(self):
        assert hj_rays((1, 0), (1, 2)) == [(1, 1)]

    def test_rays_det3_chain(self):
        assert hj_rays((1, 0), (1, 3)) == [(1, 1), (1, 2)]

    def test_rays_consecutive_unimodular(self):
        rays = [(3, 1)] + hj_rays((3, 1), (1, 4)) + [(1, 4)]
        for a, b in zip(rays, rays[1:]):
            assert a[0] * b[1] - a[1] * b[0] == 1

    @staticmethod
    def _created_vertices_smooth(P, res):
        old = {tuple(res.scale * x for x in v) for v in P.vertices}
        created = [v for v in res.polytope.vertices if v not in old]
        assert created
        for v in created:
            dirs = edge_directions_at(res.polytope, v)
            assert len(dirs) == 2 and abs(det(dirs)) == 1

    def test_spec_corner_det2(self):
        # corner at the origin whose edges have inward normals (1,0), (1,2)
        P = polygon_from_ring([(0, 0), (2, -1), (4, 4), (0, 2)])
        res = hj_smooth_corner_2d(P, (0, 0), F(1, 4))
        assert res.inserted == ((1, 1),)
        assert res.scale == 4
        self._created_vertices_smooth(P, res)

    def test_delzant_corner_identity(self):
        P = hull_and_facets(UNIT_SQUARE)
        res = hj_smooth_corner_2d(P, (0, 0), F(1, 4))
        assert res.polytope is P and res.scale == 1 and res.inserted == ()

    def test_det3_corner(self):
        # corner with inward normals (1,0) and (1,3): two inserted rays
        P = polygon_from_ring([(0, 0), (3, -1), (6, 6), (0, 3)])
        res = hj_smooth_corner_2d(P, (0, 0), F(1, 4))
        assert res.inserted == ((1, 1), (1, 2))
        self._created_vertices_smooth(P, res)

    def test_created_vertices_smooth(self):
        P = hull_and_facets([(0, 0), (1, 0), (0, 2)])
        res = make_delzant_2d(P)
        assert is_delzant(res.polytope).ok

    def test_delta_too_large(self):
        P = hull_and_facets([(0, 0), (1, 0), (0, 2)])
        with pytest.raises(ValidationError):
            hj_smooth_corner_2d(P, (1, 0), F(5))


class TestHelpers:
    def test_edge_directions_square_corner(self):
        P = hull_and_facets(UNIT_SQUARE)
        assert edge_directions_at(P, (0, 0)) == [(0, 1), (1, 0)]

    def test_vertices_from_halfspaces_triangle(self):
        hs = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-1))]
        got = vertices_from_halfspaces(hs, 2)
        assert set(got) == {V(0, 0), V(1, 0), V(0, 1)}

    def test_clip_matches_brute_force_random(self):
        rng = random.Random(7)
        cases = 0
        through_vertex = 0
        flattened_or_empty = 0
        while cases < 300:
            d = 1 + cases % 3
            pts = [tuple(rng.randint(-4, 4) for _ in range(d))
                   for _ in range(rng.randint(d + 1, d + 4))]
            P = hull_and_facets(pts)
            if not P.is_full_dim:
                continue
            hs = []
            for _ in range(rng.randint(1, 6)):
                n = tuple(rng.randint(-3, 3) for _ in range(d))
                if not any(n):
                    continue
                if rng.random() < 0.3:
                    c = sum(a * x for a, x in zip(n, rng.choice(P.vertices)))
                    through_vertex += 1
                else:
                    c = F(rng.randint(-12, 12), rng.randint(1, 3))
                hs.append((n, c))
            got = clip(P, hs)
            want = vertices_from_halfspaces(
                [(f.normal, f.offset) for f in P.facets] + hs, d)
            assert got == want, (P.vertices, hs)
            if len(want) <= d:
                flattened_or_empty += 1
            cases += 1
        assert through_vertex > 50 and flattened_or_empty > 10

    def test_clip_through_a_vertex_adds_no_point(self):
        P = hull_and_facets(UNIT_SQUARE)
        # x + y >= 1 passes through (1, 0) and (0, 1)
        assert clip(P, [((1, 1), 1)]) == [V(0, 1), V(1, 0), V(1, 1)]
        # x >= y passes through (0, 0) and (1, 1), then x + y <= 1 passes
        # through the vertex (1, 0) of the triangle left over
        assert clip(P, [((1, -1), 0), ((-1, -1), -1)]) \
            == [V(0, 0), V(F(1, 2), F(1, 2)), V(1, 0)]

    def test_clip_leaving_one_facet(self):
        cube = hull_and_facets([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
        # z <= 0 keeps just the bottom face of the cube
        assert clip(cube, [((0, 0, -1), 0)]) == [V(0, 0, 0), V(0, 1, 0), V(1, 0, 0), V(1, 1, 0)]

    def test_clip_to_empty(self):
        P = hull_and_facets(UNIT_SQUARE)
        assert clip(P, [((1, 1), 3)]) == []
        assert clip(interval(-1, 1), [((1,), F(1, 2)), ((-1,), 0)]) == []

    def test_dilate(self):
        P = hull_and_facets(UNIT_SQUARE)
        Q = dilate(P, 3)
        assert V(3, 3) in Q.vertices
        validate_vh(Q)

    def test_lattice_scale(self):
        P = hull_and_facets([(0, 0), (F(1, 4), 0), (0, F(1, 6))])
        assert lattice_scale(P) == 12
