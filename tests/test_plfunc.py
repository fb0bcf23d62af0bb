import itertools
import random
from fractions import Fraction as F

import pytest

from kstab.errors import ValidationError
from kstab.exact import dot, vadd
from kstab.generators import random_w_invariant_polytope
from kstab.polytope import (CREASE, chamber_intersect, clip, hull_and_facets,
                            validate_complex)
from kstab.plfunc import (build_test_polytope, corner_crease, eval_pl,
                          is_w_invariant_pl, max_on_polytope, pl_constant,
                          pl_from_pieces, subdivision_from_pl, symmetrize)
from kstab.rootsys import build_root_system, weyl_orbit


def V(*xs):
    return tuple(F(x) for x in xs)


def crease1d(c):
    return pl_from_pieces(1, [(0, (0,)), (-F(c), (1,))])


def interval(a, b):
    return hull_and_facets([(a,), (b,)])


class TestEval:
    def test_half_crease(self):
        f = crease1d(F(1, 2))
        assert eval_pl(f, (1,)) == F(1, 2)

    def test_zero_branch(self):
        assert eval_pl(crease1d(F(1, 2)), (0,)) == 0

    def test_symmetrized_by_symmetry(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        assert eval_pl(f, (-1,)) == F(1, 2)


class TestSymmetrize:
    def test_a1_crease(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        assert set(f.pieces) == {(F(0), V(0)), (F(-1, 2), V(1)), (F(-1, 2), V(-1))}

    def test_constant_unchanged(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, pl_constant(1, F(7, 2)))
        assert f.pieces == ((F(7, 2), V(0)),)

    def test_a2_orbit_pieces(self):
        rs = build_root_system("A2")
        single = pl_from_pieces(2, [(0, (0, 0)), (F(-7, 4), (1, 1))])
        f = symmetrize(rs, single)
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        assert is_w_invariant_pl(rs, f, P)
        # orbit of the crease piece has size 3 plus the zero piece
        assert len(f.pieces) in (4, 7)

    def test_idempotent(self):
        rs = build_root_system("A2")
        single = pl_from_pieces(2, [(0, (0, 0)), (F(-7, 4), (1, 1))])
        once = symmetrize(rs, single)
        twice = symmetrize(rs, once)
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        verts = set(P.vertices)
        for cell, _ in subdivision_from_pl(P, once).cells:
            verts.update(cell.vertices)
        assert once.pieces == twice.pieces or all(
            eval_pl(once, v) == eval_pl(twice, v) for v in verts)


class TestInvariance:
    def test_symmetric_crease_invariant(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        assert is_w_invariant_pl(rs, f, interval(-1, 1))

    def test_one_sided_crease_not_invariant(self):
        rs = build_root_system("A1")
        assert not is_w_invariant_pl(rs, crease1d(F(1, 2)), interval(-1, 1))

    def test_toric_always_invariant(self):
        rs = build_root_system("toric:1")
        assert is_w_invariant_pl(rs, crease1d(F(1, 2)), interval(0, 2))

    def test_matches_common_refinement_rule_random(self):
        rng = random.Random(31)
        verdicts = {kind: set() for kind in KINDS}
        for label in ("A1", "A2"):
            rs = build_root_system(label)
            for kind in KINDS:
                for _ in range(4):
                    P = random_w_invariant_polytope(rs, rng, max_coord=3, max_vertices=6)
                    f = random_pl(rs, P, rng, kind)
                    got = is_w_invariant_pl(rs, f, P)
                    assert got == invariant_by_common_refinement(rs, f, P), (label, kind, f)
                    verdicts[kind].add(got)
                    # the same f on a translate of P, which is not W-invariant
                    shift = tuple(rng.choice((-1, 1)) for _ in range(rs.rank))
                    Q = hull_and_facets([vadd(v, shift) for v in P.vertices])
                    assert is_w_invariant_pl(rs, f, Q) == \
                        invariant_by_common_refinement(rs, f, Q), (label, kind, f, shift)
        assert verdicts["symmetrized"] == verdicts["dominated-piece"] == {True}
        assert verdicts["interior-piece"] == {False}
        assert False in verdicts["random"]


class TestSubdivision:
    def test_three_cells(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        sub = subdivision_from_pl(interval(-1, 1), f)
        cells = sorted(tuple(c.vertices) for c, _ in sub.cells)
        assert cells == [((V(-1)[0],), (F(-1, 2),)),
                         ((F(-1, 2),), (F(1, 2),)),
                         ((F(1, 2),), (V(1)[0],))] or len(sub.cells) == 3

    def test_single_piece_whole(self):
        P = interval(-1, 1)
        sub = subdivision_from_pl(P, pl_constant(1, 5))
        assert len(sub.cells) == 1
        assert set(sub.cells[0][0].vertices) == set(P.vertices)

    def test_square_diagonal(self):
        P = hull_and_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        f = pl_from_pieces(2, [(0, (0, 0)), (-1, (1, 1))])
        sub = subdivision_from_pl(P, f)
        assert len(sub.cells) == 2
        crease_facets = [ft for c, _ in sub.cells for ft in c.facets if ft.tag == CREASE]
        assert len(crease_facets) == 2  # the shared diagonal, once per cell

    def test_subdivision_validates_as_complex(self):
        rs = build_root_system("A2")
        P = hull_and_facets(weyl_orbit(rs, (1, 1)))
        f = symmetrize(rs, pl_from_pieces(2, [(0, (0, 0)), (F(-7, 4), (1, 1))]))
        sub = subdivision_from_pl(P, f)
        rep = validate_complex([c for c, _ in sub.cells])
        assert rep.valid

    def test_active_piece_recorded(self):
        P = interval(0, 2)
        f = crease1d(1)
        sub = subdivision_from_pl(P, f)
        for cell, idx in sub.cells:
            c, g = f.pieces[idx]
            mid = sum(v[0] for v in cell.vertices) / len(cell.vertices)
            assert c + g[0] * mid == eval_pl(f, (mid,))


class TestCornerCrease:
    def test_a1_half(self):
        rs = build_root_system("A1")
        Pp = chamber_intersect(rs, interval(-1, 1))
        f = corner_crease(Pp, (1,), F(1, 2), 1)
        assert set(f.pieces) == {(F(0), V(0)), (F(-1, 2), V(1))}

    def test_value_at_corner_contract(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        for eps, slope in [(F(1, 4), 1), (F(1, 8), 3), (F(1, 5), F(2, 3))]:
            f = corner_crease(Pp, (1, 1), eps, slope, rs=rs)
            assert eval_pl(f, (1, 1)) == eps * slope

    def test_a2_cap_geometry(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        f = corner_crease(Pp, (1, 1), F(1, 4), 1, rs=rs)
        # positive exactly on the cap x + y > 7/4
        assert eval_pl(f, (1, 1)) == F(1, 4)
        assert eval_pl(f, (F(7, 8), F(7, 8))) == 0
        assert eval_pl(f, (F(15, 16), F(15, 16))) == F(1, 8)

    def test_zero_at_other_vertices(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        f = corner_crease(Pp, (1, 1), F(1, 4), 1, rs=rs)
        for v in Pp.vertices:
            if v != V(1, 1):
                assert eval_pl(f, v) == 0

    def test_epsilon_too_large(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        with pytest.raises(ValidationError):
            corner_crease(Pp, (1, 1), F(3), 1, rs=rs)

    def test_corner_on_wall_rejected(self):
        rs = build_root_system("A2")
        Pp = chamber_intersect(rs, hull_and_facets(weyl_orbit(rs, (1, 1))))
        with pytest.raises(ValidationError):
            corner_crease(Pp, (F(3, 2), 0), F(1, 8), 1, rs=rs)


class TestLift:
    def test_unit_square_lift(self):
        P = interval(0, 1)
        lift = build_test_polytope(P, pl_constant(1, 0), 1)
        assert set(lift.polytope.vertices) == {V(0, 0), V(0, 1), V(1, 0), V(1, 1)}
        assert lift.scale == 1

    def test_hexagonal_lift(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        lift = build_test_polytope(interval(-1, 1), f, 1)
        assert lift.scale == 2
        assert set(lift.polytope.vertices) == {
            V(0, -1), V(0, 1), V(F(1, 2), -1), V(F(1, 2), 1),
            V(1, F(-1, 2)), V(1, F(1, 2))}
        assert len(lift.polytope.facets) == 6

    def test_roof_too_small(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        with pytest.raises(ValidationError):
            build_test_polytope(interval(-1, 1), f, F(1, 4))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lattice_point_count_matches_columns(self, k):
        # lattice points of k*N*lift equal sum over the base of the column
        # heights floor(kN(R - f)) + 1
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        P = interval(-1, 1)
        lift = build_test_polytope(P, f, 1)
        kn = k * lift.scale
        direct = 0
        Q = lift.polytope
        for t in range(0, 2 * kn + 1):
            for x in range(-kn, kn + 1):
                pt = (F(t), F(x))
                if all(dot(ft.normal, pt) >= kn * ft.offset for ft in Q.facets):
                    direct += 1
        columns = 0
        for x in range(-kn, kn + 1):
            height = kn * (1 - eval_pl(f, (F(x, kn),)))
            columns += height.numerator // height.denominator + 1
        assert direct == columns


class TestMaxAndBounds:
    def test_max_at_vertex(self):
        rs = build_root_system("A1")
        f = symmetrize(rs, crease1d(F(1, 2)))
        assert max_on_polytope(f, interval(-1, 1)) == F(1, 2)

    def test_denominator_bound(self):
        f = pl_from_pieces(2, [(F(1, 6), (F(1, 4), 0)), (0, (0, 0))])
        assert f.denominator_bound == 12


def invariant_by_common_refinement(rs, f, P):
    """Reference rule: f and f ∘ w are both affine on every cell of the
    common refinement of their linearity subdivisions, so they agree on P
    exactly when they agree at all vertices of the refined cells."""
    for mat in rs.generators:
        g = f.compose_matrix(mat)
        cells_f = subdivision_from_pl(P, f).cells
        cells_g = subdivision_from_pl(P, g).cells
        for (A, _), (B, _) in itertools.product(cells_f, cells_g):
            for x in clip(A, [(ft.normal, ft.offset) for ft in B.facets]):
                if eval_pl(f, x) != eval_pl(g, x):
                    return False
    return True


KINDS = ("symmetrized", "random", "interior-piece", "dominated-piece")


def random_pl(rs, P, rng, kind):
    """A convex PL function on the W-invariant polytope P, of one kind.

    symmetrized: invariant by construction.  random: a zero piece and two
    random pieces.  interior-piece: the invariant max over the orbit of a
    linear form, plus a piece that attains the max only inside P, so that
    f agrees with f ∘ w at the vertices of P but not near the origin.
    dominated-piece: a symmetrized function plus a piece that never attains
    the max on P, so f ∘ w has a different piece set but the same values
    on P.
    """
    r = rs.rank
    zero = (0, (0,) * r)

    def piece():
        return (F(rng.randint(-12, 2), rng.randint(1, 4)),
                tuple(rng.randint(-2, 2) for _ in range(r)))

    def grad():
        return tuple(rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(r))

    if kind == "random":
        return pl_from_pieces(r, [zero, piece(), piece()])
    if kind == "symmetrized":
        return symmetrize(rs, pl_from_pieces(r, [zero, piece()]))
    if kind == "interior-piece":
        f0 = symmetrize(rs, pl_from_pieces(r, [(0, grad())]))
        g = tuple(F(x, 4) for x in grad())
        c = min(eval_pl(f0, v) - dot(g, v) for v in P.vertices) / 2
        return pl_from_pieces(r, list(f0.pieces) + [(c, g)])
    f0 = symmetrize(rs, pl_from_pieces(r, [zero, piece()]))
    g = grad()
    low = -max(dot(g, v) for v in P.vertices) - rng.randint(1, 3)
    f = pl_from_pieces(r, list(f0.pieces) + [(low, g)])
    assert any(set(f.compose_matrix(m).pieces) != set(f.pieces) for m in rs.generators)
    return f
