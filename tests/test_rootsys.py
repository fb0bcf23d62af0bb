from fractions import Fraction as F

import pytest

from kstab.errors import KstabError, ValidationError
from kstab.exact import MPoly, det
from kstab.rootsys import build_root_system, multiplicity_at, weyl_orbit


def V(*xs):
    return tuple(F(x) for x in xs)


class TestBuild:
    def test_a1(self):
        rs = build_root_system("A1")
        x = MPoly.var(1, 0)
        assert rs.h == x + 1
        assert rs.H == (x + 1) ** 2
        assert rs.H_top == x ** 2
        assert rs.H_sub == 2 * x
        assert (rs.d, rs.n) == (2, 3)

    def test_a2(self):
        rs = build_root_system("A2")
        x, y = MPoly.var(2, 0), MPoly.var(2, 1)
        assert rs.h == (x + 1) * (y + 1) * (x + y + 2) * F(1, 2)
        assert (rs.d, rs.n) == (6, 8)
        # graded parts derived from h^2, not transcribed
        assert rs.H_top == x ** 2 * y ** 2 * (x + y) ** 2 * F(1, 4)
        assert rs.H_sub == (x * y * (x + y) ** 3 + 2 * x ** 2 * y ** 2 * (x + y)) * F(1, 2)

    def test_a3(self):
        rs = build_root_system("A3")
        assert (rs.rank, rs.d, rs.n) == (3, 12, 15)
        assert rs.h.evaluate((0, 0, 0)) == 1
        assert len(rs.elements) == 24

    def test_toric(self):
        rs = build_root_system("toric:2")
        assert rs.H_top == MPoly.const(2, 1)
        assert rs.H_sub.is_zero
        assert (rs.d, rs.n) == (0, 2)

    def test_trivial_alias(self):
        with pytest.raises(KstabError, match="unsupported root system label"):
            build_root_system("Trivial(2)")

    def test_unsupported(self):
        for label in ("B2", "toric:x", "toric:", "toric:1/2"):
            with pytest.raises(KstabError, match="unsupported root system label"):
                build_root_system(label)


class TestOrbit:
    def test_a1_sign_flip(self):
        rs = build_root_system("A1")
        assert weyl_orbit(rs, (1,)) == (V(-1), V(1))

    def test_a2_regular_orbit(self):
        rs = build_root_system("A2")
        got = set(weyl_orbit(rs, (1, 1)))
        assert got == {V(1, 1), V(-1, 2), V(2, -1), V(1, -2), V(-2, 1), V(-1, -1)}

    def test_fixed_point(self):
        rs = build_root_system("A2")
        assert weyl_orbit(rs, (0, 0)) == (V(0, 0),)

    def test_orbit_size_divides_group(self):
        rs = build_root_system("A3")
        for pt in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 3)]:
            assert len(rs.elements) % len(weyl_orbit(rs, pt)) == 0


class TestMultiplicity:
    def test_trivial_representation(self):
        rs = build_root_system("A2")
        assert multiplicity_at(rs, (0, 0)) == 1

    def test_a2_fundamental(self):
        rs = build_root_system("A2")
        assert multiplicity_at(rs, (1, 0)) == 9

    def test_a1_classical(self):
        rs = build_root_system("A1")
        for m in range(12):
            assert multiplicity_at(rs, (m,)) == (m + 1) ** 2

    def test_outside_chamber(self):
        rs = build_root_system("A2")
        with pytest.raises(ValidationError):
            multiplicity_at(rs, (-1, 2))


class TestInvariants:
    @pytest.mark.parametrize("label", ["A1", "A2", "A3"])
    def test_generators_unimodular_involutions(self, label):
        rs = build_root_system(label)
        for g in rs.generators:
            assert abs(det(g)) == 1

    @pytest.mark.parametrize("label", ["A1", "A2", "A3"])
    def test_h_top_vanishes_on_walls_identically(self, label):
        rs = build_root_system(label)
        for i in range(rs.rank):
            assert rs.H_top.substitute_zero(i).is_zero

    def test_h_square_invariant_under_flip(self):
        # the A2 diagram flip (x, y) -> (y, x) preserves H_top exactly
        rs = build_root_system("A2")
        flipped = rs.H_top.substitute_affine([[0, 1], [1, 0]], [0, 0])
        assert flipped == rs.H_top

    def test_h_top_sign_under_reflection(self):
        rs = build_root_system("A2")
        for g in rs.generators:
            moved = rs.H_top.substitute_affine([list(row) for row in g], [0, 0])
            assert moved == rs.H_top or moved == -1 * rs.H_top
            assert moved * moved == rs.H_top * rs.H_top

    @pytest.mark.parametrize("label,bound", [("A1", 20), ("A2", 20), ("A3", 20)])
    def test_multiplicities_positive_integers(self, label, bound):
        rs = build_root_system(label)
        import itertools
        for lam in itertools.product(range(bound + 1), repeat=rs.rank):
            hv = rs.h.evaluate(lam)
            val = hv * hv
            assert val.denominator == 1 and val > 0
