import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import FitMismatch, KstabError
from kstab.exact import (MPoly, det, integer_kernel, interpolate_univariate,
                         primitive, rat_str, rational_kernel,
                         saturated_direction_basis, series_div, solve_linear,
                         upoly_eval)


def x(n=1, i=0):
    return MPoly.var(n, i)


class TestRatSerialization:
    def test_lowest_terms(self):
        assert rat_str(F(6, 4)) == "3/2"

    def test_integer(self):
        assert rat_str(F(8, 4)) == "2"

    def test_negative(self):
        assert rat_str(F(-3, 6)) == "-1/2"


class TestPolyArith:
    def test_add_cancellation(self):
        p = x() + -1 * x()
        assert p.is_zero

    def test_binomial_square(self):
        p = (x() + 1) * (x() + 1)
        assert p == x() ** 2 + 2 * x() + 1

    def test_affine_substitute_expansion(self):
        # x^2 under x -> x + y
        p = (x() ** 2).substitute_affine([[1, 1]], [0])
        xx, yy = MPoly.var(2, 0), MPoly.var(2, 1)
        assert p == xx ** 2 + 2 * xx * yy + yy ** 2

    def test_variable_count_mismatch(self):
        with pytest.raises(KstabError):
            x() + MPoly.var(2, 0)
        with pytest.raises(KstabError):
            x() * MPoly.var(2, 0)


class TestHomogeneousPart:
    def test_top_term(self):
        p = (x() + 1) ** 2
        assert p.homogeneous_part(2) == x() ** 2

    def test_linear_term(self):
        p = (x() + 1) ** 2
        assert p.homogeneous_part(1) == 2 * x()

    def test_a2_dimension_polynomial_degree3(self):
        xx, yy = MPoly.var(2, 0), MPoly.var(2, 1)
        h = (xx + 1) * (yy + 1) * (xx + yy + 2) * F(1, 2)
        assert h.homogeneous_part(3) == xx * yy * (xx + yy) * F(1, 2)

    def test_decomposition_reassembles(self):
        rng = random.Random(7)
        for _ in range(10):
            terms = {}
            for _ in range(12):
                e = tuple(rng.randint(0, 4) for _ in range(3))
                terms[e] = F(rng.randint(-9, 9), rng.randint(1, 7))
            p = MPoly(3, terms)
            total = MPoly.zero(3)
            for d in range(p.degree() + 1):
                total = total + p.homogeneous_part(d)
            assert total == p


class TestInterpolation:
    def test_square_data(self):
        coeffs = interpolate_univariate([(1, 1), (2, 4), (3, 9)], 2)
        assert coeffs == [F(0), F(0), F(1)]

    def test_shifted_square_with_extra(self):
        coeffs = interpolate_univariate([(0, 1), (1, 4), (2, 9), (3, 16)], 2)
        assert coeffs == [F(1), F(2), F(1)]  # (k+1)^2

    def test_sum_of_squares_oracle(self):
        # independent oracle: enumerate sum_{j=0..k} (j+1)^2 directly
        samples = [(k, F(sum((j + 1) ** 2 for j in range(k + 1)))) for k in range(1, 6)]
        coeffs = interpolate_univariate(samples, 3)
        for k in range(1, 12):
            assert upoly_eval(coeffs, k) == F((k + 1) * (k + 2) * (2 * k + 3), 6)

    def test_duplicate_abscissae(self):
        with pytest.raises(KstabError):
            interpolate_univariate([(1, 1), (1, 2), (3, 9)], 2)

    def test_extra_mismatch(self):
        with pytest.raises(FitMismatch):
            interpolate_univariate([(1, 1), (2, 4), (3, 9), (4, 17)], 2)

    @given(st.lists(st.fractions(max_denominator=20), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_identity(self, coeffs):
        samples = [(k, upoly_eval(coeffs, k)) for k in range(6)]
        assert interpolate_univariate(samples, 3) == list(coeffs)


class TestSeriesDivision:
    def test_simple_geometric(self):
        # 1 / (1 - u) = 1 + u + u^2 + ...
        assert series_div([F(1)], [F(1), F(-1)], 3) == [F(1), F(1), F(1)]

    def test_futaki_shape(self):
        # (a + b u)/(c + d u) = a/c + (b/c - a d/c^2) u + ...
        a, b, c, d = F(3), F(5), F(2), F(7)
        got = series_div([a, b], [c, d], 2)
        assert got == [a / c, b / c - a * d / c ** 2]


class TestLinearAlgebra:
    def test_det_unimodular(self):
        assert det([[1, 0], [17, 1]]) == 1

    def test_det_rational(self):
        assert det([[F(1, 2), 0], [0, F(2, 3)]]) == F(1, 3)

    def test_solve(self):
        assert solve_linear([[2, 1], [1, -1]], [F(5), F(1)]) == (F(2), F(1))

    def test_solve_singular(self):
        assert solve_linear([[1, 1], [2, 2]], [1, 2]) is None

    def test_integer_kernel_saturated(self):
        # kernel of (1, 1): generated by (1, -1), not (2, -2)
        basis = integer_kernel([(1, 1)], 2)
        assert len(basis) == 1
        assert basis[0] in ((1, -1), (-1, 1))

    def test_direction_lattice_diagonal(self):
        basis = saturated_direction_basis([(F(2), F(-2))], 2)
        assert len(basis) == 1 and basis[0] in ((1, -1), (-1, 1))

    def test_rational_kernel(self):
        ker = rational_kernel([[1, 2, 3]], 3)
        assert len(ker) == 2
        for v in ker:
            assert v[0] + 2 * v[1] + 3 * v[2] == 0


class TestRatPermutationSums:
    @given(st.lists(st.fractions(max_denominator=1000), min_size=2, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert sum(shuffled, F(0)) == sum(values, F(0))


class TestPrimitive:
    def test_clears_denominators(self):
        assert primitive((F(1, 2), F(-3, 4))) == (2, -3)

    def test_divides_gcd(self):
        assert primitive((4, 6)) == (2, 3)

    def test_zero_rejected(self):
        with pytest.raises(KstabError):
            primitive((0, 0))
