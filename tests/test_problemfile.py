from fractions import Fraction as F

import pytest

from kstab.errors import ParseError
from kstab.problemfile import (CreaseSpec, Problem, parse_problem,
                               serialize_problem)

SAMPLE = """\
# a comment
[root_system]
A2

[polytope]
1 1
-1 2   # trailing comment
2 -1
1 -2
-2 1
-1 -1

[crease]
corner = 1 1
epsilon = 1/4
slope = 1
symmetrize = true

[options]
selector = outer
progression = 4:4:13
"""


class TestParse:
    def test_sample(self):
        p = parse_problem(SAMPLE)
        assert p.root_system == "A2"
        assert len(p.vertices) == 6
        assert p.crease == CreaseSpec((F(1), F(1)), F(1, 4), F(1), True)
        assert p.option("selector") == "outer"
        assert p.option("missing", "dflt") == "dflt"

    def test_pl_pieces(self):
        text = "[root_system]\nA1\n[polytope]\n-1\n1\n[pl_function]\n0 0\n-1/2 1\n"
        p = parse_problem(text)
        assert p.pl_pieces == ((F(0), (F(0),)), (F(-1, 2), (F(1),)))

    def test_bad_rational_reports_line(self):
        text = "[root_system]\nA1\n[polytope]\n1\nfoo\n"
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert "line 5" in str(exc.value)

    def test_gradient_of_wrong_length_reports_line(self):
        text = "[root_system]\nA1\n[pl_function]\n0 0\n1 2 3\n[polytope]\n-1\n1\n"
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert "line 5" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_problem("[nonsense]\n1\n")

    def test_missing_polytope(self):
        with pytest.raises(ParseError):
            parse_problem("[root_system]\nA1\n")

    def test_mixed_dimensions(self):
        with pytest.raises(ParseError):
            parse_problem("[root_system]\nA1\n[polytope]\n1\n1 2\n")


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        p = parse_problem(SAMPLE)
        assert parse_problem(serialize_problem(p)) == p

    def test_roundtrip_with_pieces(self):
        p = Problem(
            root_system="toric:2",
            vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
            pl_pieces=((F(0), (F(0), F(0))), (F(-3, 2), (F(1), F(1)))),
            options=(("budget", "1000000"),))
        assert parse_problem(serialize_problem(p)) == p

    def test_exact_rationals_survive(self):
        p = Problem(
            root_system="A1",
            vertices=((F(-22, 7),), (F(22, 7),)),
            crease=CreaseSpec((F(22, 7),), F(3, 128), F(16), True))
        q = parse_problem(serialize_problem(p))
        assert q.vertices == p.vertices and q.crease == p.crease
