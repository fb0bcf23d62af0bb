"""Exact integration of polynomials over rational polytopes.

Interior integrals use the lattice Euclidean measure; face integrals use
the measure normalized by the saturated direction lattice of the face, so
no square roots ever appear.  Each polytope gets the pulling
triangulation of every face: it is coned from its lexicographically
smallest vertex over the triangulations of the facets that miss that
vertex, each pulled in turn from its own smallest vertex, down to edges.
Faces are read off the vertex-facet incidences (`polytope.tight_sets`),
so one code path serves every dimension.

Each simplex is integrated by the Grundmann-Moeller cubature rule of index
s (SIAM J. Numer. Anal. 15, 1978), which is exact for polynomials of
degree at most 2s + 1.  Its nodes and weights are rational, so with
s = deg(g) // 2 the rule is the exact integral:

    integral of g over S  =  |det S| * sum over nodes of  w * g(node),

with the nodes the barycentric combinations of the vertices of S.  Some
weights are negative, which is harmless in exact arithmetic.  A lower-
dimensional polytope is triangulated in the coordinates t of its lattice
chart x = chart_anchor + B t: the chart simplex gives the Jacobian of the
face measure, and since the chart is affine, the nodes of its image in P
are the same barycentric combinations of the lifted vertices.  g is
summed over each level of nodes in integer arithmetic (`MPoly.sum_at`),
its coefficients over one common denominator and the nodes over another.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError
from .exact import MPoly, Vec, det, vsub
from .polytope import OUTER, Polytope, _chart_point, facet_polytope, tight_sets


@dataclass(frozen=True)
class SimplexDecomposition:
    simplices: tuple[tuple[Vec, ...], ...]
    pulled_from: Vec


def triangulate(P: Polytope, pull: Vec | None = None) -> SimplexDecomposition:
    """Pulling triangulation of a full-dimensional polytope.

    A face with at most two vertices is its own simplex.  A larger face is
    the cone from its pulling vertex over the triangulations of its facets
    that miss that vertex, each facet pulled from its own smallest vertex;
    the facets of a face are its maximal proper vertex sets shared with a
    facet of P.  Deterministic: the pulling vertex of P defaults to the
    lexicographically smallest one.  The optional `pull` argument exists
    so tests can verify triangulation independence of the integrals.
    """
    if not P.is_full_dim:
        raise KstabError("triangulate expects the full-dimensional form")
    v0 = P.vertices[0] if pull is None else tuple(Fraction(x) for x in pull)
    if v0 not in P.vertices:
        raise KstabError("pulling point must be a vertex")
    tight = list(tight_sets(P).values())  # in P.vertices order

    def cone(face: tuple[int, ...], apex: int) -> list[tuple[int, ...]]:
        # face: ascending indices into the lex-sorted P.vertices
        if len(face) <= 2:
            return [face]
        shared = {frozenset(j for j in face if i in tight[j])
                  for i in frozenset().union(*(tight[j] for j in face))}
        shared.discard(frozenset(face))
        out = []
        for sub in sorted(tuple(sorted(S)) for S in shared
                          if apex not in S and not any(S < o for o in shared)):
            out.extend((apex,) + s for s in cone(sub, sub[0]))
        return out

    simplices = cone(tuple(range(len(P.vertices))), P.vertices.index(v0))
    return SimplexDecomposition(
        tuple(tuple(P.vertices[j] for j in s) for s in simplices), v0)


@functools.cache
def _gm_rule(n: int, s: int) -> tuple[tuple[Fraction, int, tuple[tuple[int, ...], ...]], ...]:
    """Grundmann-Moeller rule of index s on the n-simplex, exact to degree 2s + 1.

    One entry per level i = 0..s: the weight w_i of each of its nodes, their
    common denominator m = 2s + 1 + n - 2i, and the numerators 2*beta + 1 of
    their barycentric coordinates, one node per beta in N^(n+1) with
    |beta| = s - i.  Summed over all nodes the weights give 1/n!, the volume
    of the standard simplex.
    """
    d = 2 * s + 1
    levels = []
    for i in range(s + 1):
        k = s - i
        m = d + n - 2 * i
        w = Fraction((-1) ** i * m ** d,
                     4 ** s * math.factorial(i) * math.factorial(d + n - i))
        nodes = tuple(tuple(2 * b + 1 for b in (*head, k - sum(head)))
                      for head in itertools.product(range(k + 1), repeat=n)
                      if sum(head) <= k)
        levels.append((w, m, nodes))
    return tuple(levels)


def _simplex_integral(chart: tuple[Vec, ...], verts: tuple[Vec, ...], g: MPoly) -> Fraction:
    """Exact integral of g over the simplex with vertices `verts`, in the
    measure of the full-dimensional simplex `chart` that maps onto it
    affinely, vertex by vertex (`chart` is `verts` for a full-dimensional
    simplex)."""
    jac = abs(det([vsub(v, chart[0]) for v in chart[1:]]))
    if jac == 0 or g.is_zero:
        return Fraction(0)
    q = math.lcm(*(x.denominator for v in verts for x in v))
    coords = list(zip(*([x.numerator * (q // x.denominator) for x in v] for v in verts)))
    total = Fraction(0)
    for w, m, nodes in _gm_rule(len(chart) - 1, g.degree() // 2):
        points = ([sum(map(operator.mul, lam, c)) for c in coords] for lam in nodes)
        total += w * g.sum_at(points, m * q)
    return jac * total


def integrate_simplex(verts: tuple[Vec, ...], g: MPoly) -> Fraction:
    """Exact integral of g over a full-dimensional simplex."""
    return _simplex_integral(verts, verts, g)


def integrate_poly(P: Polytope, g: MPoly) -> Fraction:
    """Integral of g over P with the lattice measure of its affine hull.

    Full-dimensional polytopes use the ambient lattice measure; a face is
    triangulated in its saturated-lattice chart (which carries exactly the
    face measure) and each chart simplex is lifted into P; points evaluate
    g (counting measure).
    """
    if g.nvars != P.ambient:
        raise KstabError("polynomial and polytope dimensions disagree")
    if P.dim == 0:
        return g.evaluate(P.vertices[0])
    if P.is_full_dim:
        return sum((integrate_simplex(s, g) for s in triangulate(P).simplices), Fraction(0))
    return sum((_simplex_integral(s, tuple(_chart_point(P.chart_anchor, P.chart_basis, t)
                                           for t in s), g)
                for s in triangulate(P.inner).simplices), Fraction(0))


def face_integral(F: Polytope, g: MPoly) -> Fraction:
    """Integral over a face with the lattice-normalized face measure."""
    if F.is_full_dim and F.dim > 0:
        raise KstabError("face_integral expects a lower-dimensional face or a point")
    return integrate_poly(F, g)


def boundary_integral(P: Polytope, g: MPoly, selector: str = OUTER) -> Fraction:
    """Sum of face integrals over the facets matching the selector.

    Selector ``outer`` (default) restricts to facets inside the boundary
    of the uncut polytope, ``wall`` to chamber-wall facets, ``all`` takes
    every facet.
    """
    if selector not in ("outer", "wall", "all"):
        raise KstabError(f"unknown selector {selector!r}")
    total = Fraction(0)
    for f in P.facets:
        if selector != "all" and f.tag != selector:
            continue
        total += face_integral(facet_polytope(P, f), g)
    return total


def volume(P: Polytope) -> Fraction:
    return integrate_poly(P, MPoly.const(P.ambient, 1))
