"""Exact integration of polynomials over rational polytopes.

Interior integrals use the lattice Euclidean measure; face integrals use
the measure normalized by the saturated direction lattice of the face, so
no square roots ever appear.  Each polytope gets the pulling
triangulation of every face: it is coned from its lexicographically
smallest vertex over the triangulations of the facets that miss that
vertex, each pulled in turn from its own smallest vertex, down to edges.
Faces are read off the vertex-facet incidences (`polytope.tight_sets`),
so one code path serves every dimension.  Each simplex is mapped to the
standard simplex by an exact affine substitution, and monomials are
integrated by the closed form

    integral over the standard simplex of t^a  =  a_1! ... a_s! / (s + |a|)!

scaled by the absolute determinant of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError
from .exact import MPoly, Vec, det, vsub
from .polytope import OUTER, Polytope, facet_polytope, tight_sets


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


def integrate_simplex(verts: tuple[Vec, ...], g: MPoly) -> Fraction:
    """Exact integral of g over a full-dimensional simplex."""
    d = len(verts) - 1
    base = verts[0]
    cols = [vsub(v, base) for v in verts[1:]]
    jac = abs(det([[cols[j][i] for j in range(d)] for i in range(d)]))
    if jac == 0:
        return Fraction(0)
    rows = [[cols[j][i] for j in range(d)] for i in range(len(base))]
    gsub = g.substitute_affine(rows, base)
    total = Fraction(0)
    for e, c in gsub.terms.items():
        num = 1
        for k in e:
            num *= math.factorial(k)
        total += c * Fraction(num, math.factorial(d + sum(e)))
    return jac * total


def integrate_poly(P: Polytope, g: MPoly) -> Fraction:
    """Integral of g over P with the lattice measure of its affine hull.

    Full-dimensional polytopes use the ambient lattice measure; faces are
    pulled back through their saturated-lattice chart (this is exactly the
    face measure), and points evaluate g (counting measure).
    """
    if g.nvars != P.ambient:
        raise KstabError("polynomial and polytope dimensions disagree")
    if P.dim == 0:
        return g.evaluate(P.vertices[0])
    if P.is_full_dim:
        dec = triangulate(P)
        return sum((integrate_simplex(s, g) for s in dec.simplices), Fraction(0))
    rows = [[Fraction(P.chart_basis[j][i]) for j in range(P.dim)]
            for i in range(P.ambient)]
    inner_g = g.substitute_affine(rows, P.chart_anchor)
    return integrate_poly(P.inner, inner_g)


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
