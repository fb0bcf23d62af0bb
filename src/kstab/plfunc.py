"""Convex piecewise-linear test functions and their induced subdivisions.

A PL function is stored as a max of affine pieces, so convexity holds by
construction and the domains of linearity are convex polytopes cut out by
exact halfplane comparisons.  Crease constructors (the corner test
functions used by the destabilizer search) compile down to this form, and
the lifted polytope encodes the induced one-parameter degeneration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError, ValidationError
from .exact import (MPoly, Vec, as_vec, dot, lcm_denominators, primitive,
                    rat, vsub)
from .polytope import (CREASE, OUTER, Facet, Polytope, clip,
                       edge_directions_at, hull_and_facets)
from .rootsys import RootSystem

Piece = tuple[Fraction, Vec]  # (constant, gradient): value = constant + <gradient, x>


@dataclass(frozen=True)
class PLFunction:
    nvars: int
    pieces: tuple[Piece, ...]

    def __call__(self, x) -> Fraction:
        return eval_pl(self, x)

    @property
    def denominator_bound(self) -> int:
        """lcm of all coefficient denominators of all pieces."""
        vals = []
        for c, g in self.pieces:
            vals.append(c)
            vals.extend(g)
        return lcm_denominators(vals)

    def compose_matrix(self, matrix) -> "PLFunction":
        """The function x -> f(M x); pieces pick up gradient * M."""
        new = []
        for c, g in self.pieces:
            grad = tuple(sum(Fraction(g[i]) * matrix[i][j] for i in range(self.nvars))
                         for j in range(self.nvars))
            new.append((c, grad))
        return pl_from_pieces(self.nvars, new)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        """Sum of convex PL functions: pairwise sums of pieces."""
        if not isinstance(other, PLFunction) or other.nvars != self.nvars:
            raise KstabError("can only add PL functions in the same variables")
        pieces = [(c1 + c2, tuple(a + b for a, b in zip(g1, g2)))
                  for (c1, g1), (c2, g2) in itertools.product(self.pieces, other.pieces)]
        return pl_from_pieces(self.nvars, pieces)

    def scale(self, factor) -> "PLFunction":
        factor = rat(factor)
        if factor <= 0:
            raise KstabError("PL scaling factor must be positive to preserve convexity")
        return pl_from_pieces(self.nvars, [(factor * c, tuple(factor * x for x in g))
                                           for c, g in self.pieces])

    def rescale_domain(self, n) -> "PLFunction":
        """The dilation companion x -> N * f(x / N) (gradients unchanged)."""
        n = rat(n)
        return pl_from_pieces(self.nvars, [(n * c, g) for c, g in self.pieces])


def pl_from_pieces(nvars: int, pieces) -> PLFunction:
    cleaned = sorted({(rat(c), as_vec(g)) for c, g in pieces})
    if not cleaned:
        raise KstabError("a PL function needs at least one piece")
    if any(len(g) != nvars for _, g in cleaned):
        raise KstabError("piece gradient has wrong length")
    return PLFunction(nvars, tuple(cleaned))


def pl_constant(nvars: int, c) -> PLFunction:
    return pl_from_pieces(nvars, [(rat(c), (Fraction(0),) * nvars)])


def eval_pl(f: PLFunction, x) -> Fraction:
    x = as_vec(x)
    return max(c + dot(g, x) for c, g in f.pieces)


def piece_poly(piece: Piece) -> MPoly:
    c, g = piece
    return MPoly.affine(c, g)


def max_on_polytope(f: PLFunction, P: Polytope) -> Fraction:
    """Maximum of a convex PL function over a polytope: attained at a vertex."""
    return max(eval_pl(f, v) for v in P.vertices)


# ---------------------------------------------------------------------------
# Weyl symmetrization and invariance

def symmetrize(rs: RootSystem, f: PLFunction) -> PLFunction:
    """Close the piece set under the Weyl group; the result is invariant."""
    pieces = []
    for mat in rs.elements:
        pieces.extend(f.compose_matrix(mat).pieces)
    return pl_from_pieces(f.nvars, pieces)


def is_w_invariant_pl(rs: RootSystem, f: PLFunction, P: Polytope) -> bool:
    """Exact invariance test: f == f ∘ w on P for each generator w.

    Two convex PL functions agree on P exactly when they agree at every
    cell vertex of both linearity subdivisions: on a cell where one of them
    is affine, the other (convex) lies below it as soon as it does at the
    cell's vertices.
    """
    def cell_vertices(h: PLFunction) -> set[Vec]:
        return {v for cell, _ in subdivision_from_pl(P, h).cells for v in cell.vertices}

    for mat in rs.generators:
        g = f.compose_matrix(mat)
        for x in cell_vertices(f) | cell_vertices(g):
            if eval_pl(f, x) != eval_pl(g, x):
                return False
    return True


# ---------------------------------------------------------------------------
# induced subdivision

@dataclass(frozen=True)
class Subdivision:
    """Domains of linearity of a convex PL function on a polytope.

    Each cell records which piece attains the max there.  Cell facets
    inherit the host polytope's facet tags; facets interior to the host
    are tagged ``crease``.
    """
    cells: tuple[tuple[Polytope, int], ...]  # (cell, index into f.pieces)

    @property
    def complex(self) -> tuple[Polytope, ...]:
        return tuple(c for c, _ in self.cells)


def subdivision_from_pl(P: Polytope, f: PLFunction) -> Subdivision:
    if not P.is_full_dim:
        raise KstabError("subdivision expects a full-dimensional polytope")
    if f.nvars != P.ambient:
        raise KstabError("function and polytope dimensions disagree")
    cells = []
    for i, (ci, gi) in enumerate(f.pieces):
        hs = []
        for j, (cj, gj) in enumerate(f.pieces):
            if i == j:
                continue
            diff = tuple(a - b for a, b in zip(gi, gj))
            if not any(diff):
                # parallel pieces: one dominates globally
                if ci < cj:
                    hs = None
                    break
                continue
            hs.append((diff, cj - ci))  # <gi - gj, x> >= cj - ci
        if hs is None:
            continue
        verts = clip(P, hs)
        if len(verts) <= P.ambient:
            continue
        cell = hull_and_facets(verts)
        if not cell.is_full_dim:
            continue
        own = {(ft.normal, ft.offset): ft.tag for ft in P.facets}
        tagged = tuple(Facet(ft.normal, ft.offset,
                             own.get((ft.normal, ft.offset), CREASE))
                       for ft in cell.facets)
        cells.append((Polytope(cell.ambient, cell.dim, cell.vertices, tagged), i))
    if not cells:
        raise KstabError("subdivision produced no full-dimensional cells")
    return Subdivision(tuple(cells))


# ---------------------------------------------------------------------------
# corner crease constructor

def corner_crease(Pplus: Polytope, corner, epsilon, slope=1,
                  rs: RootSystem | None = None) -> PLFunction:
    """max(0, l) where l vanishes on the chord at lattice distance epsilon
    from the corner and grows toward it.

    The chord direction comes from the two incident edge directions; the
    distance is measured along the primitive inward normal of the chord,
    so f(corner) = epsilon * slope exactly.  The chord must cut only the
    two incident edges: any other vertex at functional distance <= epsilon
    is rejected.
    """
    corner = as_vec(corner)
    epsilon = rat(epsilon)
    slope = rat(slope)
    if epsilon <= 0 or slope <= 0:
        raise KstabError("epsilon and slope must be positive")
    if corner not in Pplus.vertices:
        raise ValidationError(f"{corner} is not a vertex of the polytope")
    if rs is not None and any(dot(w, corner) == 0 for w in rs.wall_normals):
        raise ValidationError("crease corner lies on a chamber wall")
    dirs = edge_directions_at(Pplus, corner)
    if Pplus.ambient == 1:
        # single incident edge; the chord degenerates to the point at
        # functional distance epsilon inward
        nprime = dirs[0]
    elif Pplus.ambient == 2:
        if len(dirs) != 2:
            raise ValidationError("corner must have exactly two incident edges")
        u1, u2 = dirs
        chord = vsub(u2, u1)
        n = primitive((-chord[1], chord[0]))
        if dot(n, u1) < 0:
            n = tuple(-x for x in n)
        if dot(n, u1) <= 0 or dot(n, u2) <= 0:
            raise ValidationError("degenerate corner")
        nprime = n
    else:
        raise KstabError("corner creases are supported in dimensions 1 and 2")
    for w in Pplus.vertices:
        if w == corner:
            continue
        gap = dot(nprime, vsub(w, corner))
        if gap <= epsilon:
            raise ValidationError(
                f"epsilon too large: vertex {w} at functional distance {gap}")
    constant = slope * (epsilon + dot(nprime, corner))
    gradient = tuple(-slope * Fraction(x) for x in nprime)
    zero = (Fraction(0), (Fraction(0),) * Pplus.ambient)
    return pl_from_pieces(Pplus.ambient, [zero, (constant, gradient)])


# ---------------------------------------------------------------------------
# the lifted test polytope

@dataclass(frozen=True)
class LiftedPolytope:
    """The degeneration polytope over a base P and convex PL function f.

    Lives in one dimension more, with coordinates (t, x): bounded below by
    (0, P) and above by the graph of R - f.  `scale` is the smallest
    integer N making N * polytope a lattice polytope.
    """
    base: Polytope
    f: PLFunction
    roof: Fraction
    polytope: Polytope
    scale: int


def build_test_polytope(P: Polytope, f: PLFunction, R) -> LiftedPolytope:
    R = rat(R)
    if not P.is_full_dim:
        raise KstabError("lift expects a full-dimensional base")
    sub = subdivision_from_pl(P, f)
    if R < max_on_polytope(f, P):
        raise ValidationError("roof constant is below the maximum of f")
    r = P.ambient
    facets = [Facet((1,) + (0,) * r, Fraction(0), OUTER)]          # bottom t >= 0
    for ft in P.facets:                                            # vertical sides
        facets.append(Facet((0,) + ft.normal, ft.offset, ft.tag))
    roof_seen = set()
    for (_, idx) in sub.cells:                                     # one roof per domain
        c, g = f.pieces[idx]
        # t <= R - c - <g, x>, i.e. <(-1, -g), (t, x)> >= c - R, made primitive
        raw = (Fraction(-1),) + tuple(-Fraction(x) for x in g)
        normal = primitive(raw)
        offset = (c - R) * (normal[0] / raw[0])
        if normal not in roof_seen:
            roof_seen.add(normal)
            facets.append(Facet(normal, offset, CREASE))
    vertices = {(Fraction(0),) + v for v in P.vertices}
    for cell, _ in sub.cells:
        for v in cell.vertices:
            vertices.add((R - eval_pl(f, v),) + v)
    verts = tuple(sorted(vertices))
    poly = Polytope(r + 1, r + 1, verts,
                    tuple(sorted(facets, key=lambda ft: (ft.normal, ft.offset))))
    for v in verts:
        if any(dot(ft.normal, v) < ft.offset for ft in poly.facets):
            raise KstabError("lifted polytope failed its own consistency check")
    scale = lcm_denominators([x for v in verts for x in v])
    return LiftedPolytope(P, f, R, poly, scale)
