"""Exact rational polytopes in ambient dimension <= 3.

Hulls are exact with deterministic (lexicographic) tie-breaking: 2-D
hulls use the monotone chain so that polygons with many vertices (corner
smoothing output) stay cheap, and 3-D hulls test every vertex triple.
Every cell cut (chamber, linearity domain, pairwise intersection) goes
through `clip`, which cuts the vertex set of a polytope by one halfspace
at a time and finds the edges each cut crosses from the vertices' facet
incidences.  `vertices_from_halfspaces`, which solves every square
subsystem, is kept as the independent reference for `validate_vh` and
the tests.  A polytope that is not full-dimensional carries a chart into
the saturated lattice of its direction space, which is exactly the
normalization that the face measure requires.

Facets carry a tag: ``outer`` (inside the boundary of the original
polytope), ``wall`` (inside a chamber wall) or ``crease`` (interior facet
of a subdivision).  Tags are assigned by `chamber_intersect` and by the
subdivision code and are carried through integration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError, ValidationError
from .exact import (Vec, as_vec, det, dot, is_lattice_point, lcm_denominators,
                    primitive, rank, saturated_direction_basis, solve_linear,
                    vscale, vsub)
from .rootsys import RootSystem

OUTER = "outer"
WALL = "wall"
CREASE = "crease"


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]  # primitive, inward-pointing
    offset: Fraction         # <normal, x> >= offset on the polytope
    tag: str = OUTER


@dataclass(frozen=True)
class Polytope:
    ambient: int
    dim: int
    vertices: tuple[Vec, ...]                 # lex-sorted, minimal
    facets: tuple[Facet, ...] = ()            # full-dimensional form only
    # lower-dimensional form: x = chart_anchor + sum_j t_j * chart_basis[j]
    chart_anchor: Vec | None = None
    chart_basis: tuple[tuple[int, ...], ...] = ()
    inner: "Polytope | None" = None           # full-dim polytope in chart coords
    equalities: tuple[tuple[tuple[int, ...], Fraction], ...] = ()

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.ambient


# ---------------------------------------------------------------------------
# construction

def _affine_rank(points: list[Vec]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def _cross2(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross3(u: Vec, v: Vec) -> Vec:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _hull_ring_2d(points: list[Vec]) -> list[Vec]:
    """Counterclockwise ring of hull vertices (monotone chain, exact)."""
    pts = sorted(set(points))
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_from_ring(ring: list[Vec]) -> tuple[Facet, ...]:
    facets = []
    for i, v in enumerate(ring):
        w = ring[(i + 1) % len(ring)]
        e = vsub(w, v)
        n = primitive((-e[1], e[0]))  # interior lies to the left of a ccw edge
        facets.append(Facet(n, dot(n, v)))
    return tuple(sorted(facets, key=lambda f: (f.normal, f.offset)))


def _hull_full_dim(points: list[Vec], ambient: int) -> Polytope:
    if ambient == 1:
        lo = min(points)
        hi = max(points)
        facets = (Facet((1,), lo[0]), Facet((-1,), -hi[0]))
        return Polytope(1, 1, tuple(sorted({lo, hi})),
                        tuple(sorted(facets, key=lambda f: (f.normal, f.offset))))
    if ambient == 2:
        ring = _hull_ring_2d(points)
        return Polytope(2, 2, tuple(sorted(ring)), _facets_from_ring(ring))
    if ambient == 3:
        pts = sorted(set(points))
        facet_set: dict[tuple[tuple[int, ...], Fraction], None] = {}
        for i, j, k in itertools.combinations(range(len(pts)), 3):
            n = _cross3(vsub(pts[j], pts[i]), vsub(pts[k], pts[i]))
            if not any(n):
                continue
            n = primitive(n)
            c = dot(n, pts[i])
            side = [dot(n, p) - c for p in pts]
            if all(s >= 0 for s in side):
                facet_set[(n, c)] = None
            elif all(s <= 0 for s in side):
                facet_set[(tuple(-x for x in n), -c)] = None
        facets = tuple(sorted((Facet(n, c) for (n, c) in facet_set),
                              key=lambda f: (f.normal, f.offset)))
        verts = []
        for p in pts:
            tight = [f.normal for f in facets if dot(f.normal, p) == f.offset]
            if len(tight) >= 3 and rank(tight) == 3:
                verts.append(p)
        return Polytope(3, 3, tuple(sorted(verts)), facets)
    raise KstabError(f"ambient dimension {ambient} not supported (max 3)")


def hull_and_facets(points) -> Polytope:
    """Convex hull with complete facet data; lower-dimensional input gets a
    chart into its affine hull instead of ambient facets."""
    pts = sorted({as_vec(p) for p in points})
    if not pts:
        raise KstabError("hull of an empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise KstabError("points with mixed dimensions")
    adim = _affine_rank(pts)
    if adim == ambient:
        return _hull_full_dim(pts, ambient)
    anchor = pts[0]
    dirs = [vsub(p, anchor) for p in pts[1:]]
    basis = tuple(saturated_direction_basis(dirs, ambient)) if adim else ()
    forms = _hull_equalities(anchor, basis, ambient)
    if adim == 0:
        return Polytope(ambient, 0, (anchor,), chart_anchor=anchor,
                        chart_basis=(), inner=None, equalities=forms)
    coords = []
    for p in pts:
        t = affine_coords(anchor, basis, p)
        if t is None:
            raise KstabError("point drifted off its own affine hull")
        coords.append(t)
    inner = hull_and_facets(coords)
    verts = tuple(sorted(_chart_point(anchor, basis, t) for t in inner.vertices))
    return Polytope(ambient, adim, verts, chart_anchor=anchor,
                    chart_basis=basis, inner=inner, equalities=forms)


def _hull_equalities(anchor: Vec, basis, ambient: int):
    """Primitive linear forms (with offsets) cutting out the affine hull."""
    from .exact import rational_kernel
    if basis:
        forms = rational_kernel(list(basis), ambient)
    else:
        forms = [tuple(Fraction(1 if j == i else 0) for j in range(ambient))
                 for i in range(ambient)]
    out = []
    for f in forms:
        n = primitive(f)
        out.append((n, dot(n, anchor)))
    return tuple(sorted(out))


def polygon_from_ring(ring) -> Polytope:
    """Polytope from vertices already known to be in convex position (2-D).

    The ring may be given clockwise; it is normalized to counterclockwise.
    Strict convexity at every corner is verified.
    """
    pts = [as_vec(p) for p in ring]
    if len(pts) < 3 or len(set(pts)) != len(pts):
        raise KstabError("ring must list at least 3 distinct vertices")
    area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1]
                - pts[(i + 1) % len(pts)][0] * pts[i][1]
                for i in range(len(pts)))
    if area2 == 0:
        raise KstabError("degenerate ring")
    if area2 < 0:
        pts = pts[::-1]
    for i in range(len(pts)):
        if _cross2(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) <= 0:
            raise KstabError(f"ring is not strictly convex at {pts[i]}")
    return Polytope(2, 2, tuple(sorted(pts)), _facets_from_ring(pts))


def ring_of(P: Polytope) -> list[Vec]:
    """Counterclockwise vertex ring of a full-dimensional polygon."""
    if P.ambient != 2 or not P.is_full_dim:
        raise KstabError("ring_of needs a full-dimensional polygon")
    return _hull_ring_2d(list(P.vertices))


# ---------------------------------------------------------------------------
# charts for lower-dimensional polytopes

def affine_coords(anchor: Vec, basis, x) -> tuple[Fraction, ...] | None:
    """Coordinates t with x = anchor + sum t_j basis_j, or None if x is off
    the affine hull."""
    x = as_vec(x)
    diff = vsub(x, anchor)
    k = len(basis)
    if k == 0:
        return () if not any(diff) else None
    ambient = len(anchor)
    rows = [[Fraction(basis[j][i]) for j in range(k)] for i in range(ambient)]
    chosen: list[int] = []
    for i in range(ambient):
        if rank([rows[r] for r in chosen + [i]]) > len(chosen):
            chosen.append(i)
        if len(chosen) == k:
            break
    t = solve_linear([rows[i] for i in chosen], [diff[i] for i in chosen])
    if t is None:
        return None
    for i in range(ambient):
        if sum(rows[i][j] * t[j] for j in range(k)) != diff[i]:
            return None
    return t


def _chart_point(anchor: Vec, basis, t) -> Vec:
    out = list(anchor)
    for j, tj in enumerate(t):
        for i in range(len(out)):
            out[i] += Fraction(tj) * basis[j][i]
    return tuple(out)


# ---------------------------------------------------------------------------
# membership, faces, basic queries

def contains(P: Polytope, x) -> bool:
    x = as_vec(x)
    if P.is_full_dim:
        return all(dot(f.normal, x) >= f.offset for f in P.facets)
    for n, c in P.equalities:
        if dot(n, x) != c:
            return False
    if P.dim == 0:
        return x == P.chart_anchor
    t = affine_coords(P.chart_anchor, P.chart_basis, x)
    return t is not None and contains(P.inner, t)


def facet_vertices(P: Polytope, facet: Facet) -> tuple[Vec, ...]:
    return tuple(v for v in P.vertices if dot(facet.normal, v) == facet.offset)


def facet_polytope(P: Polytope, facet: Facet) -> Polytope:
    """A facet as a lower-dimensional polytope with its lattice chart."""
    verts = facet_vertices(P, facet)
    if not verts:
        raise KstabError("facet with no tight vertices")
    return hull_and_facets(verts)


def edge_directions_at(P: Polytope, v) -> list[tuple[int, ...]]:
    """Primitive directions of the edges leaving a vertex."""
    v = as_vec(v)
    if v not in P.vertices:
        raise KstabError(f"{v} is not a vertex")
    if not P.is_full_dim:
        raise KstabError("edge directions need the full-dimensional form")
    if P.ambient == 1:
        others = [w for w in P.vertices if w != v]
        return [primitive(vsub(w, v)) for w in others]
    tight = [f for f in P.facets if dot(f.normal, v) == f.offset]
    dirs: list[tuple[int, ...]] = []
    if P.ambient == 2:
        for f in tight:
            for w in facet_vertices(P, f):
                if w != v:
                    d = primitive(vsub(w, v))
                    if d not in dirs:
                        dirs.append(d)
    else:
        for f1, f2 in itertools.combinations(tight, 2):
            common = [w for w in facet_vertices(P, f1)
                      if dot(f2.normal, w) == f2.offset]
            others = [w for w in common if w != v]
            if len(common) == 2 and len(others) == 1:
                d = primitive(vsub(others[0], v))
                if d not in dirs:
                    dirs.append(d)
    return sorted(dirs)


def vertices_from_halfspaces(halfspaces, ambient: int) -> list[Vec]:
    """All basic feasible points of a finite halfspace system (exact).

    Brute force over every square subsystem; the reference that `clip`
    is tested against.
    """
    hs = [(tuple(Fraction(x) for x in n), Fraction(c)) for n, c in halfspaces]
    out: set[Vec] = set()
    for combo in itertools.combinations(range(len(hs)), ambient):
        A = [hs[i][0] for i in combo]
        b = [hs[i][1] for i in combo]
        x = solve_linear(A, b)
        if x is None:
            continue
        if all(dot(n, x) >= c for n, c in hs):
            out.add(x)
    return sorted(out)


def tight_sets(P: Polytope) -> dict[Vec, frozenset[int]]:
    """Map each vertex of a full-dimensional P to the indices of the facets
    through it."""
    return {v: frozenset(i for i, f in enumerate(P.facets)
                         if sum(n * x for n, x in zip(f.normal, v)) == f.offset)
            for v in P.vertices}


def clip(P: Polytope, halfspaces) -> list[Vec]:
    """Vertices of P cut by halfspaces <n, x> >= c, lex-sorted; [] if empty.

    P must be full-dimensional.  Each vertex carries the set of constraint
    indices tight at it, starting from P.facets.  A cut keeps the vertices
    on its closed positive side, adding the new index where they are
    tight, and puts a new vertex where it crosses each edge u-w with u
    strictly inside and w strictly outside.  Two vertices u, w form an edge
    exactly when no third vertex's tight set contains T(u) & T(w): the
    face cut out by those constraints then has just u and w as vertices.
    The rule needs no dimension case and stays exact when the result
    flattens to a face.
    """
    if not P.is_full_dim:
        raise KstabError("clip expects a full-dimensional polytope")
    verts = list(tight_sets(P).items())
    for idx, (n, c) in enumerate(halfspaces, start=len(P.facets)):
        side = [dot(n, v) - c for v, _ in verts]
        inside = [(v, T, s) for (v, T), s in zip(verts, side) if s > 0]
        outside = [(v, T, s) for (v, T), s in zip(verts, side) if s < 0]
        kept = [(v, T) for v, T, _ in inside]
        kept += [(v, T | {idx}) for (v, T), s in zip(verts, side) if s == 0]
        for u, Tu, su in inside:
            for w, Tw, sw in outside:
                common = Tu & Tw
                if any(common <= T for x, T in verts if x is not u and x is not w):
                    continue
                t = su / (su - sw)
                kept.append((tuple(a + t * (b - a) for a, b in zip(u, w)),
                             common | {idx}))
        if not kept:
            return []
        verts = kept
    return sorted(v for v, _ in verts)


def dilate(P: Polytope, factor) -> Polytope:
    f = Fraction(factor)
    if f <= 0:
        raise KstabError("dilation factor must be positive")
    if not P.is_full_dim:
        raise KstabError("dilate expects a full-dimensional polytope")
    return Polytope(P.ambient, P.dim,
                    tuple(sorted(vscale(f, v) for v in P.vertices)),
                    tuple(Facet(ft.normal, ft.offset * f, ft.tag) for ft in P.facets))


def lattice_scale(P: Polytope) -> int:
    """Smallest N such that N*P has integral vertices."""
    return lcm_denominators([x for v in P.vertices for x in v])


def validate_vh(P: Polytope) -> None:
    """Cross-validate the vertex and facet representations (full-dim only)."""
    if not P.is_full_dim:
        raise KstabError("validate_vh expects the full-dimensional form")
    for v in P.vertices:
        tight = []
        for f in P.facets:
            val = dot(f.normal, v)
            if val < f.offset:
                raise ValidationError(f"vertex {v} violates facet {f.normal}>= {f.offset}")
            if val == f.offset:
                tight.append(f.normal)
        if rank(tight) < P.dim:
            raise ValidationError(f"vertex {v} is not tight on enough facets")
    recon = vertices_from_halfspaces([(f.normal, f.offset) for f in P.facets], P.ambient)
    if sorted(recon) != sorted(P.vertices):
        raise ValidationError("vertex and halfspace representations disagree")


# ---------------------------------------------------------------------------
# Weyl-equivariant checks and the chamber cut

def is_w_invariant(rs: RootSystem, P: Polytope):
    """True when every simple reflection maps the vertex set onto itself.

    Returns (ok, witness); the witness is an (vertex, generator index) pair.
    """
    vset = set(P.vertices)
    for gi, g in enumerate(rs.generators):
        for v in P.vertices:
            image = tuple(dot(row, v) for row in g)
            if image not in vset:
                return False, (v, gi)
    return True, None


def chamber_intersect(rs: RootSystem, P: Polytope) -> Polytope:
    """P+ = P intersected with the closed positive chamber, facets tagged.

    Every facet of the result lies either in a chamber wall (tag ``wall``)
    or inside the boundary of P (tag ``outer``).
    """
    if P.ambient != rs.rank or not P.is_full_dim:
        raise ValidationError("polytope must be full-dimensional of the root-system rank")
    ok, witness = is_w_invariant(rs, P)
    if not ok:
        raise ValidationError(f"polytope is not Weyl-invariant, witness {witness}")
    if rs.is_toric:
        return P
    verts = clip(P, [(w, 0) for w in rs.wall_normals])
    if not verts or _affine_rank(verts) < P.ambient:
        raise ValidationError("intersection with the positive chamber is degenerate")
    hull = hull_and_facets(verts)
    walls = {w: None for w in rs.wall_normals}
    tagged = []
    for f in hull.facets:
        tag = WALL if (f.offset == 0 and f.normal in walls) else OUTER
        tagged.append(Facet(f.normal, f.offset, tag))
    return Polytope(hull.ambient, hull.dim, hull.vertices,
                    tuple(sorted(tagged, key=lambda f: (f.normal, f.offset))))


def wall_vertex_check(rs: RootSystem, P: Polytope):
    """True when no vertex lies on a supporting hyperplane of the chamber."""
    witnesses = tuple(v for v in P.vertices
                      if any(dot(w, v) == 0 for w in rs.wall_normals))
    return (not witnesses), witnesses


# ---------------------------------------------------------------------------
# smoothness (Delzant) checks

@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    failures: tuple[tuple[Vec, str], ...]  # (vertex, reason)


def is_delzant(P: Polytope) -> DelzantReport:
    """Edge-generator basis test at every vertex of a lattice polytope."""
    bad_lattice = [v for v in P.vertices if not is_lattice_point(v)]
    if bad_lattice:
        raise ValidationError(f"non-lattice vertices: {bad_lattice}")
    if not P.is_full_dim:
        raise ValidationError("Delzant test expects a full-dimensional polytope")
    failures = []
    for v in P.vertices:
        dirs = edge_directions_at(P, v)
        if len(dirs) != P.dim:
            failures.append((v, f"{len(dirs)} edges meet (need {P.dim})"))
            continue
        dval = det(dirs)
        if abs(dval) != 1:
            failures.append((v, f"edge basis determinant {dval}"))
    return DelzantReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# complexes of polytopes

@dataclass(frozen=True)
class ComplexReport:
    valid: bool
    reason: str
    unique_maximal: bool


def intersect_polytopes(A: Polytope, B: Polytope) -> Polytope | None:
    """Exact intersection of two full-dimensional polytopes (None if empty)."""
    verts = clip(A, [(f.normal, f.offset) for f in B.facets])
    if not verts:
        return None
    return hull_and_facets(verts)


def _is_face_of(X: Polytope, P: Polytope) -> bool:
    tight = [f for f in P.facets
             if all(dot(f.normal, v) == f.offset for v in X.vertices)]
    face_verts = {v for v in P.vertices
                  if all(dot(f.normal, v) == f.offset for f in tight)}
    return set(X.vertices) == face_verts


def validate_complex(cells) -> ComplexReport:
    """Check the face-to-face condition pairwise and report irreducibility.

    Cells must be full-dimensional polytopes of a common ambient dimension;
    a full-dimensional pairwise intersection that is not a shared cell
    means overlapping interiors.
    """
    cells = list(cells)
    if not cells:
        raise KstabError("empty complex")
    ambient = cells[0].ambient
    if any(c.ambient != ambient or not c.is_full_dim for c in cells):
        raise KstabError("cells must share ambient dimension and be full-dimensional")
    uniq: list[Polytope] = []
    for c in cells:
        if all(set(c.vertices) != set(u.vertices) for u in uniq):
            uniq.append(c)
    for A, B in itertools.combinations(uniq, 2):
        X = intersect_polytopes(A, B)
        if X is None:
            continue
        if not _is_face_of(X, A) or not _is_face_of(X, B):
            return ComplexReport(False,
                                 f"intersection {list(X.vertices)} is not a face of both cells",
                                 False)
    maximal = [A for A in uniq
               if not any(B is not A and all(contains(B, v) for v in A.vertices)
                          for B in uniq)]
    return ComplexReport(True, "", len(maximal) == 1)


# ---------------------------------------------------------------------------
# Hirzebruch-Jung corner smoothing (2-D)

@dataclass(frozen=True)
class SmoothingResult:
    polytope: Polytope
    scale: int                      # the whole output equals scale * (cut input)
    inserted: tuple[tuple[int, ...], ...]  # primitive normals of the new edges


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hj_rays(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Primitive rays of the minimal smooth subdivision of cone(a, b).

    Both generators must be primitive with det(a, b) > 0.  Each returned
    ray c_i satisfies det(prev, c_i) = 1, so consecutive rays always form
    lattice bases; this is the continued-fraction resolution.
    """
    m = a[0] * b[1] - a[1] * b[0]
    if m <= 0:
        raise KstabError("cone generators must be positively oriented")
    if m == 1:
        return []
    g, s, t = _xgcd(a[0], a[1])
    if g != 1:
        raise KstabError("cone generator is not primitive")
    e = (-t, s)  # det(a, e) = a0*s + a1*t = 1
    alpha = b[0] * e[1] - b[1] * e[0]
    step = -((-alpha) // m)  # ceil(alpha / m)
    c = (e[0] + step * a[0], e[1] + step * a[1])
    return [c] + hj_rays(c, b)


def _line_intersection(n1, c1, n2, c2) -> Vec | None:
    return solve_linear([n1, n2], [c1, c2])


def _strictly_between(p: Vec, a: Vec, b: Vec) -> bool:
    """p strictly inside segment (a, b); p assumed on the line through them."""
    d = vsub(b, a)
    for i in range(len(d)):
        if d[i]:
            t = (p[i] - a[i]) / d[i]
            return 0 < t < 1
    return False


def hj_smooth_corner_2d(P: Polytope, v, delta) -> SmoothingResult:
    """Replace a non-smooth polygon corner by its continued-fraction
    resolution staircase at depth <= delta.

    The inserted edge normals are the rays of the minimal smooth
    subdivision of the corner's inward normal cone.  Cut depths follow a
    strictly concave profile so that every inserted normal supports an
    actual edge (equal depths would degenerate on chains of consecutive
    rays whose fan relation has coefficient 2).  The whole polytope is
    rescaled by the smallest integer making the result a lattice polytope
    again; the factor is reported.
    """
    v = as_vec(v)
    delta = Fraction(delta)
    if delta <= 0:
        raise KstabError("delta must be positive")
    if P.ambient != 2 or not P.is_full_dim:
        raise KstabError("corner smoothing works on full-dimensional polygons")
    if any(not is_lattice_point(w) for w in P.vertices):
        raise ValidationError("corner smoothing expects a lattice polygon")
    ring = _hull_ring_2d(list(P.vertices))
    if v not in ring:
        raise ValidationError(f"{v} is not a vertex")
    i = ring.index(v)
    p, q = ring[i - 1], ring[(i + 1) % len(ring)]
    e1 = vsub(v, p)
    e2 = vsub(q, v)
    n1 = primitive((-e1[1], e1[0]))
    n2 = primitive((-e2[1], e2[0]))
    rays = hj_rays(n1, n2)
    if not rays:
        return SmoothingResult(P, 1, ())
    K = len(rays)
    denom = (K + 1) ** 2
    depths = [delta * 4 * j * (K + 1 - j) / denom for j in range(1, K + 1)]
    lines = [(n1, dot(n1, v))]
    lines += [(c, dot(c, v) + h) for c, h in zip(rays, depths)]
    lines.append((n2, dot(n2, v)))
    chain: list[Vec] = []
    for j in range(len(lines) - 1):
        pt = _line_intersection(lines[j][0], lines[j][1], lines[j + 1][0], lines[j + 1][1])
        if pt is None:
            raise ValidationError("parallel cuts; delta incompatible with this corner")
        chain.append(pt)
    if not _strictly_between(chain[0], p, v) or not _strictly_between(chain[-1], v, q):
        raise ValidationError("delta too large: cuts leave the incident edges")
    new_ring = ring[:i] + chain + ring[i + 1:]
    m = len(new_ring)
    for j in range(m):
        if _cross2(new_ring[j - 1], new_ring[j], new_ring[(j + 1) % m]) <= 0:
            raise ValidationError("delta too large: cuts collide")
    scale = lcm_denominators([x for w in new_ring for x in w])
    scaled = [vscale(scale, w) for w in new_ring]
    return SmoothingResult(polygon_from_ring(scaled), scale, tuple(rays))


def make_delzant_2d(P: Polytope, delta=None) -> SmoothingResult:
    """Smooth every failing corner of a lattice polygon.

    Depths are fixed upfront from the original geometry as
    min(delta, shortest incident edge / 4); lattice lengths are invariant
    under lattice automorphisms, so smoothing a Weyl-invariant polygon
    stays Weyl-invariant.  Cuts at depth <= edge/4 from either end of an
    edge never collide, so corners can be resolved one after another, with
    the compounding rescale factors reported as one total.
    """
    report = is_delzant(P)
    if report.ok:
        return SmoothingResult(P, 1, ())
    ring = _hull_ring_2d(list(P.vertices))
    jobs = []
    for vertex, _ in report.failures:
        i = ring.index(vertex)
        p, q = ring[i - 1], ring[(i + 1) % len(ring)]
        depth = min(_lattice_length(vsub(vertex, p)),
                    _lattice_length(vsub(q, vertex))) / 4
        if delta is not None:
            depth = min(depth, Fraction(delta))
        jobs.append((vertex, depth))
    total_scale = 1
    inserted: list[tuple[int, ...]] = []
    current = P
    for vertex, depth in jobs:
        step = hj_smooth_corner_2d(current, vscale(total_scale, vertex),
                                   depth * total_scale)
        current = step.polytope
        total_scale *= step.scale
        inserted.extend(step.inserted)
    final = is_delzant(current)
    if not final.ok:
        raise KstabError(f"smoothing left non-smooth corners: {final.failures}")
    return SmoothingResult(current, total_scale, tuple(inserted))


def _lattice_length(d: Vec) -> Fraction:
    prim = primitive(d)
    for i in range(len(d)):
        if prim[i]:
            return Fraction(d[i]) / prim[i]
    raise KstabError("zero edge")
