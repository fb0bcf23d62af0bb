"""Root-system data in fixed lattice coordinates.

Coordinates are fundamental-weight coordinates of the simply connected
group for the A-series, so the closed positive chamber is exactly the set
of points with all coordinates >= 0.  The dimension polynomial h comes
from the Weyl character formula, and the multiplicity polynomial H = h^2
(the dimension of End of an irreducible representation) carries the top
two graded parts H_top, H_sub that weight every integral and lattice sum
in the stability formulas.

The graded parts are always derived from h^2 by a single generating
formula; transcribed polynomials are never trusted, since the relative
normalization of H_top versus H_sub changes the functional values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KstabError, ValidationError
from .exact import MPoly, Vec, as_vec, det, dot, mat_mul, mat_vec

Matrix = tuple[tuple[int, ...], ...]

#: label -> (rank, positive coroot pairing forms, simple reflections)
_A_SERIES: dict[str, tuple[int, list[tuple[int, ...]], list[Matrix]]] = {
    "A1": (1, [(1,)], [((-1,),)]),
    "A2": (2, [(1, 0), (0, 1), (1, 1)],
           [((-1, 0), (1, 1)),
            ((1, 1), (0, -1))]),
    "A3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
           [((-1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, -1, 0), (0, 1, 1)),
            ((1, 0, 0), (0, 1, 1), (0, 0, -1))]),
}


@dataclass(frozen=True)
class RootSystem:
    label: str
    rank: int
    coroot_forms: tuple[tuple[int, ...], ...]  # pairing of lambda with each positive coroot
    rho_pairings: tuple[int, ...]
    generators: tuple[Matrix, ...]
    wall_normals: tuple[tuple[int, ...], ...]
    h: MPoly
    H: MPoly
    H_top: MPoly
    H_sub: MPoly
    d: int
    n: int
    elements: tuple[Matrix, ...]  # the full Weyl group

    @property
    def is_toric(self) -> bool:
        return not self.generators

    def in_chamber(self, point) -> bool:
        """Closed positive chamber membership."""
        pt = as_vec(point)
        return all(dot(w, pt) >= 0 for w in self.wall_normals)


def _close_group(generators: tuple[Matrix, ...], rank: int) -> tuple[Matrix, ...]:
    ident: Matrix = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = tuple(tuple(int(x) for x in row) for row in mat_mul(g, m))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen))


def build_root_system(label: str) -> RootSystem:
    """Construct all derived data for a supported label.

    Labels: "A1", "A2", "A3", and "toric:r" for r in 1..3 (trivial Weyl
    group, the purely toric reduction).
    """
    label = label.strip()
    if label.startswith("toric:"):
        try:
            r = int(label[len("toric:"):])
        except ValueError:
            raise KstabError(f"unsupported root system label {label!r}") from None
        if not 1 <= r <= 3:
            raise KstabError(f"unsupported toric rank {r} (must be 1..3)")
        one = MPoly.const(r, 1)
        return RootSystem(
            label=f"toric:{r}", rank=r, coroot_forms=(), rho_pairings=(),
            generators=(), wall_normals=(), h=one, H=one, H_top=one,
            H_sub=MPoly.zero(r), d=0, n=r,
            elements=(tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r)),))
    if label not in _A_SERIES:
        raise KstabError(f"unsupported root system label {label!r}")
    rank, coroots, gens = _A_SERIES[label]
    rho = [sum(form) for form in coroots]  # rho has all fundamental coordinates 1
    h = MPoly.const(rank, 1)
    for form, rp in zip(coroots, rho):
        h = h * MPoly.affine(Fraction(rp), form) * Fraction(1, rp)
    H = h * h
    d = H.degree()
    H_top = H.homogeneous_part(d)
    H_sub = H.homogeneous_part(d - 1)
    rs = RootSystem(
        label=label, rank=rank,
        coroot_forms=tuple(coroots), rho_pairings=tuple(rho),
        generators=tuple(gens),
        wall_normals=tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)),
        h=h, H=H, H_top=H_top, H_sub=H_sub, d=d, n=rank + d,
        elements=_close_group(tuple(gens), rank))
    _check_root_system(rs)
    return rs


def _check_root_system(rs: RootSystem) -> None:
    """Structural invariants, asserted at build time."""
    if rs.h.evaluate((0,) * rs.rank) != 1:
        raise KstabError("dimension polynomial must be 1 at the origin")
    if rs.h * rs.h != rs.H:
        raise KstabError("H must equal h^2 exactly")
    for g in rs.generators:
        if abs(det(g)) != 1:
            raise KstabError("reflection matrix must be unimodular")
        sq = mat_mul(g, g)
        if any(sq[i][j] != (1 if i == j else 0) for i in range(rs.rank) for j in range(rs.rank)):
            raise KstabError("reflection matrix must be an involution")
    for i in range(rs.rank):
        if not rs.H_top.substitute_zero(i).is_zero:
            raise KstabError("top graded part must vanish on every chamber wall")


def weyl_orbit(rs: RootSystem, point) -> tuple[Vec, ...]:
    """Orbit of a point under the full Weyl group, sorted for determinism."""
    pt = as_vec(point)
    if len(pt) != rs.rank:
        raise KstabError("point has wrong number of coordinates")
    seen = {pt}
    frontier = [pt]
    while frontier:
        nxt = []
        for p in frontier:
            for g in rs.generators:
                q = mat_vec(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen))


def multiplicity_at(rs: RootSystem, lam) -> Fraction:
    """H(lambda) for a point in the closed positive chamber."""
    pt = as_vec(lam)
    if not rs.in_chamber(pt):
        raise ValidationError(f"point {pt} lies outside the closed positive chamber")
    return rs.H.evaluate(pt)
