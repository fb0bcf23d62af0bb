"""The kstab layers the traced run wraps, and the per-layer metrics.

Layers are named after the package's modules.  Each metric is listed in
METRICS with its unit; BENCHMARK.json lists the same names.  Which
end-to-end metric each is expected to move, and on which workload, is in
perfbench/README.md.
"""

from __future__ import annotations

from math import comb

from tracer import Tracer

# (module, qualname) of every function that gets a span
SPANS = (
    ("kstab.polytope", "vertices_from_halfspaces"),
    ("kstab.polytope", "hull_and_facets"),
    ("kstab.polytope", "chamber_intersect"),
    ("kstab.plfunc", "subdivision_from_pl"),
    ("kstab.plfunc", "is_w_invariant_pl"),
    ("kstab.integrate", "integrate_poly"),
    ("kstab.integrate", "integrate_simplex"),
    ("kstab.integrate", "triangulate"),
    ("kstab.integrate", "boundary_integral"),
    ("kstab.exact", "MPoly.substitute_affine"),
    ("kstab.exact", "interpolate_univariate"),
    ("kstab.functionals", "average_a"),
    ("kstab.functionals", "stability_bracket"),
    ("kstab.functionals", "csc_verdict"),
    ("kstab.oracle", "weighted_lattice_sum"),
    ("kstab.oracle", "fit_series"),
    ("kstab.scan", "scan_destabilizer"),
    ("kstab.cli", "main"),
    ("kstab.problemfile", "parse_problem"),
    ("kstab.rootsys", "build_root_system"),
)

S, COUNT, RATIO = "s", "count", "ratio"

# name -> (unit, better)
METRICS = {
    "polytope.vertices_from_halfspaces.calls": (COUNT, "lower"),
    "polytope.vertices_from_halfspaces.self_s": (S, "lower"),
    "polytope.halfspace_subsets": (COUNT, "lower"),
    "polytope.vertices_found": (COUNT, "lower"),
    "polytope.vertex_yield": (RATIO, "higher"),
    "polytope.hull_and_facets.calls": (COUNT, "lower"),
    "polytope.hull_and_facets.self_s": (S, "lower"),
    "polytope.hull_points": (COUNT, "lower"),
    "polytope.chamber_intersect.incl_s": (S, "lower"),
    "plfunc.subdivision_from_pl.calls": (COUNT, "lower"),
    "plfunc.subdivision_from_pl.incl_s": (S, "lower"),
    "plfunc.cells_out": (COUNT, "lower"),
    "plfunc.cell_yield": (RATIO, "higher"),
    "plfunc.is_w_invariant_pl.incl_s": (S, "lower"),
    "integrate.integrate_poly.calls": (COUNT, "lower"),
    "integrate.integrate_poly.self_s": (S, "lower"),
    "integrate.integrate_simplex.calls": (COUNT, "lower"),
    "integrate.integrate_simplex.self_s": (S, "lower"),
    "integrate.triangulate.self_s": (S, "lower"),
    "integrate.boundary_integral.incl_s": (S, "lower"),
    "exact.MPoly.substitute_affine.calls": (COUNT, "lower"),
    "exact.MPoly.substitute_affine.self_s": (S, "lower"),
    "exact.interpolate_univariate.calls": (COUNT, "lower"),
    "exact.interpolate_univariate.self_s": (S, "lower"),
    "functionals.average_a.calls": (COUNT, "lower"),
    "functionals.average_a.distinct_inputs": (COUNT, "lower"),
    "functionals.mass_reuse": (RATIO, "higher"),
    "functionals.stability_bracket.calls": (COUNT, "lower"),
    "functionals.stability_bracket.incl_s": (S, "lower"),
    "functionals.csc_verdict.incl_s": (S, "lower"),
    "oracle.weighted_lattice_sum.calls": (COUNT, "lower"),
    "oracle.weighted_lattice_sum.self_s": (S, "lower"),
    "oracle.lattice_points": (COUNT, "lower"),
    "oracle.points_per_s": ("1/s", "higher"),
    "oracle.fit_windows": (COUNT, "lower"),
    "oracle.fit_retries": (COUNT, "lower"),
    "scan.rows": (COUNT, "higher"),
    "scan.rows_ok": (COUNT, "higher"),
    "scan.rows_invalid": (COUNT, "lower"),
    "scan.slices": (COUNT, "higher"),
    "cli.main.incl_s": (S, "lower"),
    "problemfile.parse_problem.self_s": (S, "lower"),
    "rootsys.build_root_system.calls": (COUNT, "lower"),
    "rootsys.build_root_system.self_s": (S, "lower"),
    # the medians of the untraced operations' unscaled wall times and of
    # their speed samples' mean times
    "run.wall_s": (S, "lower"),
    "run.sample_s": (S, "lower"),
    "trace.spans": (COUNT, "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def install() -> Tracer:
    """Wrap every layer function of an imported kstab; raises TraceError if
    any of them is missing."""
    from kstab.errors import FitMismatch

    tracer = Tracer("kstab")
    c = tracer.counters
    masses_seen: set = set()

    def vertices_after(args, kwargs, result):
        halfspaces = args[0] if args else kwargs["halfspaces"]
        ambient = args[1] if len(args) > 1 else kwargs["ambient"]
        c["polytope.halfspace_subsets"] += comb(len(halfspaces), ambient)
        c["polytope.vertices_found"] += len(result)

    def hull_after(args, kwargs, result):
        c["polytope.hull_points"] += len(args[0] if args else kwargs["points"])

    def subdivision_after(args, kwargs, result):
        f = args[1] if len(args) > 1 else kwargs["f"]
        c["plfunc.pieces_tried"] += len(f.pieces)
        c["plfunc.cells_out"] += len(result.cells)

    def average_a_after(args, kwargs, result):
        rs, pplus = args[:2]
        masses_seen.add((rs.label, pplus.vertices, pplus.facets))
        c["functionals.average_a.distinct_inputs"] = len(masses_seen)

    def interpolate_raised(exc):
        if isinstance(exc, FitMismatch):
            c["oracle.fit_retries"] += 1

    def scan_after(args, kwargs, result):
        params = [dict(row.params) for row in result.rows]
        c["scan.rows"] += len(result.rows)
        c["scan.rows_ok"] += sum(row.status == "ok" for row in result.rows)
        c["scan.rows_invalid"] += sum(row.status == "invalid-epsilon" for row in result.rows)
        c["scan.slices"] += len({(p.get("s"), p.get("n")) for p in params})

    hooks = {
        "vertices_from_halfspaces": {"after": vertices_after},
        "hull_and_facets": {"after": hull_after},
        "subdivision_from_pl": {"after": subdivision_after},
        "average_a": {"after": average_a_after},
        "interpolate_univariate": {"on_raise": interpolate_raised},
        "scan_destabilizer": {"after": scan_after},
    }
    try:
        for module, qualname in SPANS:
            tracer.wrap(module, qualname, **hooks.get(qualname, {}))
        tracer.count_yields("kstab.oracle", "lattice_points", "oracle.lattice_points")
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


# the names run.py computes from the untraced processes of a run
FROM_RUN = ("run.wall_s", "run.sample_s", "trace.overhead_pct")


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every name in METRICS but FROM_RUN, computed from the spans and
    counters."""
    spans = tracer.summary()
    c = tracer.counters

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in METRICS:
        if name in FROM_RUN:
            continue
        head, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "incl_s"):
            out[name] = span(head, field)
        else:
            out[name] = c[name]
    out["polytope.vertex_yield"] = ratio(c["polytope.vertices_found"],
                                         c["polytope.halfspace_subsets"])
    out["plfunc.cell_yield"] = ratio(c["plfunc.cells_out"], c["plfunc.pieces_tried"])
    out["functionals.mass_reuse"] = ratio(c["functionals.average_a.distinct_inputs"],
                                          span("functionals.average_a", "calls"))
    out["oracle.points_per_s"] = ratio(c["oracle.lattice_points"],
                                       span("oracle.weighted_lattice_sum", "incl_s"))
    # each FitMismatch inside fit_series moves the fit to a fresh window
    out["oracle.fit_windows"] = span("oracle.fit_series", "calls") + c["oracle.fit_retries"]
    out["trace.spans"] = len(tracer.spans)
    return out
