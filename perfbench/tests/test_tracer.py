"""The outside-in tracer: namespace rebinding, loud failure, span arithmetic."""

import contextlib
import io
import sys
import types
from fractions import Fraction

import pytest

import kstab
import kstab.cli
from kstab import exact, functionals, integrate, oracle, polytope
from kstab.errors import FitMismatch

import layers
from tracer import TraceError, Tracer


@pytest.fixture
def traced():
    tracer = layers.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrapper_is_rebound_in_every_namespace_that_imported_it(traced):
    wrapped = polytope.vertices_from_halfspaces
    assert wrapped.__wrapped__.__module__ == "kstab.polytope"
    holders = [mod for mod in (kstab, polytope, kstab.plfunc)
               if "vertices_from_halfspaces" in vars(mod)]
    assert len(holders) >= 2
    assert all(mod.vertices_from_halfspaces is wrapped for mod in holders)
    # names imported under `from .integrate import integrate_poly`
    assert functionals.integrate_poly is integrate.integrate_poly is kstab.integrate_poly
    assert kstab.cli.hull_and_facets is polytope.hull_and_facets
    assert exact.MPoly.substitute_affine.__wrapped__ is not None


def test_uninstall_restores_the_originals():
    before = {name: getattr(functionals, name) for name in ("integrate_poly", "average_a")}
    method = vars(exact.MPoly)["substitute_affine"]
    tracer = layers.install()
    assert functionals.integrate_poly is not before["integrate_poly"]
    tracer.uninstall()
    assert {name: getattr(functionals, name) for name in before} == before
    assert vars(exact.MPoly)["substitute_affine"] is method


def test_missing_layer_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(oracle, "fit_series")
    kept = polytope.vertices_from_halfspaces
    with pytest.raises(TraceError, match="fit_series"):
        layers.install()
    assert polytope.vertices_from_halfspaces is kept  # partial install undone
    with pytest.raises(TraceError):
        Tracer("kstab").wrap("kstab.polytope", "no_such_function")
    with pytest.raises(TraceError):
        Tracer("kstab").wrap("kstab.exact", "NoSuchClass.method")


def test_traced_scan_matches_untraced_and_counts_work(tmp_path):
    def scan():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = kstab.cli.main(["scan", "--family", "wonderful-a1", "--grid",
                                 "s=1,2;epsilon=1/8,2;slope=1"])
        return rc, buf.getvalue()

    plain = scan()
    tracer = layers.install()
    try:
        traced_out = scan()
    finally:
        tracer.uninstall()
    assert traced_out == plain and plain[0] == 0
    m = layers.metrics(tracer)
    assert set(m) == set(layers.METRICS) - set(layers.FROM_RUN)
    assert (m["scan.rows"], m["scan.rows_ok"], m["scan.rows_invalid"], m["scan.slices"]) \
        == (4, 2, 2, 2)
    for name in ("polytope.vertices_from_halfspaces.calls", "polytope.halfspace_subsets",
                 "polytope.hull_points", "plfunc.cells_out", "integrate.integrate_simplex.calls",
                 "exact.MPoly.substitute_affine.calls", "functionals.csc_verdict.incl_s",
                 "plfunc.is_w_invariant_pl.incl_s", "cli.main.incl_s",
                 "rootsys.build_root_system.calls"):
        assert m[name] > 0, name
    assert 0 < m["polytope.vertex_yield"] <= 1
    assert 0 < m["functionals.mass_reuse"] <= 1
    assert m["oracle.lattice_points"] == 0
    tracer.dump(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == m["trace.spans"]


def test_lattice_points_and_fit_retries_are_counted(traced):
    from kstab.rootsys import build_root_system
    rs = build_root_system("A1")
    P = polytope.hull_and_facets([(Fraction(-1),), (Fraction(1),)])
    assert oracle.weighted_lattice_sum(rs, P, 3, "one") == 7
    with pytest.raises(FitMismatch):
        oracle.interpolate_univariate([(0, 0), (1, 1), (2, 5)], 1)
    m = layers.metrics(traced)
    assert m["oracle.lattice_points"] == 7
    assert m["oracle.fit_retries"] == 1
    assert m["exact.interpolate_univariate.calls"] == 1


def fake_package(monkeypatch, clock_ticks):
    """pkg.a defines leaf, outer and rec; pkg.b imports leaf by name."""
    a = types.ModuleType("fakepkg.a")

    def leaf():
        return 1

    def outer():
        return a.leaf() + a.leaf()

    def rec(n):
        return 0 if n == 0 else a.rec(n - 1)

    a.leaf, a.outer, a.rec = leaf, outer, rec
    b = types.ModuleType("fakepkg.b")
    b.leaf = leaf
    pkg = types.ModuleType("fakepkg")
    pkg.a, pkg.b = a, b
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    ticks = iter(clock_ticks)
    return a, b, Tracer("fakepkg", clock=lambda: next(ticks))


def test_self_time_subtracts_direct_children(monkeypatch):
    # t0, then outer [1, 10] holding leaf [2, 4] and leaf [5, 6]
    a, b, tracer = fake_package(monkeypatch, [0, 1, 2, 4, 5, 6, 10])
    tracer.wrap("fakepkg.a", "leaf")
    tracer.wrap("fakepkg.a", "outer")
    assert b.leaf is a.leaf  # rebound in the importing module too
    assert a.outer() == 2
    s = tracer.summary()
    assert s["a.outer"] == {"calls": 1, "self_s": 6, "incl_s": 9}
    assert s["a.leaf"] == {"calls": 2, "self_s": 3, "incl_s": 3}


def test_recursive_inclusive_time_counts_the_outermost_call_once(monkeypatch):
    a, _, tracer = fake_package(monkeypatch, [0, 1, 2, 3, 4, 5, 6])
    tracer.wrap("fakepkg.a", "rec")
    assert a.rec(2) == 0
    s = tracer.summary()["a.rec"]
    assert (s["calls"], s["incl_s"], s["self_s"]) == (3, 5, 5)
