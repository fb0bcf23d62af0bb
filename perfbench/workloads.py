"""The kstab benchmark workloads: seeded inputs, set-up, the timed
operation and its exact reference check.

A seed only permutes inputs (grid axis values, polytope vertex order); it
never changes the amount of work.  Every check compares exact outputs with
references frozen in perfbench/refs and is independent of that order.

Calls go through module attributes (``cli.main``, ``polytope.hull_and_facets``)
so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

from kstab import cli, functionals, plfunc, polytope, rootsys

REFS = Path(__file__).resolve().parent / "refs"

# the default pgl3 grid, frozen here so the reference cannot drift with the
# package's defaults: 3 s x 4 n x 5 epsilon x 3 slopes = 180 rows
PGL3_GRID = (("s", ("5", "10", "20")),
             ("n", ("10", "20", "50", "100")),
             ("epsilon", ("1/64", "1/32", "1/16", "1/8", "1/4")),
             ("slope", ("1", "4", "16")))
# the grid one operation scans: 2 (s, n) slices x 5 epsilon x 3 slopes = 30
# rows (18 ok, 12 invalid-epsilon) of the default grid, holding its best row,
# so that an operation takes seconds and a run holds several of them
SCAN_GRID = (("s", ("5", "20")),
             ("n", ("50",)),
             ("epsilon", ("1/64", "1/32", "1/16", "1/8", "1/4")),
             ("slope", ("1", "4", "16")))

# Weyl orbit of (1, 1) in A2: the hexagon
A2_HEXAGON = ((-2, 1), (-1, -1), (-1, 2), (1, -2), (1, 1), (2, -1))
# the shortest progression the series fit accepts (rank + deg H + 4 = 12
# samples), at the instance's required step of 4 and starting from k = 0
ORACLE_PROGRESSION = "0:4:12"
ORACLE_REF = ("oracle_F1: -11007587/182255616\n"
              "oracle_minus_F1: 11007587/182255616\n"
              "closed_form_minus_F1: 11007587/182255616\n"
              "agreement: True\n")

# Weyl orbit of (1, 0, 0) in A3: the tetrahedron; -F1 of the symmetrized crease
# max(0, -1/2 + <(1, 0, 0), x>), equal to the (AD - BC)/C^2 cross-check
A3_MINUS_F1 = Fraction("1818879/2097152")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def grid_rows(csv_text: str, grid) -> str:
    """The CSV restricted to the rows of a grid, in the CSV's order."""
    head, *rows = csv_text.splitlines()
    keep = {axis: {Fraction(v) for v in values} for axis, values in grid}
    names = head.split(",")
    rows = [row for row in rows
            if all(Fraction(value) in keep[name]
                   for name, value in zip(names, row.split(",")) if name in keep)]
    return "\n".join([head] + rows) + "\n"


def check_scan(rc: int, csv_text: str, stdout: str,
               ref_csv: str, ref_stdout: str) -> list[str]:
    """Problems with a pgl3 scan's outputs; rows may come in any order."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    head, *rows = csv_text.splitlines() or [""]
    ref_head, *ref_rows = ref_csv.splitlines()
    if head != ref_head:
        problems.append(f"CSV header {head!r} != {ref_head!r}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} CSV rows, expected {len(ref_rows)}")
    if sorted(rows) != sorted(ref_rows):
        extra = sorted(set(rows) - set(ref_rows))
        missing = sorted(set(ref_rows) - set(rows))
        problems.append(f"CSV rows differ: {len(missing)} missing, {len(extra)} unexpected"
                        + (f"; first missing {missing[0]!r}" if missing else ""))
    if stdout != ref_stdout:
        problems.append("certificate report differs from the reference")
    return problems


class ScanPgl3:
    """`kstab scan --family pgl3` on SCAN_GRID, axis values shuffled.  The
    rows are checked against those of the default grid's frozen CSV, and the
    certificate report against the default grid's, since both share the best
    row."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        axes = []
        for axis, values in SCAN_GRID:
            values = list(values)
            rng.shuffle(values)
            axes.append(f"{axis}={','.join(values)}")
        self.grid = ";".join(axes)
        self.csv_path = workdir / "scan.csv"
        self.ref_csv = grid_rows((REFS / "scan-pgl3.csv").read_text(encoding="utf-8"),
                                 SCAN_GRID)
        self.ref_stdout = (REFS / "scan-pgl3.stdout").read_text(encoding="utf-8")

    def setup(self) -> None:
        pass

    def run(self):
        rc, stdout = _run_cli(["scan", "--family", "pgl3", "--grid", self.grid,
                               "--out", str(self.csv_path)])
        return rc, self.csv_path.read_text(encoding="utf-8"), stdout

    def check(self, out) -> list[str]:
        return check_scan(*out, self.ref_csv, self.ref_stdout)


def check_oracle(rc: int, stdout: str) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if stdout != ORACLE_REF:
        problems.append(f"oracle report {stdout!r} differs from the reference")
    return problems


class OracleA2:
    """`kstab oracle-futaki` on the A2 hexagon with a symmetrized corner
    crease, over the shortest progression; the problem file lists the
    vertices in seeded order."""

    def __init__(self, seed: int, workdir: Path):
        self.vertices = list(A2_HEXAGON)
        random.Random(seed).shuffle(self.vertices)
        self.path = workdir / "a2-hexagon.prob"

    def setup(self) -> None:
        lines = ["[root_system]", "A2", "", "[polytope]"]
        lines += [f"{x} {y}" for x, y in self.vertices]
        lines += ["", "[crease]", "corner = 1 1", "epsilon = 1/4", "slope = 1",
                  "symmetrize = true"]
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(self):
        return _run_cli(["oracle-futaki", "--in", str(self.path),
                         "--progression", ORACLE_PROGRESSION])

    def check(self, out) -> list[str]:
        return check_oracle(*out)


def check_bracket(value) -> list[str]:
    if value != A3_MINUS_F1:
        return [f"-F1 = {value}, expected {A3_MINUS_F1}"]
    return []


class BracketA3:
    """Hull of the A3 tetrahedron, its chamber cut, and the closed-form -F1
    of a 13-piece symmetrized crease, through the library; the seed shuffles
    the vertices."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.rs = rootsys.build_root_system("A3")
        self.orbit = list(rootsys.weyl_orbit(self.rs, (1, 0, 0)))
        random.Random(self.seed).shuffle(self.orbit)
        crease = plfunc.pl_from_pieces(3, [(0, (0, 0, 0)), (Fraction(-1, 2), (1, 0, 0))])
        self.f = plfunc.symmetrize(self.rs, crease)
        if len(self.orbit) != 4 or len(self.f.pieces) != 13:
            raise RuntimeError("A3 instance does not have 4 vertices and 13 pieces")

    def run(self):
        P = polytope.hull_and_facets(self.orbit)
        Pplus = polytope.chamber_intersect(self.rs, P)
        return functionals.futaki_minus_F1(self.rs, Pplus, self.f)

    def check(self, out) -> list[str]:
        return check_bracket(out)


WORKLOADS = {"scan-pgl3": ScanPgl3, "oracle-a2": OracleA2, "bracket-a3": BracketA3}
