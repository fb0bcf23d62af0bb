import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import kstab
from kstab.cli import main
from kstab.errors import ParseError
from kstab.problemfile import parse_problem
from kstab.scan import parse_grid, scan_destabilizer


@pytest.fixture
def a1_crease_file(tmp_path):
    path = tmp_path / "a1.prob"
    path.write_text(
        "[root_system]\nA1\n\n[polytope]\n-1\n1\n\n[crease]\n"
        "corner = 1\nepsilon = 1/2\nslope = 1\nsymmetrize = true\n")
    return str(path)


@pytest.fixture
def hexagon_file(tmp_path):
    rc = main(["gen-example", "--family", "wonderful", "--root-system", "A2",
               "--point", "1,1", "--out", str(tmp_path / "hex.prob")])
    assert rc == 0
    return str(tmp_path / "hex.prob")


class TestValidate:
    def test_hexagon_ok_with_delzant_failures(self, hexagon_file, capsys):
        rc = main(["validate", "--in", hexagon_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "w_invariant: True" in out
        assert "wall_vertex_check: True" in out
        assert "delzant: False" in out
        assert "delzant_fail" in out

    def test_invalid_polytope_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("[root_system]\nA1\n\n[polytope]\n-1\n2\n")
        assert main(["validate", "--in", str(path)]) == 2

    def test_parse_error_exit_4(self, tmp_path):
        path = tmp_path / "broken.prob"
        path.write_text("[root_system]\nA1\n[polytope]\nnot-a-number\n")
        assert main(["validate", "--in", str(path)]) == 4


A2_HEXAGON_CREASE = (
    "[root_system]\nA2\n\n[polytope]\n-2 1\n-1 -1\n-1 2\n1 -2\n1 1\n2 -1\n\n"
    "[crease]\ncorner = 1 1\nepsilon = 1/4\nslope = 1\nsymmetrize = true\n")

A2_HEXAGON_FUTAKI_REPORT = (
    "# Futaki invariant of the induced degeneration: minus_F1\n"
    "root_system: A2\n"
    "a: 56/3\n"
    "bracket: 11007587/660602880\n"
    "minus_F1: 11007587/182255616\n"
    "mabuchi_linear_coefficient: 11007587/660602880 x (2*pi)^2\n"
    "roof_R: 1\n"
    "A: 233806679/1761607680\n"
    "B: 90313287/73400320\n"
    "C: 309/2240\n"
    "D: 103/80\n"
    "(AD-BC)/C^2: 11007587/182255616\n"
    "note: certificate test functions are piecewise linear; they stand in for C^1 "
    "potentials by approximation, so a negative value rules out "
    "constant-scalar-curvature metrics in this class\n"
    "VERDICT: non-negative\n")


class TestFutaki:
    def test_a1_crease_report(self, a1_crease_file, capsys):
        rc = main(["futaki", "--in", a1_crease_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "minus_F1: 23/128" in out
        assert "bracket: 23/192" in out
        assert "VERDICT: non-negative" in out

    def test_mabuchi_prefactor(self, a1_crease_file, capsys):
        main(["mabuchi", "--in", a1_crease_file])
        out = capsys.readouterr().out
        assert "(2*pi)^1" in out
        assert "mabuchi_linear_coefficient: 23/192" in out

    def test_a2_hexagon_crease_report_bytes(self, tmp_path, capsys):
        path = tmp_path / "hex.prob"
        path.write_text(A2_HEXAGON_CREASE)
        assert main(["futaki", "--in", str(path)]) == 0
        assert capsys.readouterr().out == A2_HEXAGON_FUTAKI_REPORT


# `kstab hilbert --progression 0:4:12` on A2_HEXAGON_CREASE, frozen from the
# point-by-point lattice sums that the fiber sums replaced
A2_HEXAGON_HILBERT_REPORT = (
    "progression: 0:4:12\n"
    "verified_from: 0\n"
    "d_values: 1 72415 6945375 125180809 1043199237 5567894299 22225431475 72310336085 "
    "202129486889 502552142839 1138341641767 2390108921025\n"
    "fitted_d: 1 113/20 24137/1680 1717/80 6603/320 131/10 2573/480 103/80 309/2240\n"
    "leading_coefficient: 309/2240\n"
    "H_top_mass: 309/2240\n"
    "H_top_boundary_mass[outer]: 103/280\n"
    "w_values: 0 56790 11370730 311260604 3479231302 23294192779 111841278592 425227684835 "
    "1360141679608 3808107419874 9591690456678 22167094811224\n"
    "fitted_w: 0 -13/210 1541/13440 25547/21504 344383/122880 3345073/983040 801563/327680 "
    "11737135/11010048 19436103/73400320 51551063/1761607680\n")


class TestOracleCommand:
    def test_agreement(self, a1_crease_file, capsys):
        rc = main(["oracle-futaki", "--in", a1_crease_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle_minus_F1: 23/128" in out
        assert "agreement: True" in out

    def test_budget_exit_3(self, a1_crease_file, capsys):
        rc = main(["oracle-futaki", "--in", a1_crease_file, "--budget", "3"])
        assert rc == 3

    def test_a2_hexagon_budget_refusal(self, tmp_path):
        # 1233 points at k = 28 exceed the budget, 913 at k = 24 do not;
        # the line is frozen from the point-by-point walker
        path = tmp_path / "hex.prob"
        path.write_text(A2_HEXAGON_CREASE)
        proc = run_cli("oracle-futaki", "--in", str(path), "--progression", "0:4:12",
                       "--budget", "1000")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("budget refusal: lattice enumeration exceeds the budget "
                               "of 1000 points at k=28\n")


class TestDensity:
    def test_nine_rows(self, tmp_path, capsys):
        path = tmp_path / "a1.prob"
        path.write_text("[root_system]\nA1\n\n[polytope]\n-1\n1\n")
        rc = main(["density", "--in", str(path), "--grid", "1/8"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [ln for ln in out.splitlines()
                if "," in ln and not ln.startswith(("point", "#"))]
        assert len(rows) == 9

    def test_signs(self, tmp_path, capsys):
        path = tmp_path / "a1.prob"
        path.write_text("[root_system]\nA1\n\n[polytope]\n-1\n1\n")
        main(["density", "--in", str(path), "--grid", "1/4"])
        out = capsys.readouterr().out
        assert "1,-1" in out  # density 4x-9x^2 is negative at x=1

    # sha256 of stdout, frozen from the bounding-box grid scan that the
    # lattice walker replaced
    @pytest.mark.parametrize("grid,digest", [
        (None, "e2813c0f8089b0d126dd8186dbf38ebc05af676b9a94bb96f1a1767c499fe498"),
        ("1/3", "5610fe821c2c30ee2b58ca5065ead6988a14a59b4cb9753b9c229090248fa5cf"),
    ])
    def test_a2_hexagon_bytes(self, hexagon_file, capsys, grid, digest):
        argv = ["density", "--in", hexagon_file] + (["--grid", grid] if grid else [])
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_pgl3_bytes(self, tmp_path, capsys):
        path = str(tmp_path / "pgl3.prob")
        assert main(["gen-example", "--family", "pgl3", "--out", path]) == 0
        assert main(["density", "--in", path, "--grid", "1/4"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 645
        assert hashlib.sha256(out.encode()).hexdigest() \
            == "3507e223fb8f7f23afe726ec3a4e2c0a1dc979e2b87e4a07cfdb84d9c73b1981"

    def test_budget_exit_3(self, tmp_path):
        path = str(tmp_path / "pgl3.prob")
        assert main(["gen-example", "--family", "pgl3", "--out", path]) == 0
        proc = run_cli("density", "--in", path, "--grid", "1/4", "--budget", "5")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("budget refusal:")


class TestLift:
    def test_a1_lift_report(self, a1_crease_file, capsys):
        rc = main(["lift", "--in", a1_crease_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lattice_scale: 2" in out
        assert "vertices: 6" in out


class TestLemma:
    def test_square_weight_one(self, tmp_path, capsys):
        path = tmp_path / "sq.prob"
        path.write_text("[root_system]\ntoric:2\n\n[polytope]\n0 0\n1 0\n0 1\n1 1\n")
        rc = main(["lemma-check", "--in", str(path), "--weight", "one"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result: OK" in out


class TestHilbert:
    def test_a1_series(self, a1_crease_file, capsys):
        rc = main(["hilbert", "--in", a1_crease_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "leading_coefficient: 1/3" in out
        assert "H_top_mass: 1/3" in out

    def test_a2_hexagon_progression_bytes(self, tmp_path, capsys):
        path = tmp_path / "hex.prob"
        path.write_text(A2_HEXAGON_CREASE)
        assert main(["hilbert", "--in", str(path), "--progression", "0:4:12"]) == 0
        assert capsys.readouterr().out == A2_HEXAGON_HILBERT_REPORT


class TestGenAndScan:
    def test_gen_roundtrips(self, tmp_path):
        out = tmp_path / "d72.prob"
        assert main(["gen-example", "--family", "donaldson72", "--n", "10",
                     "--out", str(out)]) == 0
        prob = parse_problem(out.read_text())
        assert prob.root_system == "toric:2"
        assert len(prob.vertices) == 9

    def test_scan_csv_deterministic(self, tmp_path, capsys):
        grid = "n=20;epsilon=1/32,1/16;slope=1"
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        assert main(["scan", "--family", "donaldson72", "--grid", grid,
                     "--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(["scan", "--family", "donaldson72", "--grid", grid,
                     "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert "nonauthoritative" in out1.read_text().splitlines()[0]

    def test_wonderful_a1_scan_finds_nothing(self, capsys):
        result = scan_destabilizer(
            "wonderful-a1", parse_grid("s=1,2;epsilon=1/8,1/4;slope=1"))
        assert not result.found_certificate
        assert all(r.bracket is None or r.bracket >= 0 for r in result.rows)

    def test_parse_grid(self):
        grid = parse_grid("n=10,20;epsilon=1/64;slope=1,4")
        assert grid["n"] == [F(10), F(20)]
        assert grid["epsilon"] == [F(1, 64)]


A1_PL = "[root_system]\nA1\n\n[polytope]\n-1\n1\n\n[pl_function]\n0 0\n-1/2 1\n"


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr."""
    src = str(Path(kstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "kstab.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestParseExitCodes:
    def assert_parse_error(self, proc, *fragments):
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error:")
        for frag in fragments:
            assert frag in lines[0]

    @pytest.mark.parametrize("point", ["1,x", "1/0,1"])
    def test_bad_point(self, point):
        proc = run_cli("gen-example", "--family", "wonderful", "--point", point)
        self.assert_parse_error(proc, "bad rational")

    def test_bad_grid_value(self):
        proc = run_cli("scan", "--family", "donaldson72", "--grid", "n=10;epsilon=x")
        self.assert_parse_error(proc, "'x'")

    @pytest.mark.parametrize("command", ["futaki", "oracle-futaki", "lift"])
    def test_bad_roof_option(self, tmp_path, command):
        path = tmp_path / "roof.prob"
        path.write_text(A1_PL + "\n[options]\nroof = abc\n")
        self.assert_parse_error(run_cli(command, "--in", str(path)), "'abc'")

    def test_gradient_of_wrong_length(self, tmp_path):
        path = tmp_path / "grad.prob"
        path.write_text(A1_PL + "1 2 3\n")
        self.assert_parse_error(run_cli("futaki", "--in", str(path)), "line 11")

    @pytest.mark.parametrize("spec", ["a:b", "1:2", "-8:2:8", "8:-2:8", "4:0:12", "0:2:0"])
    def test_bad_progression(self, tmp_path, spec):
        path = tmp_path / "a1.prob"
        path.write_text(A1_PL)
        proc = run_cli("hilbert", "--in", str(path), f"--progression={spec}")
        self.assert_parse_error(proc, "bad progression", repr(spec))

    @pytest.mark.parametrize("argv,fragment", [
        (["hilbert", "--in", "{a1}", "--bogus"], "unrecognized arguments: --bogus"),
        (["hilbert", "--in", "{a1}", "--progression", "-8:2:8"], "--progression"),
        (["hilbert", "--in", "{a1}", "--budget", "many"], "--budget"),
        (["hilbert"], "--in"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "command"),
    ], ids=["unknown-flag", "dash-value", "non-integer-budget", "missing-in",
            "unknown-command", "no-command"])
    def test_usage_error(self, tmp_path, argv, fragment):
        path = tmp_path / "a1.prob"
        path.write_text(A1_PL)
        proc = run_cli(*(a.format(a1=path) for a in argv))
        self.assert_parse_error(proc, fragment)

    @pytest.mark.parametrize("argv", [["--help"], ["hilbert", "--help"]])
    def test_help_exits_0(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 0 and "usage: kstab" in proc.stdout
        assert proc.stderr == ""

    def test_grid_chunk_without_value(self):
        proc = run_cli("scan", "--family", "donaldson72", "--grid", "n=10;epsilon")
        self.assert_parse_error(proc, "bad grid chunk 'epsilon'")

    def test_non_integer_n(self):
        proc = run_cli("scan", "--family", "donaldson72",
                       "--grid", "n=21/2;epsilon=1/16;slope=1")
        self.assert_parse_error(proc, "'n'", "21/2")
        with pytest.raises(ParseError):
            scan_destabilizer("pgl3", parse_grid("s=5;n=10,21/2;epsilon=1/16;slope=1"))

    def test_missing_grid_axis(self):
        proc = run_cli("scan", "--family", "donaldson72", "--grid", "n=10;epsilon=1/8")
        self.assert_parse_error(proc, "missing", "'slope'")
        with pytest.raises(ParseError):
            scan_destabilizer("pgl3", parse_grid("s=5;epsilon=1/16;slope=1"))

    @pytest.mark.parametrize("family,spec,axis", [
        ("donaldson72", "n=10;epsilon=1/8;slope=1;bogus=3", "bogus"),
        ("donaldson72", "s=5;n=10;epsilon=1/8;slope=1", "'s'"),
        ("wonderful-a1", "s=1;n=10;epsilon=1/8;slope=1", "'n'"),
    ])
    def test_unknown_grid_axis(self, family, spec, axis):
        self.assert_parse_error(run_cli("scan", "--family", family, "--grid", spec), axis)


class TestRootSystemLabel:
    @pytest.mark.parametrize("label", ["B2", "toric:x", "toric:"])
    def test_unsupported_label_exit_2(self, tmp_path, label):
        path = tmp_path / "label.prob"
        path.write_text(A1_PL.replace("A1", label))
        proc = run_cli("futaki", "--in", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"error: unsupported root system label {label!r}"]
