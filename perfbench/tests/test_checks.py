"""Reference checks and error accounting of the benchmark."""

import hashlib
import json
import random
import signal
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import child
import run
import workloads
from workloads import (A3_MINUS_F1, ORACLE_REF, PGL3_GRID, REFS, SCAN_GRID,
                       check_bracket, check_oracle, check_scan, grid_rows)

REF_CSV = (REFS / "scan-pgl3.csv").read_text(encoding="utf-8")
REF_STDOUT = (REFS / "scan-pgl3.stdout").read_text(encoding="utf-8")
NOWHERE = Path("unused")  # the constructors only name files under their workdir


def shuffled_csv(seed: int) -> str:
    head, *rows = REF_CSV.splitlines()
    random.Random(seed).shuffle(rows)
    return "\n".join([head] + rows) + "\n"


def test_frozen_scan_reference():
    digest = hashlib.sha256((REFS / "scan-pgl3.csv").read_bytes()).hexdigest()
    assert digest == "1e5999ae248c377bec7e27e239d3992c076c471bcea73d70197aa8005640ef03"
    statuses = Counter(line.split(",")[4] for line in REF_CSV.splitlines()[1:])
    assert statuses == {"ok": 108, "invalid-epsilon": 72}
    assert "'n': Fraction(50, 1), 's': Fraction(20, 1), 'slope': Fraction(16, 1)" in REF_STDOUT


def test_scan_grid_is_a_part_of_the_default_grid_holding_its_best_row():
    assert grid_rows(REF_CSV, PGL3_GRID) == REF_CSV
    head, *rows = grid_rows(REF_CSV, SCAN_GRID).splitlines()
    assert head == REF_CSV.splitlines()[0] and len(rows) == 30
    assert Counter(row.split(",")[4] for row in rows) == {"ok": 18, "invalid-epsilon": 12}
    assert any(row.startswith("20,50,1/16,16,ok,") for row in rows)
    for axis, values in SCAN_GRID:
        assert set(values) <= set(dict(PGL3_GRID)[axis])


def test_scan_check_ignores_row_order():
    assert check_scan(0, REF_CSV, REF_STDOUT, REF_CSV, REF_STDOUT) == []
    assert check_scan(0, shuffled_csv(7), REF_STDOUT, REF_CSV, REF_STDOUT) == []


def test_scan_check_catches_a_corrupted_bracket():
    lines = shuffled_csv(3).splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(",")[4] == "ok")
    cells = lines[i].split(",")
    cells[5] = "1" + cells[5].lstrip("-")
    lines[i] = ",".join(cells)
    problems = check_scan(0, "\n".join(lines) + "\n", REF_STDOUT, REF_CSV, REF_STDOUT)
    assert len(problems) == 1 and "1 missing, 1 unexpected" in problems[0]


def test_scan_check_catches_missing_rows_exit_code_and_report():
    truncated = "\n".join(REF_CSV.splitlines()[:-1]) + "\n"
    problems = check_scan(3, truncated, REF_STDOUT + "x", REF_CSV, REF_STDOUT)
    assert any("exit code 3" in p for p in problems)
    assert any("179 CSV rows" in p for p in problems)
    assert any("report differs" in p for p in problems)
    assert check_scan(0, "", REF_STDOUT, REF_CSV, REF_STDOUT)


def test_oracle_and_bracket_checks():
    assert check_oracle(0, ORACLE_REF) == []
    assert check_oracle(2, ORACLE_REF.replace("True", "False"))
    assert check_bracket(A3_MINUS_F1) == []
    assert check_bracket(A3_MINUS_F1 + Fraction(1, 10 ** 30))


def test_seed_permutes_inputs_but_not_the_work():
    grids = {workloads.ScanPgl3(seed, NOWHERE).grid for seed in range(6)}
    assert len(grids) > 1
    for grid in grids:
        axes = dict(chunk.split("=") for chunk in grid.split(";"))
        assert {a: sorted(v.split(",")) for a, v in axes.items()} == \
            {a: sorted(v) for a, v in SCAN_GRID}
    assert workloads.ScanPgl3(5, NOWHERE).grid == workloads.ScanPgl3(5, NOWHERE).grid
    orders = {tuple(workloads.OracleA2(seed, NOWHERE).vertices) for seed in range(6)}
    assert len(orders) > 1
    assert {frozenset(o) for o in orders} == {frozenset(workloads.A2_HEXAGON)}


def fake_measurement(ops, traced_op=None):
    runs = [{"setup_s": 0.2, "op": op, "peak_rss_mb": 20.0} for op in ops]
    traced = None
    if traced_op is not None:
        traced = {"op": traced_op, "layers": {name: 1 for name in run.layers.METRICS}}
    return {"setups": [{"setup_s": 0.1}, {"setup_s": 0.3}], "runs": runs, "traced": traced}


def op(errors=(), digest="d"):
    return {"wall_s": 2.0, "cpu_s": 1.9, "sample_s": run.SAMPLE_REF_S,
            "errors": list(errors), "digest": digest}


def test_a_corrupted_csv_counts_as_a_failed_operation():
    wl = workloads.ScanPgl3(0, NOWHERE)
    assert wl.check((0, wl.ref_csv, REF_STDOUT)) == []
    corrupted = wl.ref_csv.replace("invalid-epsilon", "ok", 1)
    errors = wl.check((0, corrupted, REF_STDOUT))
    result = run.report("scan-pgl3", 0, fake_measurement([op(), op(errors)]), False)
    assert errors
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert set(result["metrics"]) == {"wall_ref_s", "cpu_ref_s", "setup_s", "peak_rss_mb"}
    assert result["metrics"]["setup_s"]["value"] == 0.2


def test_traced_output_must_match_untraced_output():
    same = run.report("oracle-a2", 0, fake_measurement([op()], op()), True)
    assert same["correct"] and same["attempted"] == 2
    assert set(same["metrics"]) == set(run.layers.METRICS)
    assert same["metrics"]["trace.overhead_pct"]["value"] == 0
    differs = run.report("oracle-a2", 0, fake_measurement([op()], op(digest="e")), True)
    assert not differs["correct"] and differs["failed"] == 0


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == run.layers.METRICS
    e2e = run.report("oracle-a2", 0, fake_measurement([op()]), False)["metrics"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: v["unit"] for name, v in e2e.items()}


def test_times_are_scaled_by_the_speed_samples_then_summarised_by_median():
    ref = run.SAMPLE_REF_S
    # the machine runs at the reference speed, at half of it, and a third faster
    ops = [dict(op(), wall_s=w, cpu_s=w - 0.1, sample_s=k * ref)
           for w, k in ((2.0, 1.0), (3.0, 2.0), (3.2, 0.75))]
    m = fake_measurement(ops)
    metrics = run.report("bracket-a3", 0, m, False)["metrics"]
    # scaled walls: 2.0, 1.5, 4.27
    assert metrics["wall_ref_s"]["value"] == pytest.approx(2.0)
    assert metrics["cpu_ref_s"]["value"] == pytest.approx(1.9)
    traced = run.report("bracket-a3", 0, dict(m, traced=fake_measurement([], op())["traced"]),
                        True)["metrics"]
    assert traced["run.wall_s"]["value"] == 3.0
    assert traced["run.sample_s"]["value"] == pytest.approx(ref)


class BusyFor:
    """A stand-in workload that keeps the processor busy for a while."""

    def __init__(self, seconds):
        self.seconds = seconds

    def run(self):
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            pass
        return "done"

    def check(self, out):
        return [] if out == "done" else [f"output {out!r}"]


def test_speed_sampler_times_the_piece_during_the_operation_and_not_in_it():
    sampled = child.timed_op(BusyFor(0.4), sample=True)
    assert sampled["errors"] == [] and sampled["sample_s"] > 0
    # the handler ran about 8 times, and its time is taken off the operation's
    assert 0.3 < sampled["wall_s"] < 0.4 - 4 * sampled["sample_s"]
    short = child.timed_op(BusyFor(0.001), sample=True)
    assert short["errors"] == [] and short["sample_s"] > 0
    plain = child.timed_op(BusyFor(0.1), sample=False)
    assert plain["sample_s"] is None and plain["wall_s"] >= 0.1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
