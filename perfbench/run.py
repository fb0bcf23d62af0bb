"""kstab benchmark runner.

    python3 perfbench/run.py --workload scan-pgl3 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports kstab from its src/
directory; without one it exits with code 2.  Every process it starts is a
fresh single-threaded interpreter, run one after the other, as a user's CLI
invocations would be:

  * SETUP_SAMPLES processes (perfbench/child.py) that only set the workload up;
  * processes (perfbench/child.py) that each set up and run the operation
    once, checked against the exact references, until their operations add
    up to --seconds and there are at least MIN_OPS of them;
  * with --trace 1, one more process that runs the operation once with the
    layer tracer installed.  Its outputs must be byte-identical to the
    untraced ones, and its wall time against the untraced median gives the
    tracing overhead.

The machine is a share of a busy host whose speed wanders by tens of per
cent from minute to minute.  So while an operation runs, its process times a
fixed piece of arithmetic every 50 ms (child.SpeedSampler); the operation's
wall and CPU time, less the samples' own, is scaled by SAMPLE_REF_S over the
samples' mean time to the time it would take at the reference speed, and
wall_ref_s and cpu_ref_s are the medians of the scaled times over the run's
operations.  setup_s is the median over all untraced processes, scaled the
same way by the median of the operations' samples, since the set-up
processes run within seconds of them; peak_rss_mb is the largest peak of an
operation's process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (perfbench/layers.py) with --trace 1.  attempted and failed
count operations, so failed/attempted is the error rate; an operation fails
when it raises, exits non-zero, or differs from its reference.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-pgl3", "oracle-a2", "bracket-a3")
SETUP_SAMPLES = 7
MIN_OPS = 3
# child.piece()'s mean time in an operation's process on the machine the
# benchmark was defined on, at its quiet speed (2 vCPUs of an Intel Xeon
# host, Python 3.11.7)
SAMPLE_REF_S = 0.0010
RUN_LIMIT_S = 170  # the whole run must end within 180 s

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, workdir: Path, deadline: float,
          trace_out: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for the {mode} process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded the run's time limit")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    # compile once so that every set-up sample loads the same bytecode
    compileall.compile_dir(str(ROOT / "src" / "kstab"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [spawn(workload, seed, "setup", workdir, deadline)
                  for _ in range(SETUP_SAMPLES)]
        runs = [spawn(workload, seed, "run", workdir, deadline)]
        # keep 1.5 operations' time in hand for the next one (and the traced one)
        reserve = (2 if trace else 1) * 1.5
        while ((len(runs) < MIN_OPS or sum(r["op"]["wall_s"] for r in runs) < seconds)
               and deadline - time.monotonic() > reserve * runs[-1]["op"]["wall_s"]):
            runs.append(spawn(workload, seed, "run", workdir, deadline))
        traced = None
        if trace:
            traced = spawn(workload, seed, "trace", workdir, deadline,
                           trace_out=out_dir / f"trace-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "runs": runs, "traced": traced}


def report(workload: str, seed: int, m: dict, trace: bool) -> dict:
    ops = [r["op"] for r in m["runs"]]
    all_ops = ops + ([m["traced"]["op"]] if trace else [])
    failed = sum(bool(op["errors"]) for op in all_ops)
    for op in all_ops:
        for problem in op["errors"]:
            print(f"{workload}: {problem}", file=sys.stderr)
    identical = len({op["digest"] for op in all_ops}) == 1
    if not identical:
        print(f"{workload}: outputs differ between processes", file=sys.stderr)
    walls = [op["wall_s"] for op in ops]
    samples = [op["sample_s"] for op in ops]
    wall_ref = statistics.median(op["wall_s"] * SAMPLE_REF_S / op["sample_s"] for op in ops)
    cpu_ref = statistics.median(op["cpu_s"] * SAMPLE_REF_S / op["sample_s"] for op in ops)
    setups = [c["setup_s"] for c in m["setups"] + m["runs"]]
    setup_ref = statistics.median(setups) * SAMPLE_REF_S / statistics.median(samples)
    print(f"{workload} seed={seed}: {len(ops)} op(s), wall_ref_s {wall_ref:.3f}, "
          f"cpu_ref_s {cpu_ref:.3f}; wall_s min {min(walls):.3f}, median "
          f"{statistics.median(walls):.3f}, max {max(walls):.3f}; sample_s min "
          f"{min(samples):.6f}, median {statistics.median(samples):.6f}, max "
          f"{max(samples):.6f}; setup_s {setup_ref:.3f}, unscaled median "
          f"{statistics.median(setups):.3f} of {len(setups)}; "
          f"error_rate {failed}/{len(all_ops)}")
    if trace:
        values = dict(m["traced"]["layers"], **{
            "run.wall_s": statistics.median(walls),
            "run.sample_s": statistics.median(samples),
            "trace.overhead_pct":
                100 * (m["traced"]["op"]["wall_s"] / statistics.median(walls) - 1)})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.METRICS.items()}
    else:
        metrics = {
            "wall_ref_s": {"value": wall_ref, "unit": "s"},
            "cpu_ref_s": {"value": cpu_ref, "unit": "s"},
            "setup_s": {"value": setup_ref, "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in m["runs"]),
                            "unit": "MB"},
        }
    return {"correct": failed == 0 and identical, "attempted": len(all_ops),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kstab" / "__init__.py").is_file():
        print(f"no kstab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
