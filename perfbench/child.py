"""One fresh benchmark process: import kstab from the checkout, set up one
workload, then time its operation once, as a user's fresh CLI process would.

Modes:
  setup  stop after set-up and report the set-up time only
  run    run the operation once, untraced, sampling the machine's speed
  trace  install the layer tracer before set-up, then run the operation once

The last line of standard output is a JSON object; the operation's own
output is captured, checked, and reduced to a digest so that traced and
untraced runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLE_EVERY_S = 0.05


def piece(n: int = 100) -> int:
    """A fixed piece of exact arithmetic, about 1 ms: Fraction sums and
    products and tuple-keyed dict stores, as in kstab's loops.  It calls
    nothing in kstab, so a change to the package cannot change its work."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        q = Fraction(i * 7919 % 1009 + 1, i % 97 + 1)
        acc += q * q - Fraction(1, i)
        table[i % 53, i % 11] = acc.numerator % 1000003
    return len(table)


class SpeedSampler:
    """While active, times piece() from a SIGALRM handler every
    SAMPLE_EVERY_S seconds, so the samples follow the machine's speed while
    the operation runs.  The garbage collector is held off during a sample,
    so that the operation's heap does not enter its time.  spent is the time
    the handler took, to take off the operation's."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def take(self, *signal_args) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        piece()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def import_kstab() -> None:
    sys.path.insert(0, str(SRC))
    import kstab
    import kstab.cli  # noqa: F401  (not imported by the package itself)
    if Path(kstab.__file__).resolve().parent != SRC / "kstab":
        raise ImportError(f"kstab imported from {kstab.__file__}, not from {SRC}")


def digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def timed_op(workload, sample: bool) -> dict:
    errors: list[str] = []
    out = None
    sampler = SpeedSampler()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if sample:
            with sampler:
                out = workload.run()
        else:
            out = workload.run()
    except Exception:
        errors.append(traceback.format_exc())
    wall = time.perf_counter() - t0 - sampler.spent
    cpu = time.process_time() - c0 - sampler.spent
    if sample and not sampler.samples:  # over, or failed, within SAMPLE_EVERY_S
        sampler.take()
    if not errors:
        try:
            errors = workload.check(out)
        except Exception:
            errors.append(traceback.format_exc())
    sample = sum(sampler.samples) / len(sampler.samples) if sampler.samples else None
    return {"wall_s": wall, "cpu_s": cpu, "sample_s": sample, "errors": errors,
            "digest": digest(out)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--trace-out", type=Path, help="span JSON lines (trace mode)")
    args = ap.parse_args()

    import_kstab()
    tracer = None
    if args.mode == "trace":
        import layers
        tracer = layers.install()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode != "setup":
        result["op"] = timed_op(workload, sample=args.mode == "run")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.metrics(tracer)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
