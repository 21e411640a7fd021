#!/usr/bin/env python3
"""Benchmark of the sylow2 library, end to end and layer by layer.

Run from the root of a source tree (the library is imported from ``src/``):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: one client in one thread
issues ops in a closed loop (each starts when the previous one returns) for
at least ``--seconds`` of timed wall, in whole decks (see ``workloads``).
Times are normalised to a reference machine speed (see ``calibrate``).
``--trace 1`` runs a fixed number of decks untraced, then as many again with
spans on every layer, and reports the per-layer metrics.  Inputs come from
``--seed`` and are made outside the timed region; every output is checked
outside it against ``reference``.  The last line of standard output is one
JSON object; the exit code is 1 if any op failed or gave a wrong answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_SPAWNS = 7
MIN_SAMPLES = 100  # leaves at least 10 latency samples above the 90th percentile
MAX_TRACEBACKS = 3


# Machine-speed normalisation.  A shared virtual machine can change speed by
# 20-30% within seconds, with its other tenants' load.  A fixed piece of
# pure-Python work that touches no library code is timed after every
# CAL_CHUNK_S of op time; each op's time is scaled by CAL_REF_S over the mean
# of the calibrations just before and after it, so that the host's speed
# swings cancel and a change in the library's speed does not.  (Wider windows
# of calibrations tracked the swings worse.)  Raw times are reported beside.
CAL_REF_S = 0.004
CAL_CHUNK_S = 0.04
_CAL_P = tuple(range(31, -1, -1))
_CAL_Q = tuple((5 * i + 3) % 32 for i in range(32))


def calibrate() -> float:
    """Seconds taken by the calibration work: permutation products, hashing
    and small string joins, the interpreter work the library also does."""
    t0 = time.perf_counter()
    p, q = _CAL_P, _CAL_Q
    seen = {}
    for _ in range(1000):
        p = tuple(map(p.__getitem__, q))
        seen[hash(p)] = ",".join(map(str, p[:6]))
    return time.perf_counter() - t0


def normalise(times, cal_index, calibrations) -> list[float]:
    """Scale each time by CAL_REF_S over the mean of the calibrations taken
    just before (``calibrations[cal_index[i]]``) and just after it."""
    return [t * 2 * CAL_REF_S / (calibrations[j] + calibrations[j + 1])
            for t, j in zip(times, cal_index)]


class Runner:
    """Runs decks of one workload, timing each op and checking its output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.raw_latencies: list[float] = []
        self.raw_wall = 0.0  # the timed wall: the sum of op times
        self.calibrations: list[float] = []
        self.cal_index: list[int] = []  # per op, the calibration before it
        self.attempted = 0
        self.raised = 0
        self.failed = 0
        self._tracebacks = 0

    def _report(self, what):
        if self._tracebacks < MAX_TRACEBACKS:
            print(f"{self.workload.name}: {what} raised:", file=sys.stderr)
            traceback.print_exc()
        self._tracebacks += 1

    def latencies(self) -> list[float]:
        """Op times, normalised to the calibration reference."""
        return normalise(self.raw_latencies, self.cal_index, self.calibrations)

    def run(self, decks, *, seconds=None, max_decks=None):
        run_op = self.workload.run
        clock = time.perf_counter
        self.calibrations.append(calibrate())
        pending = 0.0  # op time since the last calibration
        for count, deck in enumerate(decks, 1):
            outs = []
            if self.tracer:
                self.tracer.install()
            for op in deck:
                t0 = clock()
                try:
                    out = run_op(op)
                except Exception:  # counted as a failed op; the loop goes on
                    self._report("op")
                    out = _RAISED
                took = clock() - t0
                outs.append(out)
                self.raw_latencies.append(took)
                self.cal_index.append(len(self.calibrations) - 1)
                self.raw_wall += took
                pending += took
                if pending >= CAL_CHUNK_S:
                    self.calibrations.append(calibrate())
                    pending = 0.0
            if self.tracer:
                self.tracer.uninstall()
            self._check(deck, outs)
            if count == max_decks or (seconds is not None and self.raw_wall >= seconds
                                      and len(self.raw_latencies) >= MIN_SAMPLES):
                break
        self.calibrations.append(calibrate())

    def _check(self, deck, outs):
        for op, out in zip(deck, outs):
            self.attempted += 1
            if out is _RAISED:
                self.raised += 1
                self.failed += 1
                continue
            try:
                ok = self.workload.check(op, out)
            except Exception:  # a malformed output is a wrong answer
                self._report("output check")
                ok = False
            self.failed += not ok


_RAISED = object()


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to ``import sylow2`` done,
    normalised (a calibration before and after each spawn) and raw."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import sylow2, sylow2.cli\n"
        "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
    )
    raw, cals = [], [calibrate()]
    for _ in range(SETUP_SPAWNS):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        raw.append((int(done.stdout) - t0) / 1e9)
        cals.append(calibrate())
    return normalise(raw, range(SETUP_SPAWNS), cals), raw


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except FileNotFoundError:  # no git installed
        return None
    return done.stdout.strip() or None


def _src_digest():
    """sha256 over the library's source and extension files, by path."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".so"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, runner):
    import sylow2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "backend": sylow2.BACKEND,
        "sylow2_version": sylow2.__version__,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one thread",
        "ops_attempted": runner.attempted,
        "ops_completed": runner.attempted - runner.raised,
        "ops_failed": runner.failed,
    }


def end_to_end(runner, setup):
    """The end-to-end metrics: (value, unit, note with the raw value)."""
    lat, raw = sorted(runner.latencies()), sorted(runner.raw_latencies)
    n = len(lat)
    wall = sum(lat)
    p90 = _percentile(lat, 90)
    above = sum(1 for v in lat if v > p90)
    setup_s, setup_raw = (statistics.median(v) for v in setup)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": (n / wall, "ops/s",
                      f"{n} ops in {wall:.3f} s; raw {n / runner.raw_wall:.6g}"),
        "op_p50_ms": (_percentile(lat, 50) * 1e3, "ms",
                      f"median of {n} samples; raw {_percentile(raw, 50) * 1e3:.6g}"),
        "op_p90_ms": (p90 * 1e3, "ms",
                      f"{n} samples, {above} above; raw {_percentile(raw, 90) * 1e3:.6g}"),
        "setup_s": (setup_s, "s",
                    f"median of {len(setup[0])} fresh interpreters; raw {setup_raw:.6g}"),
        "peak_rss_mib": (rss_mib, "MiB", "ru_maxrss of this process"),
    }


def main(argv=None) -> int:
    if not (SRC / "sylow2" / "__init__.py").is_file():
        print(f"error: no sylow2 sources at {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sylow2

    if Path(sylow2.__file__).resolve().parent != SRC / "sylow2":
        print(f"error: imported sylow2 from {sylow2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spantrace import Tracer, metric_specs
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](random.Random(args.seed), OUT)
    decks = workload.decks()
    lines = []
    if args.trace:
        untraced = Runner(workload)
        untraced.run(decks, max_decks=workload.trace_decks)
        tracer = Tracer()
        runner = Runner(workload, tracer)
        runner.run(decks, max_decks=workload.trace_decks)
        traced_lat, untraced_lat = runner.latencies(), untraced.latencies()
        overhead = ((sum(traced_lat) / len(traced_lat))
                    / (sum(untraced_lat) / len(untraced_lat)) - 1)
        runner.attempted += untraced.attempted
        runner.raised += untraced.raised
        runner.failed += untraced.failed + workload.final_check()
        tracer.write(OUT / f"{args.workload}-spans")
        values = tracer.metrics(len(traced_lat), overhead)
        metrics = {name: (values[name], unit, "") for name, unit, _ in metric_specs()}
        lines.append(f"traced {len(traced_lat)} ops after {len(untraced_lat)} "
                     f"untraced; {len(tracer.span_name)} spans")
    else:
        setup = measure_setup()
        runner = Runner(workload)
        runner.run(decks, seconds=args.seconds)
        metrics = end_to_end(runner, setup)
        runner.failed += workload.final_check()

    prov = provenance(args, runner)
    fail_ratio = runner.failed / runner.attempted
    for name, (value, unit, note) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        lines.append(f"{name:44} {shown} {unit:6} {note}".rstrip())
    lines.append(f"{'fail_ratio':44} {fail_ratio:>14.6g} {'ratio':6} "
                 f"{runner.failed} failed of {runner.attempted} attempted")
    lines.append(f"calibration: median {statistics.median(runner.calibrations) * 1e3:.4g} ms "
                 f"over {len(runner.calibrations)} (times scaled to {CAL_REF_S * 1e3:g} ms)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        notes = {name: note for name, (_, _, note) in metrics.items() if note}
        json.dump(dict(result, provenance=prov, fail_ratio=fail_ratio, notes=notes,
                       calibrations=runner.calibrations), fh, indent=1)
        fh.write("\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
