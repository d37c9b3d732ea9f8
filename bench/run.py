"""yaxter benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {suite,scan,sweep} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/yaxter``. Each run starts
fresh worker interpreters (``bench/worker.py``) with BLAS and OpenMP pinned
to one thread: several that only set up, to time set-up, and one that runs
the workload's closed loop for ``--seconds``. Every interval is timed in CPU
time and scaled to a fixed machine speed with the probe in ``bench/probe.py``.
The second-to-last stdout line is a report (machine, versions, pinning, seed,
op count, tail percentile, raw wall-clock figures, failures). The last line is the result:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_RUNS = 9          # set-up is timed this many times per run; the median is reported
TAIL_BEYOND = 10        # op_tail_ms is the slowest op with at least this many ops beyond it,
TAIL_SHARE = 0.1        # and with at least this share of the ops beyond it
DEADLINE_S = 170.0      # the whole run, set-ups included, ends within this
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    """A worker exited non-zero or without the expected output."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("suite", "scan", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")
    return args


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env.pop("PYTHONPATH", None)
    return env


def time_setup(args, deadline: float) -> tuple[float, float]:
    """Start a set-up-only worker; return its set-up time (scaled s, wall s).
    The worker reports the CPU time it took to get ready, start-up included."""
    before = probe.probe_ns()
    start = time.perf_counter_ns()
    with subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().split()
            wall_ns = time.perf_counter_ns() - start
            proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException:
            proc.kill()
            raise
    if len(ready) != 2 or ready[0] != "ready" or proc.returncode != 0:
        raise WorkerError(f"set-up worker exited with code {proc.returncode}")
    cpu_ns = int(ready[1])
    after = probe.probe_ns(probe.SHARE * cpu_ns)
    return probe.scaled(cpu_ns, before, after) / 1e3, wall_ns / 1e9


def run_worker(args, deadline: float) -> dict:
    """Run the workload in a fresh worker and return its summary."""
    with subprocess.Popen(worker_cmd(args), stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException:
            proc.kill()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise WorkerError(f"worker exited with code {proc.returncode} before finishing")
    return json.loads(lines[-1])


def scaled_ms(window: dict) -> list[float]:
    """Each op's time at reference machine speed, from the probes around it."""
    p = window["probes_ns"]
    return [probe.scaled(t, p[i], p[i + 1]) for i, t in enumerate(window["times_ns"])]


def latency(ms: list[float]) -> dict:
    """Median, and the slowest op that still has TAIL_BEYOND ops and TAIL_SHARE
    of the ops beyond it: never above the 90th percentile, so that a few ops
    slowed by a neighbour's burst of load do not make the tail."""
    ms = sorted(ms)
    n = len(ms)
    beyond = max(TAIL_BEYOND, math.ceil(TAIL_SHARE * n))
    if n > beyond:
        tail, pct = ms[n - beyond - 1], 100.0 * (n - beyond) / n
    else:
        tail, pct = ms[-1], 100.0
    return {"p50_ms": statistics.median(ms), "tail_ms": tail, "tail_percentile": pct, "ops": n}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            versions[lib] = None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "yaxter" / "__init__.py").is_file():
        print(f"bench: no yaxter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [time_setup(args, deadline) for _ in range(SETUP_RUNS)]
        summary = run_worker(args, deadline)
    except (WorkerError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    plain = summary["plain"]
    op_ms = scaled_ms(plain)
    lat = latency(op_ms)
    wall = latency([t / 1e6 for t in plain["wall_ns"]])
    if args.trace:
        traced = latency(scaled_ms(summary["traced"]))
        metrics = dict(summary["layer"])
        metrics["trace.overhead_p50_ms"] = traced["p50_ms"] - lat["p50_ms"]
        metrics["trace.count_mismatches"] = summary["count_mismatches"]
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "ops_per_s": summary["correct_timed_ops"] / (sum(op_ms) / 1e3),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    attempted, failed = summary["attempted"], summary["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "pinning": {name: "1" for name in PINNED},
        "probe_reference_ms": probe.REFERENCE_MS,
        "probe_median_ms": statistics.median(plain["probes_ns"]) / 1e6,
        "ops_timed": lat["ops"], "op_tail_percentile": lat["tail_percentile"],
        "wall": {"setup_s": statistics.median(w for _, w in setups),
                 "op_p50_ms": wall["p50_ms"], "op_tail_ms": wall["tail_ms"],
                 "ops_per_s": summary["correct_timed_ops"] / (plain["window_ns"] / 1e9)},
        "error_rate": failed / attempted, "failures": summary["failures"],
    }
    if args.trace:
        report.update(traced_ops=traced["ops"], traced_op_p50_ms=traced["p50_ms"],
                      count_checks=summary["count_checks"], untraced=summary["untraced"])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
