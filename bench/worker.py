"""One benchmark worker: a fresh interpreter that imports yaxter from the
checkout's ``src``, draws a workload's inputs and runs its ops.

``bench/run.py`` starts it. The worker prints ``ready`` as soon as set-up is
done; with ``--setup-only`` it then exits. Otherwise it runs one untimed
warm-up op, the timed closed loop and the reruns, and prints one JSON summary
line with every op time and the machine-speed probes around them. With
``--trace 1`` the first half of the window runs untraced and the second half
traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_FAILURES_LISTED = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Loop:
    """The closed loop: runs ops in order, times each op and checks its output."""

    def __init__(self, workload, stream, inputs: list):
        self.workload = workload
        self.stream = stream    # continues ``inputs`` if the loop outruns them
        self.inputs = inputs
        self.next = 0
        self.failed: dict[int, str] = {}
        self.outputs: dict[int, object] = {}

    def op(self, tracer=None) -> tuple[int, int]:
        """Run and check the next op; return its CPU time and wall time in ns."""
        if self.next == len(self.inputs):
            self.inputs.append(next(self.stream))
        i, inp = self.next, self.inputs[self.next]
        self.next += 1
        if tracer is not None:
            tracer.begin_op(i)
        start, cpu_start = time.perf_counter_ns(), probe.cpu_ns()
        try:
            out = self.workload.run(inp)
        except Exception:
            problem = traceback.format_exc().strip().splitlines()[-1]
        else:
            problem = None
        elapsed = (probe.cpu_ns() - cpu_start, time.perf_counter_ns() - start)
        if problem is None:
            problem = self.workload.check(inp, out)
            if len(self.outputs) < self.workload.reruns:
                self.outputs[i] = out
        if problem:
            self.fail(i, problem)
        return elapsed

    def window(self, seconds: float, tracer=None) -> dict:
        """Whole rounds until ``seconds`` have passed, with a probe before and
        after every op: ``probes_ns[i]`` and ``probes_ns[i + 1]`` bracket op i,
        whose CPU time is ``times_ns[i]`` and wall time ``wall_ns[i]``."""
        first, times, walls, probes = self.next, [], [], [probe.probe_ns()]
        start = time.perf_counter_ns()
        limit = start + int(seconds * 1e9)
        while time.perf_counter_ns() < limit:
            for _ in range(self.workload.round):
                cpu, wall = self.op(tracer)
                times.append(cpu)
                walls.append(wall)
                probes.append(probe.probe_ns(probe.SHARE * cpu))
        return {"first": first, "times_ns": times, "wall_ns": walls, "probes_ns": probes,
                "window_ns": time.perf_counter_ns() - start}

    def rerun(self) -> None:
        """Run the kept ops again, untimed; their output must repeat exactly."""
        for i, out in self.outputs.items():
            try:
                same = self.workload.run(self.inputs[i]) == out
            except Exception:
                same = False
            if not same:
                self.fail(i, "rerun with the same input gave different output")

    def fail(self, i: int, message: str) -> None:
        print(f"bench: {self.workload.name} op {i} failed: {message}", file=sys.stderr, flush=True)
        self.failed.setdefault(i, message)


def traced_windows(loop: Loop, seconds: float, trace_path: Path) -> dict:
    """Half the time untraced, half traced, and the traced half's metrics."""
    import tracing

    plain = loop.window(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = loop.window(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    checks = []
    for i in range(traced["first"], traced["first"] + len(traced["times_ns"])):
        for name, within, expected in loop.workload.expected_counts(loop.inputs[i]):
            observed = tracer.op_counts(i, name, within)
            checks.append({"op": i, "span": name, "within": within,
                           "expected": expected, "observed": observed})
    mismatches = [c for c in checks if c["observed"] != c["expected"]]
    for c in mismatches[:MAX_FAILURES_LISTED]:
        print(f"bench: span count mismatch {c}", file=sys.stderr)
    for name in tracer.missing:
        print(f"bench: cannot trace {name}: the program does not define it", file=sys.stderr)
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    return {"plain": plain, "traced": traced,
            "layer": tracing.layer_metrics(tracer, len(traced["times_ns"])),
            "count_checks": len(checks), "count_mismatches": len(mismatches),
            "untraced": tracer.missing}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import yaxter
    import yaxter.cli  # noqa: F401  (part of the set-up being measured)

    if not Path(yaxter.__file__).resolve().is_relative_to(SRC):
        print(f"bench: yaxter was imported from {yaxter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    stream = workload.stream(args.seed)
    inputs = list(itertools.islice(stream, workload.input_count(args.seconds)))
    # the CPU clock started with this process, so this is the whole set-up
    print("ready", time.process_time_ns(), flush=True)
    if args.setup_only:
        return 0

    loop = Loop(workload, stream, inputs)
    loop.op()  # warm-up, untimed
    if args.trace:
        trace_path = ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        summary = traced_windows(loop, args.seconds, trace_path)
    else:
        summary = {"plain": loop.window(args.seconds)}
    loop.rerun()
    timed = summary["plain"]
    timed_ops = range(timed["first"], timed["first"] + len(timed["times_ns"]))
    summary["correct_timed_ops"] = len(timed_ops) - sum(i in timed_ops for i in loop.failed)
    summary.update(
        attempted=loop.next,
        failed=len(loop.failed),
        failures=[f"op {i}: {m}" for i, m in sorted(loop.failed.items())][:MAX_FAILURES_LISTED],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
