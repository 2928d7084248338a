"""One workload in one fresh process; started by run.py, not by hand.

Protocol on stdin/stdout: after set-up (imports, first input, warm-up) the
worker prints READY and waits for a line.  "stop" ends it; "go" starts the
measurement, which ends with one line `RESULT <json>`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import layers
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, CliCommands

MIN_OPS = 100  # >= 10 samples beyond p90
SERIES = ("H8", "H10", "H12", "cells100", "cells200", "cells400",
          "states_lt512", "states_512to1535", "states_ge1536")
CLI_REPEATS = 7


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Loop:
    """Closed loop with one client: the next op starts when the last ends.

    Only the op itself is timed; input generation and checks run between
    ops.  `go` stops once `seconds` of op time and MIN_OPS ops are done, or
    `ops` ops when a count is given, or at the wall-clock cap.
    """

    def __init__(self, workload, run, stream):
        self.workload = workload
        self.run = run
        self.stream = stream
        self.busy = 0.0
        self.rss_mb = None
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.series: dict[str, list[float]] = defaultdict(list)

    def finished(self, seconds: float, ops: int | None = None) -> bool:
        if ops is not None:
            return len(self.latencies) >= ops
        return self.busy >= seconds and len(self.latencies) >= MIN_OPS

    def go(self, seconds: float, wall_cap: float, ops: int | None = None) -> None:
        start = time.perf_counter()
        while not self.finished(seconds, ops) and time.perf_counter() - start < wall_cap:
            self.step()

    def step(self) -> None:
        """Run, time and check one op."""
        done = len(self.latencies)
        inp = next(self.stream)
        t0 = time.perf_counter()
        try:
            out, error = self.run(inp), None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        elapsed = time.perf_counter() - t0
        self.busy += elapsed
        self.latencies.append(elapsed)
        if error is None:
            try:
                self.workload.check(inp, out)
            except (CheckFailed, IndexError, KeyError, TypeError, ValueError) as exc:
                error = exc
        if error is None:
            self.series[self.workload.series(inp, out)].append(elapsed)
        else:
            self.failures.append(f"op {done}: {type(error).__name__}: {error}")
        if done + 1 == MIN_OPS:
            self.rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seconds: float, stream) -> dict:
    loop = Loop(workload, workload.run, stream)
    loop.go(seconds, wall_cap=2 * seconds + 20)
    lat = loop.latencies
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "attempted": len(lat),
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        "beyond_p90": sum(x > p90 for x in lat),
        "metrics": {
            "ops_per_s": len(lat) / loop.busy,
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * p90,
            # taken after the first MIN_OPS ops, so that it covers the same
            # work however fast the ops run: the library's caches grow with
            # every op, and a faster program would otherwise read as fatter
            "peak_rss_mb": loop.rss_mb or peak_rss_mb(),
        },
    }


def _median_ms(argv, env, cwd) -> float:
    times = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _import_ms(env, cwd) -> float:
    code = ("import time; t = time.perf_counter(); import ordrank.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(CLI_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                             stdout=subprocess.PIPE, check=True, timeout=60)
        times.append(float(out.stdout))
    return 1e3 * statistics.median(times)


def traced(workload, seconds: float, stream, spans_path: str) -> dict:
    """Traced ops alternate with untraced ops of a second stream until the
    two together have run for `seconds`.  The streams follow the same
    schedule of size classes but share no inputs, so no cache filled by one
    serves the other, and alternating them op by op exposes both to the same
    machine noise."""
    tracer = Tracer()
    loop = Loop(workload, lambda inp: tracer.call("op", workload.run, (inp,), {}), stream)
    plain = Loop(workload, workload.run, workload.stream("ops-untraced"))
    start = time.perf_counter()
    while ((loop.busy + plain.busy < seconds or len(loop.latencies) < MIN_OPS)
           and time.perf_counter() - start < 1.5 * seconds + 10):
        tracer.op_id = len(loop.latencies)
        layers.install(tracer)
        try:
            loop.step()
        finally:
            tracer.uninstall()
        plain.step()
    tracer.write_spans(spans_path)
    silent = [n for n in workload.expected_calls if tracer.calls.get(n, 0) == 0]
    if silent:
        raise RuntimeError(f"{workload.name}: no calls recorded for {silent}; "
                           "was a library function renamed?")

    metrics = layers.metrics(tracer)
    for key in SERIES:
        samples = plain.series.get(key)
        metrics[f"series.{key}.op_p50_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
    loops = [loop, plain]
    cli_ms = {"interpreter_ms": 0.0, "import_ms": 0.0, "process_ms": 0.0}
    if isinstance(workload, CliCommands):
        env, cwd = workload.env, workload.root
        cli_ms["interpreter_ms"] = _median_ms([sys.executable, "-c", "pass"], env, cwd)
        cli_ms["import_ms"] = _import_ms(env, cwd)
        procs = Loop(workload, workload.run_process, workload.stream("ops-process"))
        procs.go(seconds, wall_cap=seconds, ops=2 * len(workload.KINDS))
        loops.append(procs)
        cli_ms["process_ms"] = 1e3 * statistics.median(procs.latencies)
    for key, value in cli_ms.items():
        metrics[f"cli.{key}"] = value
    attempted = sum(len(x.latencies) for x in loops)
    failures = [f for x in loops for f in x.failures]
    metrics["bench.trace_overhead_ratio"] = loop.busy / plain.busy
    metrics["bench.traced_ops"] = len(loop.latencies)
    metrics["bench.fail_ratio"] = len(failures) / attempted
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "spans": len(tracer.s_id),
        "spans_dropped": tracer.dropped,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    oracles = load_oracles(args.root)
    workload = WORKLOADS[args.workload](args.root, args.seed, oracles, args.workdir)
    workload.warm_up()
    stream = workload.stream("ops")
    stream = itertools.chain([next(stream)], stream)  # first input made in set-up
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = traced(workload, args.seconds, stream, args.spans)
    else:
        result = end_to_end(workload, args.seconds, stream)
    result["env"] = {"python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy")}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
