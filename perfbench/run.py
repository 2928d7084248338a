"""Layered benchmark for ordrank.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (worker.py) as a closed loop with one client.  With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json; set-up
is measured by starting the worker SETUPS times and taking the median time
from process start to the end of its warm-up.  With --trace 1 the worker
wraps the library's layer functions and reports the per-layer metrics,
writing its spans to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (environment, sample
counts, failures) goes to .perfbench_out/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 9
DEADLINE_S = 170  # every run must end within 180 s
BLAS_THREADS = 1  # one thread was the steadier setting; never above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS}


class Worker:
    """One worker process, killed if the run overstays its deadline."""

    def __init__(self, argv, env, deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> float:
        """Seconds from process start to the end of set-up."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        return time.perf_counter() - self.start

    def finish(self, command: str) -> str:
        out, _ = self.proc.communicate(command + "\n")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    for needed in ("src/ordrank/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--root", str(ROOT), "--workdir", str(workdir),
            "--spans", str(out_dir / f"spans-{tag}.csv")]
    setups = []
    starts = 1 if args.trace else SETUPS
    try:
        for i in range(starts):
            worker = Worker(argv, env, deadline)
            try:
                setups.append(worker.ready())
                out = worker.finish("go" if i == starts - 1 else "stop")
            finally:
                worker.close()
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        return fail("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": {**environment(args.seed), **result.pop("env")},
              "setups_s": setups, **result, "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")
    env_line = " ".join(f"{k}={v}" for k, v in record["env"].items())
    print(f"# {args.workload} trace={args.trace} {env_line}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_ratio {failed / attempted:.4f} ({failed}/{attempted} ops failed)")
    for line in result.get("failures", []):
        print(f"#   {line}")
    if args.trace:
        print(f"# samples: {metrics['bench.traced_ops']} traced ops of {attempted}; "
              f"{result['spans']} spans written, {result['spans_dropped']} not stored")
    else:
        print(f"# samples: {attempted} ops, {result['beyond_p90']} beyond p90; "
              f"set-up runs: {', '.join(f'{s:.3f}' for s in setups)} s")
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
