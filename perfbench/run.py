"""formalab benchmark: one command runs a workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a formalab checkout.  Workloads: verify_all,
quotient_pack, hypercentre_stream (see README.md).  Every workload run is a
fresh single-threaded Python process (`worker.py`); processes run one at a
time.

--trace 0 reports the end-to-end metrics.  Each workload is a fixed amount
of work per process (the stream: a fixed number of seeded requests); it
runs again in a fresh process while another run still fits in --seconds,
and the metrics take medians over processes.  setup_s is the median over
at least SETUP_SAMPLES fresh processes.  Every time is scaled to a
reference host speed by the workers' speed probe (`worker.SpeedProbe`);
the raw medians are printed too.

--trace 1 runs the workload once untraced and once with every public
formalab function wrapped, and reports the per-layer metrics of the traced
run plus the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means there is no formalab
source to benchmark, 3 that a worker process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_all", "quotient_pack", "hypercentre_stream")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170          # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = os.getloadavg()[0]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg_1m": load1, "machine": platform.machine()}


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} ran out of time") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    results = []
    # set-up samples before and after the workload, so they span the run
    setups = [spawn(["--setup-only", *base], deadline)
              for _ in range(SETUP_SAMPLES // 2)]
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        results.append(spawn(base, deadline))
        took = time.monotonic() - start
        if time.monotonic() - t0 + took > seconds:
            break
    while len(setups) + len(results) < SETUP_SAMPLES:
        setups.append(spawn(["--setup-only", *base], deadline))
    setups += results
    walls = [r["wall_s"] for r in results]
    latencies = [x for r in results for x in r["latencies_s"]]
    completed = sum(r["attempted"] - r["failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (completed / sum(walls), "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    raw = {"setup_s": statistics.median(r["setup_raw_s"] for r in setups),
           "wall_s": statistics.median(r["wall_raw_s"] for r in results),
           "probe_ms": statistics.median(r["probe_ms"] for r in results)}
    samples = {"setup": len(setups), "processes": len(results),
               "latency": len(latencies), "raw": raw}
    return results, metrics, samples


def run_traced(workload: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    plain = spawn(base, deadline)
    traced = spawn(base + ["--trace"], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["process.cpu_s"] = (plain["cpu_s"], "s")
    metrics["tracing.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    samples = {"processes": 2, "spans": traced["spans"]}
    return [plain, traced], metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "formalab" / "__init__.py").is_file():
        print(f"error: no formalab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    runner = run_traced if args.trace else run_untraced
    try:
        results, metrics, samples = runner(args.workload, args.seed,
                                           args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for why in r["failures"][:5]:
            print(f"FAILED: {why}")
    info = {k: v for r in results for k, v in r["info"].items()}
    print(json.dumps({"samples": samples, "info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>18} {name:<40} {value:>14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "samples": samples,
              "metrics": metrics,
              "processes": [{k: v for k, v in r.items() if k != "latencies_s"}
                            for r in results]}
    (OUT / f"run-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
