"""One benchmark process: set up formalab, run one workload, print a result.

    python3 perfbench/worker.py --workload NAME [--seed N] [--trace]
                                [--setup-only] [--write-golden]

Run from the root of a formalab checkout; formalab is imported from its
`src/`.  The last line of standard output is one JSON object.  `run.py`
starts each worker in a fresh process, with one BLAS thread, so that
set-up, caches and peak RSS belong to one workload run.  `--write-golden`
stores the outputs as the golden files the checks compare against.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"


class SpeedProbe:
    """Times a fixed ~1 ms kernel ten times a second from an interval timer.

    The host's speed drifts by 20-30% over seconds (other tenants share its
    cores), and formalab's times drift with it.  Every time this worker
    reports leaves out the ticks inside it and is scaled by REF_MS over the
    median kernel time around the timed interval, which removes most of that
    drift.  The kernel mixes interpreted arithmetic with numpy fancy indexing
    on a small table, as formalab does; it does not use formalab.
    """

    PERIOD_S = 0.1
    WINDOW_S = 1.0       # ticks this far either side of an interval count
    REF_MS = 0.65        # kernel time on a quiet 2-vCPU x86-64 VM

    def __init__(self):
        import numpy as np
        self.table = (np.arange(4096).reshape(64, 64) * 7 + 3) % 64
        self.starts: list[float] = []     # tick start
        self.times: list[float] = []      # tick end
        self.durations: list[float] = []  # timed kernel call

    def kernel(self) -> int:
        t = a = self.table
        x = 0
        for i in range(150):
            a = t[a[i % 64]]
            x += int(a[0, 0]) + sum(range(20))
        return x

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel()  # warm-up call, so the workload's cache use stays out
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(start)
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def median_ms(self, t0: float, t1: float) -> float:
        """Median kernel time around [t0, t1] (at least the 3 nearest ticks);
        the median ignores a tick that an interrupt happened to hit."""
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), mid + 1
        if lo >= len(self.times):
            self._tick()
            lo = len(self.times) - 1
        return 1000 * statistics.median(self.durations[lo:hi])

    def measure(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] less the ticks inside it, scaled to REF_MS."""
        own = 0.0
        for k in range(bisect.bisect_left(self.times, t0), len(self.times)):
            if self.starts[k] >= t1:
                break
            own += min(self.times[k], t1) - max(self.starts[k], t0)
        return (t1 - t0 - own) * self.REF_MS / self.median_ms(t0, t1)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    probe = SpeedProbe()  # imports numpy, formalab's one dependency
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import formalab
    import formalab.cli  # noqa: F401  (part of the package's set-up cost)
    if not Path(formalab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"formalab imported from {formalab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    formalab.catalog()
    t_setup = time.perf_counter()
    setup = {"setup_raw_s": t_setup - t0, "setup_s": probe.measure(t0, t_setup)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import workloads
    run = workloads.WORKLOADS[args.workload]
    golden_path = GOLDEN / f"{args.workload}.json"
    golden = None
    if not args.write_golden:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    if (args.write_golden and args.workload == "hypercentre_stream"
            and args.seed != workloads.STREAM_SEED):
        ap.error(f"stream golden outputs are for seed {workloads.STREAM_SEED}")
    mark = None
    if tracer is not None:
        def mark(i):
            tracer.current_request = i

    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    outcome = run(args.seed, golden, mark=mark)
    t2 = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    time.sleep(probe.WINDOW_S)  # let ticks after the run land
    probe.stop()

    if args.write_golden:
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(outcome.record, indent=1) + "\n",
                               encoding="utf-8")

    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(tracer),
        **setup, "wall_raw_s": t2 - t1, "wall_s": probe.measure(t1, t2),
        "probe_ms": probe.median_ms(t1, t2), "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures,
        "latencies_s": [probe.measure(s, s + dt) for s, dt in outcome.latencies],
        "info": outcome.info,
    }
    if tracer is not None:
        from tracing import layer_metrics
        OUT.mkdir(exist_ok=True)
        stem = f"trace-{args.workload}-{args.seed}"
        tracer.save(OUT / f"{stem}.npz")
        (OUT / f"{stem}.json").write_text(
            json.dumps(tracer.aggregate(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)  # no tick during shutdown
    sys.exit(code)
