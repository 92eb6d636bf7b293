"""corona-lab benchmark: one workload per run, in one process.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

Run from the root of a corona-lab checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when no corona-lab source is found.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy loads: steadier on a shared 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI lets this variable override --seed; the benchmark sets seeds itself.
os.environ.pop("CORONA_LAB_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import hostspeed  # noqa: E402

SETUP_REPEATS = 3
#: operations timed both untraced and traced to measure the tracing overhead
OVERHEAD_PAIRS = 10
MB = float(1 << 20)


class Deadline(BaseException):
    """Raised in the running operation when its deadline passes.

    A BaseException, so the program's own ``except Exception`` handlers do
    not swallow it.
    """


def _alarm(signum, frame):
    raise Deadline()


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Times operations under a deadline and checks their outputs."""

    def __init__(self, workload):
        self.w = workload
        self.clock = hostspeed.Clock()
        self.times = []
        self.raw_times = []
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self._seen = {}

    def timed(self, op):
        """Run ``op`` once; returns (reference seconds, raw seconds, result,
        exception or None).  A stopped operation counts at its deadline.
        """
        if os.path.exists(op.out):
            os.remove(op.out)
        op.prepare()
        before = self.clock.reading()
        result = error = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.w.deadline_s)
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - t0
        except Deadline as exc:
            raw, error = self.w.deadline_s, exc
        except Exception as exc:  # a crash is a wrong output, not a benchmark error
            raw, error = time.perf_counter() - t0, exc
        return raw * self.clock.scale(before), raw, result, error

    def attempt(self, op) -> None:
        """Time, account and check one operation of a round."""
        self.attempted += 1
        dt, raw, result, error = self.timed(op)
        self.times.append(dt)
        self.raw_times.append(raw)
        if isinstance(error, Deadline):
            self._account(op, [("stopped", f"deadline {self.w.deadline_s}s")], error)
            return
        if error is not None:
            self._account(op, [("crash", f"{type(error).__name__}: {error}")], None)
            return
        self.out_bytes += os.path.getsize(op.out) if os.path.exists(op.out) else 0
        digest = _digest(op.out)
        if op.key in self._seen:
            first_digest, fails = self._seen[op.key]
            if digest != first_digest:
                fails = fails + [("repeat", "document differs from the first run")]
        else:
            fails = op.check(result)
            self._seen[op.key] = (digest, fails)
        if os.path.exists(op.out):
            os.remove(op.out)
        self._account(op, fails, None)

    def repeat_matches(self, op) -> bool:
        """Run an already-checked op again, untimed; is its document identical?"""
        self.timed(op)
        return _digest(op.out) == self._seen[op.key][0]

    def _account(self, op, fails, stopped) -> None:
        if not fails:
            return
        self.failed += 1
        if op.fault is None or not op.fault(fails, stopped):
            self.wrong.append((op.key, fails))


def _setup(make, seed, workdir, clock):
    """Build the round and warm up; returns (workload, reference seconds,
    raw seconds)."""
    before = clock.reading()
    t0 = time.perf_counter()
    w = make(seed, workdir)
    warm = Runner(w)
    for op in w.warmup:
        warm.timed(op)
    raw = time.perf_counter() - t0
    return w, raw * clock.scale(before), raw


def _overhead_pct(runner, tracer, ops) -> float:
    """Median paired slowdown of traced against untraced runs of the same ops,
    alternating which goes first."""
    ratios = []
    for k, op in enumerate(ops):
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            (tracer.install if traced else tracer.uninstall)()
            pair[traced] = runner.timed(op)[0]
        tracer.uninstall()
        ratios.append(pair[True] / pair[False])
    return 100.0 * (statistics.median(ratios) - 1.0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "corona_lab", "__init__.py")):
        print(f"no corona-lab source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np

    import corona_lab.cli  # noqa: F401
    import tracing
    import workloads

    import_raw = time.perf_counter() - T_START
    clock = hostspeed.Clock()
    import_s = import_raw * clock.scale(clock.reading())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]

    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = [_setup(make, args.seed, workdir, clock) for _ in range(SETUP_REPEATS)]
        w = setups[-1][0]
        rounds = max(1, int(args.seconds // w.round_s))
        runner = Runner(w)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            clean = [op for op in w.ops if op.fault is None][:OVERHEAD_PAIRS]
            overhead = _overhead_pct(runner, tracer, clean)
            tracer.reset()
            tracer.install()

        for _ in range(rounds):
            for op in w.ops:
                runner.attempt(op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer is not None:
            tracer.uninstall()
        if rounds == 1:
            first = next(op for op in w.ops if op.fault is None)
            if not runner.repeat_matches(first):
                runner.wrong.append((first.key, [("repeat", "document differs on a repeat")]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if not os.listdir(parent):
            os.rmdir(parent)

    for key, fails in runner.wrong:
        print(f"WRONG {key}: {fails[:3]}", file=sys.stderr)
    def timings(times, setup):
        times = np.asarray(times)
        return {
            "wall_s": float(times.sum()) / rounds,
            "op_p50_s": float(np.percentile(times, 50)),
            "op_p90_s": float(np.percentile(times, 90)),
            "setup_s": setup,
        }

    raw = timings(runner.raw_times, import_raw + statistics.median(s[2] for s in setups))
    print("raw seconds: " + json.dumps(raw), file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics(overhead)
    else:
        ref = timings(runner.times, import_s + statistics.median(s[1] for s in setups))
        ref.update(peak_rss_mb=peak_rss_mb, out_mb=runner.out_bytes / rounds / MB)
        units = {"peak_rss_mb": "MB", "out_mb": "MB"}
        metrics = {name: {"value": v, "unit": units.get(name, "s")} for name, v in ref.items()}
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
