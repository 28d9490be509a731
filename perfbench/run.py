"""eigenprod benchmark: one command, named workloads, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rev-cold --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The line before it holds the environment, the per-run results
digest and the failure details.  See perfbench/README.md for the design.
"""

from __future__ import annotations

import os

# Pin every BLAS pool before numpy can be imported: thread counts change both
# speed and, measurably, the bits of rev-torus bases.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
# Time of the reference kernel on this benchmark's 2-core host when no
# co-tenant load slows it.  Reported times are calibrated: wall time scaled
# by REF_NOMINAL_S over the kernel's timings around it (see Speedometer).
REF_NOMINAL_S = 0.006
SPEED_INTERVAL_S = 1.0
SPEED_WINDOW = 5  # timings in the running median that smooths them
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import eigenprod.cli"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rev-cold", "cli-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh():
    """Import the package in a fresh interpreter, as every CLI call does first."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                   capture_output=True, timeout=120, check=True)


def environment(seed):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": blas_runtime_threads(numpy),
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def blas_runtime_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def reference_kernel(n=24, sweeps=2):
    """Fixed work owned by the benchmark, not by eigenprod: Jacobi-style
    Givens rotations with small numpy row and column updates, the kind of
    work that dominates eigenprod's eigensolves."""
    import numpy

    a = numpy.cos(numpy.arange(n * n, dtype=float).reshape(n, n))
    a = a + a.T
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = cos * rp - sin * rq, sin * rp + cos * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = cos * cp - sin * cq, sin * cp + cos * cq


def reference_seconds():
    """Median of three timings of the reference kernel: how fast the shared
    host runs this process right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Samples the host's speed while the benchmark runs.

    Every SPEED_INTERVAL_S a SIGALRM handler, which Python runs between the
    program's bytecodes, times the reference kernel.  ``now`` reads a wall
    clock that leaves the kernel's own time out, and ``calibrate`` turns
    spans of that clock into seconds at the host's unloaded speed, second
    by second, so an op during which co-tenant load comes or goes is
    calibrated by the speeds it actually ran at.
    """

    def __init__(self, timer=time.perf_counter):
        self.samples = []  # (position on the clock of now(), reference timing)
        self._timer = timer
        self._paused = 0.0  # time spent in the kernel so far
        self._busy = False  # a handler that lands inside now() skips its turn

    def _sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        position = self.now()
        start = self._timer()
        timing = reference_seconds()
        self._paused += self._timer() - start
        self.samples.append((position, timing))
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        """Wall seconds, less the time spent timing the kernel."""
        busy, self._busy = self._busy, True
        position = self._timer() - self._paused
        self._busy = busy
        return position

    def calibrate(self, spans):
        """Calibrated seconds of each (start, end) span of ``now``.

        Each timing is replaced by the running median of SPEED_WINDOW
        timings centred on it, which drops a timing that was itself
        disturbed but keeps the steps of co-tenant load; the speed it gives
        holds from its sample to the next (the first also before it)."""
        samples = list(self.samples)  # the handler may append meanwhile
        timings = [timing for _position, timing in samples]
        half = SPEED_WINDOW // 2
        factors = [REF_NOMINAL_S / statistics.median(timings[max(0, i - half):i + half + 1])
                   for i in range(len(timings))]
        positions = [position for position, _timing in samples]
        out = []
        for start, end in spans:
            i = max(bisect.bisect_right(positions, start) - 1, 0)
            total, t = 0.0, start
            while t < end:
                upto = min(positions[i + 1], end) if i + 1 < len(positions) else end
                total += (upto - t) * factors[i]
                t, i = upto, i + 1
            out.append(total)
        return out


class Run:
    """Outcome bookkeeping of one measured run."""

    def __init__(self):
        self.spans = []  # (start, end) of every attempted op on the run's clock
        self.ok = []  # per op: passed every check
        self.correct = True  # no op that reported success returned a wrong output
        self.failures = []
        self.digest = hashlib.sha256()

    @property
    def durations(self):
        return [end - start for start, end in self.spans]

    def record(self, index, span, record, problem, wrong=False):
        self.spans.append(span)
        self.ok.append(problem is None)
        if problem is not None:
            self.failures.append(f"op {index}: {problem}")
        if wrong:
            self.correct = False
        line = json.dumps([index, record, problem], sort_keys=True, default=repr)
        self.digest.update(line.encode("utf-8") + b"\n")

    def summary(self):
        passed = [d for d, ok in zip(self.durations, self.ok) if ok]
        return {"attempted": len(self.durations), "failed": self.ok.count(False),
                "latency_samples": len(passed),
                "fail_ratio": self.ok.count(False) / max(len(self.durations), 1),
                "results_digest": self.digest.hexdigest(),
                "failures": self.failures[:10]}


def run_one(workload, state, op, key, index, run, clock, call=None):
    """Time one op on ``clock``, check it and record the outcome in ``run``."""
    start = clock()
    try:
        raw = (call or (lambda: workload.execute(state, op, key)))()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        raw, error = None, f"{type(exc).__name__}: {exc}"
    span = (start, clock())
    if error is not None:
        run.record(index, span, {"error": error.split(":")[0]}, error)
        return
    try:
        record, problem, wrong = workload.check(state, op, key, raw)
    except Exception as exc:  # the program reported success but its output is unreadable
        record, problem, wrong = {"check_error": type(exc).__name__}, f"check: {exc!r}", True
    run.record(index, span, record, problem, wrong)


def percentile(values, q):
    """Interpolated percentile (inclusive method); the value itself for n=1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(run, durations=None):
    return sum(run.ok) / sum(run.durations if durations is None else durations)


def measure(workload, state, ops, seconds, speed):
    """Closed loop, one client: the next op starts when the last one ends.
    The loop stops at the first pass boundary after ``seconds`` (at least
    one op), so every run holds whole passes over the workload's strata."""
    run = Run()
    start = time.perf_counter()
    turn = None
    for index, op in enumerate(ops):
        if op["turn"] != turn and index and time.perf_counter() - start >= seconds:
            break
        turn = op["turn"]
        run_one(workload, state, op, str(index), index, run, speed.now)
    calibrated = speed.calibrate(run.spans)
    passed = [d for d, ok in zip(calibrated, run.ok) if ok] or calibrated
    raw = [d for d, ok in zip(run.durations, run.ok) if ok] or run.durations
    timings = [timing for _position, timing in speed.samples]
    metrics = {
        "ops_per_s": (throughput(run, calibrated), "1/s"),
        "op_s.p50": (statistics.median(passed), "s"),
        "op_s.p90": (percentile(passed, 90), "s"),
        "success_ratio": (sum(run.ok) / len(run.ok), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    uncalibrated = {"ops_per_s": throughput(run), "op_s.p50": statistics.median(raw),
                    "op_s.p90": percentile(raw, 90),
                    "reference_s": [min(timings), statistics.median(timings), max(timings)]}
    return run, metrics, uncalibrated


def measure_traced(workload, state, ops, seconds, trace_path):
    """A fixed, seed-determined op list; each op runs plain, then traced, so
    the two throughputs give the tracing overhead."""
    import tracing

    n_ops = max(1, int(seconds / workload.trace_op_seconds))
    tracer = tracing.Tracer()
    plain, traced = Run(), Run()
    for index in range(n_ops):
        op = next(ops)
        run_one(workload, state, op, f"{index}p", index, plain, time.perf_counter)
        run_one(workload, state, op, f"{index}t", index, traced, time.perf_counter,
                call=lambda: tracer.run_op(index, lambda: workload.execute(
                    state, op, f"{index}t")))
    tracer.dump(trace_path)
    metrics = tracing.layer_metrics(tracer.spans, n_ops)
    plain_rate, traced_rate = throughput(plain), throughput(traced)
    metrics["trace.ops_per_s.plain"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s.traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate - 1.0, "ratio")
    extra = {"spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
             "plain_digest": plain.summary()["results_digest"],
             "plain_failed": plain.summary()["failed"]}
    return traced, plain, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigenprod" / "__init__.py").is_file():
        print(f"error: no eigenprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import eigenprod.cli  # noqa: F401  (the import cost users pay first)
    first_import_s = time.perf_counter() - started
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Calibration runs through set-up and the timed phase of untraced
        # runs; traced runs keep plain wall time, so no kernel lands in a span.
        with Speedometer() if not args.trace else contextlib.nullcontext() as speed:
            clock = speed.now if speed else time.perf_counter
            setup_spans = []
            for rep in range(1 if args.trace else SETUP_REPS):
                start = clock()
                import_fresh()
                state = workload.setup(work / f"setup{rep}")
                setup_spans.append((start, clock()))
            setup_reps = [end - start for start, end in setup_spans]
            ops = workload.ops(args.seed)
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
                run, plain, metrics, extra = measure_traced(
                    workload, state, ops, args.seconds, trace_path)
                attempted = len(run.durations) + len(plain.durations)
                failed = run.summary()["failed"] + plain.summary()["failed"]
                correct = run.correct and plain.correct
            else:
                run, metrics, uncalibrated = measure(workload, state, ops, args.seconds, speed)
                uncalibrated["setup_s"] = statistics.median(setup_reps)
                setup_reps = speed.calibrate(setup_spans)
                metrics["setup_s"] = (statistics.median(setup_reps), "s")
                attempted, failed = len(run.durations), run.summary()["failed"]
                correct, extra = run.correct, {"uncalibrated": uncalibrated}
        if hasattr(workload, "known_defects"):
            extra["known_defects"] = workload.known_defects(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            **run.summary(), **extra, "first_import_s": first_import_s,
            "setup_s_reps": setup_reps, "env": environment(args.seed)}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
