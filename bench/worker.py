"""One fresh benchmark process: set up, run one workload's op list once,
check every output, and print one JSON record as the last stdout line.

run.py spawns this file; it is not meant to be run by hand. Set-up time runs
from ``--t0`` (the driver's ``time.monotonic()`` just before spawning, a
clock shared by all processes on Linux) until the first op can be issued: it
covers interpreter start, ``import regtail`` and building the op inputs.

Times are reported at a fixed reference speed of the host. On a shared host
the same code runs up to 2x slower for seconds to minutes at a time, when
the neighbours are busy. A ``Speedometer`` times a fixed probe in thread CPU
time, which such phases slow as much as the program but which other
processes that preempt it do not: before and after set-up, and before, after
and every ``SPEED_PERIOD_S`` during each op. A time measured while the probe
took ``c`` seconds is scaled by ``ref / c``, with ``c`` the median of the
probe times taken over it and ``ref`` the probe's constant in ``PROBES``. The
raw times are kept in the record.

There are two probes, because the neighbours slow the interpreter and the
memory hierarchy by different amounts at different times: a pure-Python
loop, and a sweep over arrays larger than L2. Each op is scaled by the probe
that matches it (``Op.memory_bound``): the sweep for ops whose arrays are
larger than L2, the loop for everything else and for set-up. Scaling an op
by the other probe can track it worse than no scaling at all.

Exit codes: 0 with a record (failed ops are counted in the record, not in
the exit code), 3 when the regtail source tree next to the benchmark cannot
be imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_FAILED = 3
SPEED_PERIOD_S = 0.05


def python_loop() -> float:
    """Thread CPU time of a fixed pure-Python loop of about 0.5 ms."""
    start = time.thread_time()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    return time.thread_time() - start


@functools.cache
def _sweep_arrays():
    import numpy as np

    return np.ones(1 << 19), np.ones(1 << 19), np.empty(1 << 19)  # 4 MiB each


def memory_sweep() -> float:
    """Thread CPU time of adding two 4 MiB arrays into a third, about 1 ms."""
    import numpy as np

    a, b, out = _sweep_arrays()
    start = time.thread_time()
    np.add(a, b, out=out)
    return time.thread_time() - start


# memory_bound -> (probe, its time in the fast phase of the 2-vCPU host the
# benchmark was written on, Python 3.11). Any constants would do: only ratios
# between runs on one machine matter.
PROBES = {False: (python_loop, 450e-6), True: (memory_sweep, 900e-6)}


class Speedometer:
    """Probe times taken on demand and, between ``start`` and ``stop``,
    every SPEED_PERIOD_S from a SIGALRM handler (1-2% of the time)."""

    def __init__(self):
        self.samples = []
        self.use(memory_bound=False)

    def use(self, memory_bound: bool):
        self.probe, self.ref = PROBES[memory_bound]

    def sample(self, *_signal_args):
        self.samples.append(self.probe())

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self, since: int) -> float:
        """The probe's reference time over the median of samples[since:]."""
        return self.ref / statistics.median(self.samples[since:])


def run_ops(ops, ref, tracer=None, speed=None) -> dict:
    """Issue each op once, in order, and check its output. ``op_s`` holds
    each op's own time and ``op_scale`` the factor that brings it to the
    reference speed (1 without a speedometer); ``wall_s`` sums the scaled
    times and ``raw_wall_s`` the measured ones. A failed op still counts."""
    times, scales = [], []
    failures = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if speed is not None:
            speed.use(op.memory_bound)
            mark = len(speed.samples)
            speed.sample()
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # every exception, MemoryError included, fails the op
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if speed is not None:
            speed.sample()
        scales.append(1.0 if speed is None else speed.scale(mark))
        if error is None:
            try:
                error = op.check(out, ref)
            except Exception as exc:  # output the check could not even read
                error = f"malformed output: {type(exc).__name__}: {exc}"
        if error:
            failures.append({"op": op.name, "error": error[:500]})
    return {"wall_s": sum(t * c for t, c in zip(times, scales)), "raw_wall_s": sum(times),
            "op_s": times, "op_scale": scales, "attempted": len(ops),
            "failed": len(failures), "failures": failures}


def peak_rss_mb() -> float:
    """ru_maxrss of this process (or of a child it waited for, if larger), MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    speed = Speedometer()
    speed.sample()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import regtail
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import regtail from {SRC}: {exc}\n")
        return SETUP_FAILED
    if not Path(regtail.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"bench: regtail imported from {regtail.__file__}, not {SRC}\n")
        return SETUP_FAILED

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workloads.build(args.workload, args.seed, args.smoke, Path(workdir))
        raw_setup = time.monotonic() - args.t0
        speed.sample()
        record = {"setup_s": raw_setup * speed.scale(0), "raw_setup_s": raw_setup}
        if not args.setup_only:
            ref = workloads.load_reference()
            tracer = None
            if args.trace:
                import tracing

                tracer = tracing.Tracer()
                tracer.install()
            speed.start()
            try:
                record.update(run_ops(ops, ref, tracer, speed))
            finally:
                speed.stop()
            record["peak_rss_mb"] = peak_rss_mb()
            if tracer is not None:
                record["trace"] = tracer.summary()
                if args.spans:
                    tracer.write_spans(args.spans)
    record["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
