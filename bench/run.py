"""regtail benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports regtail from
``src/`` there and builds nothing. Workloads: mc_scan, peel, exact_n7,
verify_small (see workloads.py for what each runs and why).

One run of a workload works for about ``--seconds`` seconds, and for at least
one pass. It spawns, one after another until the time is up, a set-up probe
(a fresh process that sets up and exits) and then one fresh process for a
pass over the workload's op list (worker.py). Each process issues
one op at a time (closed loop, one client) and checks every output. Every
process of a run builds the same inputs from ``derive(N, 0)``, so the same
``--seed`` gives the same inputs and the passes repeat identical work.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- ``setup_s``: median over the run's processes (probes and passes) of the
  time from spawning the process until its first op can be issued
- ``wall_s``: median over passes of the time to finish the op list once

Both times are brought to a fixed reference speed of the host by the
worker's speedometer (see worker.py): a shared host's speed drifts by up to
2x for seconds to minutes at a time, which no median over a 30 s run can
average away. The record keeps the raw times too.
- ``peak_rss_mb``: median over passes of the process's ``ru_maxrss``
- ``ok_ratio``: share of attempted ops that succeeded and passed their
  check, that is 1 - fail_ratio (the end-to-end list may not hold a metric
  that is 0 on a healthy tree, so the failure share is carried as its
  complement here, and as ``fail_ratio`` in the traced report)

With ``--trace 1`` passes come in pairs, one untraced and one traced, and
the last line reports the per-layer metrics of tracing.py,
averaged over the traced passes; ``trace.overhead_ratio`` is traced over
untraced wall time.

Everything else goes to ``bench/out/``: one JSON record per run with the
environment (nproc, Python and numpy versions, git sha and a digest of the
package source, L2/L3 sizes, load average at the start and end of the run),
every pass's figures and failures, and the spans of each traced pass.

``--smoke`` runs every op kind at tiny size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("mc_scan", "peel", "exact_n7", "verify_small")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"), ("ok_ratio", "ratio"))
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402  (regtail-free; imported for the metric names)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def derive(seed: int, rep: int) -> int:
    return (seed * 1_000_003 + rep) % (1 << 31)


def spawn(workload, seed, smoke, *, setup_only=False, traced=False, spans=None) -> dict:
    """Run one worker process to completion and return its record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _cache_sizes() -> dict:
    """L2/L3 sizes as the kernel reports them for cpu0 (None where absent)."""
    out = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if f"L{level}" in out and (idx / "type").read_text().strip() != "Instruction":
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "cache": _cache_sizes(),
        "loadavg_start": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """All passes of one run; returns the full record."""
    env = environment()
    start = time.monotonic()
    sub = derive(seed, 0)
    setups, passes, traced = [], [], []
    rep = 0
    last = 0.0
    # A pass starts only if half of one more like the last still fits, so a
    # run overshoots --seconds by at most half a pass.
    while rep == 0 or time.monotonic() - start + last / 2 <= seconds:
        began = time.monotonic()
        # A set-up probe before each pass spreads the set-up samples over
        # the whole run, so no single phase of the host's speed holds most.
        setups.append(spawn(workload, sub, smoke, setup_only=True)["setup_s"])
        passes.append(spawn(workload, sub, smoke) | {"seed": sub})
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{rep}.tsv"
            traced.append(spawn(workload, sub, smoke, traced=True, spans=spans)
                          | {"seed": sub})
        last = time.monotonic() - began
        rep += 1
    env["numpy"] = passes[0]["numpy"]
    env["loadavg_end"] = os.getloadavg()
    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if trace:
        overhead = (sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in passes))
        values = tracing.layer_metrics([p["trace"] for p in traced], failed / attempted,
                                       overhead)
        units = tracing.per_layer_metrics()
    else:
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "env": env, "setup_probes_s": setups, "passes": passes,
            "traced_passes": traced, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regtail benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regtail" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no regtail source tree under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in record["passes"] + record["traced_passes"]:
        for f in p["failures"]:
            sys.stderr.write(f"bench: FAILED {f['op']}: {f['error']}\n")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
