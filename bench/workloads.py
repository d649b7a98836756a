"""The benchmark's workloads: op lists built from a seed, and output checks.

Each op goes through a user-facing entry point: ``regtail.cli.main(argv)``
with stdout captured, or the public function where the CLI has none. A
nonzero exit, any exception, or a failed check makes the op fail.

Workloads, and why each was chosen:

- ``mc_scan``: one Poisson-regime ``scan`` of K3 at n=400. The G(n, p)
  sampler (``graphs``) and the copy kernel do almost all of the work.
- ``peel``: peeling at n=50 for K3, C4 and K4 with k spread over 2..20:
  ``verify peel`` from clique seeds, which peel no edge, and ``core`` on a
  clique seed plus a pendant path and a disjoint edge, which peels some
  (the clique seeds alone never do). The planted-model engine and ``cores``
  dominate; nothing is sampled or enumerated exactly.
- ``exact_n7``: exact tail tables, ``verify bk`` and spanned-copy events at
  n=6 and 7, and small-n scans. The exact layer's 2^21-entry arrays dominate;
  the scans show whether a sampler tuned for large n slows tiny graphs.
- ``verify_small``: the lemma6/7/9 sweeps: the same kernel and planted engine
  on dense graphs with n <= 12 and thousands of tiny planted models, and the
  only workload that runs ``spanned`` (set cover).

Checks are written to survive the changes the roadmap plans. Monte Carlo
rows are checked statistically, since a new sampler legitimately changes the
random stream; deterministic outputs are compared with ``reference.json``
(taken from the seed commit by ``make_reference.py``), floats within a
relative 1e-9 and everything else exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from regtail import cli, counting, graphs

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
Z_MC = 5.0  # standard errors allowed between a Monte Carlo mean and the truth
SCAN_HEADER = "k,n,p,estimate,ci_low,ci_high,exact,L_value,clique_lb,disjoint_lb,samples"

# Pattern name -> (q, copies per q-set of a clique = q!/|Aut|, delta).
PATTERNS = {"k3": (3, 1, 2), "c4": (4, 3, 2), "k4": (4, 1, 3)}


class OpFailed(Exception):
    """The CLI exited nonzero."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], "str | None"]  # failure reason, or None
    ref_key: "str | None" = None  # entry of reference.json the check reads
    reference: "Callable[[object], object] | None" = None  # value stored there
    memory_bound: bool = False  # works on arrays larger than L2 (see worker.py)


def threshold_p(name: str, n: int) -> float:
    return float(n) ** (-2.0 / PATTERNS[name][2])


def run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def cli_op(argv, check, ref_key=None, reference=None) -> Op:
    argv = [str(a) for a in argv]
    return Op(" ".join(argv), lambda: run_cli(argv), check, ref_key, reference)


# ----------------------------------------------------------------- checks


def close(got, want, path="out") -> "str | None":
    """First mismatch between two JSON-like values, or None. Floats match
    within REL_TOL; strings, bools, ints, None and list lengths exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            bad = close(got[key], want[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = close(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0))
    else:
        ok = type(got) is type(want) and got == want
    return None if ok else f"{path}: got {got!r}, want {want!r}"


def check_pass(out, ref):
    lines = out.strip().splitlines()
    if len(lines) == 1 and lines[0].startswith("verify ") and lines[0].endswith(": PASS"):
        return None
    return f"expected one PASS line, got {out.strip()[:200]!r}"


def check_reference(key, parse=lambda out: out):
    def check(out, ref):
        return close(parse(out), ref[key])
    return check


def parse_scan(out: str):
    lines = out.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        raise ValueError("scan CSV header differs")
    return list(csv.DictReader(io.StringIO(out)))


def _num(cell):
    return None if cell == "" else float(cell)


def _scan_rows_common(rows, n, kmax, samples):
    if [int(r["k"]) for r in rows] != list(range(1, kmax + 1)):
        return "scan rows are not k = 1..kmax"
    last = 1.0
    for r in rows:
        if int(r["n"]) != n or int(r["samples"]) != samples:
            return f"row k={r['k']}: n or samples differ"
        est, lo, hi = float(r["estimate"]), float(r["ci_low"]), float(r["ci_high"])
        if not 0.0 <= lo <= est <= hi <= 1.0:
            return f"row k={r['k']}: estimate outside its interval"
        if est > last:
            return f"row k={r['k']}: tail estimate increases with k"
        last = est
    return None


def check_scan_mc(key, n, kmax, samples):
    """Large-n scan: p, L_value and clique_lb exact; the mean copy count
    sum_k P(X >= k) within Z_MC standard errors of the exact mean."""

    def check(out, ref):
        rows = parse_scan(out)
        bad = _scan_rows_common(rows, n, kmax, samples)
        if bad:
            return bad
        want = ref[key]
        for r in rows:
            if r["exact"] != "":
                return f"row k={r['k']}: exact filled for n={n}"
            for col in ("p", "L_value", "clique_lb"):
                if r[col] != want["rows"][r["k"]][col]:
                    return f"row k={r['k']}: {col} {r[col]} != {want['rows'][r['k']][col]}"
        tail = [float(r["estimate"]) for r in rows] + [0.0]
        mean = sum(tail[:-1])
        second = sum(k * k * (tail[k - 1] - tail[k]) for k in range(1, kmax + 1))
        lam = want["lambda"]
        se = math.sqrt(max(second - mean * mean, lam) / samples)
        if abs(mean - lam) > Z_MC * se:
            return f"mean copy count {mean:.5g} is {abs(mean - lam) / se:.1f} SE from {lam:.5g}"
        return None

    return check


def check_scan_exact(key, n, kmax, samples):
    """Small-n scan: every deterministic column within REL_TOL of the
    reference, and each estimate's success count within Z_MC standard
    deviations (plus 3 counts, for rare events) of samples * exact."""

    def check(out, ref):
        rows = parse_scan(out)
        bad = _scan_rows_common(rows, n, kmax, samples)
        if bad:
            return bad
        want = ref[key]["rows"]
        for r in rows:
            got = {c: _num(r[c]) for c in ("p", "exact", "L_value", "clique_lb", "disjoint_lb")}
            bad = close(got, want[r["k"]], f"row k={r['k']}")
            if bad:
                return bad
            exact = got["exact"]
            hits = float(r["estimate"]) * samples
            sd = math.sqrt(samples * exact * (1.0 - exact))
            if abs(hits - samples * exact) > Z_MC * sd + 3.0:
                return f"row k={r['k']}: estimate {r['estimate']} far from exact {exact}"
        return None

    return check


def scan_reference_mc(pattern, n):
    def reference(out):
        from regtail import tails

        rows = {r["k"]: {c: r[c] for c in ("p", "L_value", "clique_lb")}
                for r in parse_scan(out)}
        lam = tails.expected_copy_count(graphs.named_pattern(pattern), n, threshold_p(pattern, n))
        return {"rows": rows, "lambda": lam}
    return reference


def scan_reference_exact(out):
    return {"rows": {r["k"]: {c: _num(r[c]) for c in
                              ("p", "exact", "L_value", "clique_lb", "disjoint_lb")}
                     for r in parse_scan(out)}}


# -------------------------------------------------------------- workloads

# Sizes of each workload's op list. "smoke" runs every op kind at tiny size.
SIZES = {
    "full": {
        "mc_scan": {"n": 400, "kmax": 8, "samples": 1500},
        "peel": {"n": 50, "verify_ks": (2, 10, 18), "core_ks": (4, 12),
                 "patterns": ("k3", "c4", "k4")},
        "exact_n7": {"table_n": 7, "bk_ns": (6, 7),
                     "spanned": (("k3", 7, 2), ("k3", 6, 3), ("c4", 6, 3)),
                     "scan_n": 7, "kmax": 10, "samples": 20000},
        "verify_small": {"lemma6": 200, "lemma7": 100, "lemma9": 100},
    },
    "smoke": {
        "mc_scan": {"n": 40, "kmax": 4, "samples": 200},
        "peel": {"n": 50, "verify_ks": (2,), "core_ks": (12,), "patterns": ("k3", "c4")},
        "exact_n7": {"table_n": 6, "bk_ns": (6,), "spanned": (("k3", 6, 2),),
                     "scan_n": 6, "kmax": 4, "samples": 500},
        "verify_small": {"lemma6": 5, "lemma7": 3, "lemma9": 3},
    },
}


# Seed constant for the core ops. With the default 10, the per-edge
# threshold t is so small that K3 and C4 keep every junk edge.
CORE_CS = 2.0


def clique_seed_size(name: str, k: int) -> int:
    """Smallest s with comb(s, q) * q!/|Aut| >= k: the clique that peel starts from."""
    q, per_set, _ = PATTERNS[name]
    s = q
    while math.comb(s, q) * per_set < k:
        s += 1
    return s


def seed_with_junk(s: int) -> str:
    """Edge list of K_s plus a pendant path s-(s+1) hanging off vertex 0 and
    a disjoint edge (s+2, s+3): a clique seed with edges worth peeling."""
    edges = [(u, v) for u in range(s) for v in range(u + 1, s)]
    edges += [(0, s), (s, s + 1), (s + 2, s + 3)]
    return "\n".join([f"{s + 4} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def build_mc_scan(seed, size, workdir):
    n, kmax, samples = size["n"], size["kmax"], size["samples"]
    key = f"scan k3 n={n} kmax={kmax}"
    argv = ["scan", "--pattern", "k3", "--n", n, "--kmax", kmax, "--samples", samples,
            "--workers", 2, "--seed", seed, "--format", "csv"]
    return [cli_op(argv, check_scan_mc(key, n, kmax, samples), key,
                   scan_reference_mc("k3", n))]


def build_peel(seed, size, workdir):
    n = size["n"]
    ops = []
    for name in size["patterns"]:
        for k in size["verify_ks"]:
            ops.append(cli_op(["verify", "peel", "--pattern", name, "--n", n, "--k", k],
                              check_pass))
        for k in size["core_ks"]:
            path = workdir / f"seed-{name}-{k}.edges"
            path.write_text(seed_with_junk(clique_seed_size(name, k)))
            key = f"core {name} n={n} k={k} cs={CORE_CS}"
            argv = ["core", "--pattern", name, "--graph", f"@{path}", "--n", n, "--k", k,
                    "--cs", CORE_CS, "--format", "json"]
            op = cli_op(argv, check_reference(key, json.loads), key, json.loads)
            op.name = f"core --pattern {name} --n {n} --k {k} --cs {CORE_CS} (seed with junk)"
            ops.append(op)
    return ops


def exact_memory_bound(n: int) -> bool:
    """The exact layer keeps arrays of 2^C(n,2) entries: 2-16 MiB at n=7,
    beyond the 2 MiB L2, and at most 256 KiB at n=6."""
    return math.comb(n, 2) >= 21


def build_exact_n7(seed, size, workdir):
    ops = []
    n = size["table_n"]
    for name in PATTERNS:
        pattern = graphs.named_pattern(name)
        p = threshold_p(name, n)
        key = f"tail_probability_table {name} n={n}"
        ops.append(Op(key,
                      lambda pattern=pattern, p=p: counting.tail_probability_table(
                          pattern, n, p).tolist(),
                      check_reference(key), key, lambda out: out, exact_memory_bound(n)))
    for bk_n in size["bk_ns"]:
        ops.append(cli_op(["verify", "bk", "--n", bk_n], check_pass))
        ops[-1].memory_bound = exact_memory_bound(bk_n)
    for name, ev_n, count in size["spanned"]:
        model = graphs.GnpModel(ev_n, threshold_p(name, ev_n))
        event = counting.HasSpannedWithCopies(graphs.named_pattern(name), count)
        key = f"exact_probability HasSpannedWithCopies {name} count={count} n={ev_n}"
        ops.append(Op(key,
                      lambda model=model, event=event: counting.exact_probability(model, event),
                      check_reference(key), key, lambda out: out, exact_memory_bound(ev_n)))
    sn, kmax, samples = size["scan_n"], size["kmax"], size["samples"]
    for name in PATTERNS:
        key = f"scan {name} n={sn} kmax={kmax}"
        argv = ["scan", "--pattern", name, "--n", sn, "--kmax", kmax, "--samples", samples,
                "--seed", seed, "--format", "csv"]
        ops.append(cli_op(argv, check_scan_exact(key, sn, kmax, samples), key,
                          scan_reference_exact))
    return ops


def build_verify_small(seed, size, workdir):
    return [cli_op(["verify", target, "--instances", size[target], "--seed", seed], check_pass)
            for target in ("lemma6", "lemma7", "lemma9")]


BUILDERS = {
    "mc_scan": build_mc_scan,
    "peel": build_peel,
    "exact_n7": build_exact_n7,
    "verify_small": build_verify_small,
}


def build(workload: str, seed: int, smoke: bool, workdir: Path):
    """The workload's op list for one process. Files it needs go to workdir."""
    size = SIZES["smoke" if smoke else "full"][workload]
    return BUILDERS[workload](seed, size, workdir)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
