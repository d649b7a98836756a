"""Monte Carlo and exact tail estimation, Poisson-limit diagnostics,
analytic lower-bound constructions, and the phase-transition scan.

Sampling work is split over a fixed number of logical workers, each with an
independent stream derived from (seed, worker index); aggregation is
order-independent, so identical (seed, workers) always reproduces identical
numbers regardless of how the workers are executed.

Monte Carlo copy counts come from one batched engine. A worker's share is
sampled in chunks of graphs as edge arrays, every graph of a chunk is peeled
to its delta-core at once in numpy (a delta-regular pattern's copies all lie
there), and the copy kernel runs only on the graphs whose core is nonempty.
Near the threshold p = n**(-2/delta) most samples are sparse and copy-free,
so the cost follows the edges drawn rather than the C(n, 2) vertex pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import tail_rate
from .counting import (
    DEFAULT_MAP_BUDGET,
    MAX_EXACT_N,
    CopiesAtLeast,
    exact_probability,
    count_copies,
    tail_probability_table,
)
from .cores import clique_seed_size
from .errors import (
    BlockTooSmallError,
    DomainError,
    TooFewVerticesError,
)
from .graphs import (
    GnpModel,
    Pattern,
    SimpleGraph,
    sample_gnp_batch,
    threshold_probability,
    worker_rng,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile

CSV_HEADER = "k,n,p,estimate,ci_low,ci_high,exact,L_value,clique_lb,disjoint_lb,samples"


def wilson_interval(successes: int, samples: int, z: float = Z95):
    """Wilson score interval for a binomial proportion; valid near 0."""
    if samples < 1:
        raise DomainError("need at least one sample")
    phat = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2.0 * samples)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return lo, hi


@dataclass
class TailRow:
    """One record of a tail scan; optional fields stay None until filled."""

    k: int
    n: int
    p: float
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    exact: float | None = None
    L_value: float | None = None
    clique_lb: float | None = None
    disjoint_lb: float | None = None


# Entries of the largest per-chunk array (edges, or vertices over all the
# chunk's graphs): 163 graphs per chunk at n = 400 and p = 1/n. Chunks of
# 81 to 2,621 such graphs run equally fast; larger ones only cost memory.
MC_CHUNK_ENTRIES = 1 << 16


def _chunk_graphs(n: int, p: float) -> int:
    """Graphs per sampled chunk: its vertex and expected edge arrays stay
    within MC_CHUNK_ENTRIES entries."""
    return max(1, MC_CHUNK_ENTRIES // max(n, math.ceil(n * (n - 1) // 2 * p), 1))


def _core_edges(a: np.ndarray, b: np.ndarray, size: int, delta: int) -> np.ndarray:
    """Indices of the edges (a[i], b[i]) on vertices 0..size-1 that lie in
    the delta-core: edges at a vertex of degree below delta are dropped, and
    survivors relabeled onto their live vertices, until none is dropped."""
    idx = np.arange(len(a))
    while len(idx):
        alive = np.bincount(np.concatenate((a, b)), minlength=size) >= delta
        keep = alive[a] & alive[b]
        if keep.all():
            break
        label = np.cumsum(alive) - 1
        size = int(label[-1]) + 1
        a, b, idx = label[a[keep]], label[b[keep]], idx[keep]
    return idx


def _batch_counts(P: Pattern, n: int, p: float, count: int, rng, budget: int) -> np.ndarray:
    """Copy counts of `count` G(n, p) graphs sampled as one batch.

    Every vertex of a copy of a delta-regular pattern has degree delta in
    the copy, so every copy lies in the delta-core. The kernel runs only on
    graphs with a nonempty core, and only on its edges.
    """
    graph, u, v = sample_gnp_batch(n, p, count, rng)
    keep = _core_edges(graph * n + u, graph * n + v, count * n, P.delta)
    graph, u, v = graph[keep], u[keep], v[keep]
    out = np.zeros(count, dtype=np.int64)
    cut = np.flatnonzero(np.diff(graph)) + 1
    for start, gu, gv in zip(np.r_[0, cut], np.split(u, cut), np.split(v, cut)):
        if len(gu):
            g = SimpleGraph(n, zip(gu.tolist(), gv.tolist()))
            out[graph[start]] = count_copies(P, g, budget)
    return out


def _mc_counts(P: Pattern, model: GnpModel, samples: int, workers: int = 1,
               budget: int = DEFAULT_MAP_BUDGET) -> np.ndarray:
    """Copy counts of `samples` independent G(n, p) draws.

    Worker w handles a fixed contiguous share using the stream derived from
    (seed, w), so the counts depend only on (seed, workers). A share is
    sampled and counted in chunks whose size depends only on n and p.
    """
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    n, p = model.n, model.p
    chunk = _chunk_graphs(n, p)
    base, rem = divmod(samples, workers)
    out = np.empty(samples, dtype=np.int64)
    pos = 0
    for w in range(workers):
        cnt = base + (1 if w < rem else 0)
        rng = worker_rng(model.seed, w)
        for start in range(0, cnt, chunk):
            size = min(chunk, cnt - start)
            out[pos : pos + size] = _batch_counts(P, n, p, size, rng, budget)
            pos += size
    return out


def mc_tail(P: Pattern, model: GnpModel, k: int, samples: int,
            workers: int = 1) -> TailRow:
    """Monte Carlo estimate of P(copy count >= k) with a 95% Wilson interval."""
    counts = _mc_counts(P, model, samples, workers)
    succ = int((counts >= k).sum())
    lo, hi = wilson_interval(succ, samples)
    return TailRow(
        k=k,
        n=model.n,
        p=model.p,
        estimate=succ / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
    )


@dataclass(frozen=True)
class PoissonDiagnostic:
    """Empirical copy-count pmf against the matching Poisson law."""

    lam: float
    empirical_pmf: dict
    tv_distance: float
    samples: int


def expected_copy_count(P: Pattern, n: int, p: float) -> float:
    """Exact expected copy count comb(n, q) * (q!/aut) * p**edges."""
    return math.comb(n, P.q) * P.copies_per_set * p**P.edge_count


def poisson_diagnostic(P: Pattern, model: GnpModel, samples: int,
                       workers: int = 1) -> PoissonDiagnostic:
    """Total-variation distance between sampled copy counts and the Poisson
    law with the exact mean.

    Near the threshold probability the distance should be small; away from
    it the diagnostic quantifies the departure.
    """
    lam = expected_copy_count(P, model.n, model.p)
    counts = _mc_counts(P, model, samples, workers)
    top = int(counts.max())
    freq = np.bincount(counts, minlength=top + 1) / samples
    pois = np.empty(top + 1)
    pois[0] = math.exp(-lam)
    for j in range(1, top + 1):
        pois[j] = pois[j - 1] * lam / j
    tv = 0.5 * (float(np.abs(freq - pois).sum()) + max(0.0, 1.0 - float(pois.sum())))
    pmf = {int(j): float(freq[j]) for j in range(top + 1)}
    return PoissonDiagnostic(lam=lam, empirical_pmf=pmf, tv_distance=tv, samples=samples)


def clique_lower_bound(P: Pattern, n: int, p: float, k: int) -> float:
    """p**(s*(s-1)/2) with s the clique seed size: a fixed s-set being
    complete already forces at least k copies, so this lower-bounds the tail."""
    s = clique_seed_size(P, k)
    if s > n:
        raise TooFewVerticesError(f"clique of size {s} does not fit in n={n}")
    return p ** (s * (s - 1) // 2)


@dataclass(frozen=True)
class DisjointBound:
    """Lower bound r**s for s disjoint copies from per-block occupancy r."""

    value: float
    ci_low: float
    ci_high: float
    block_size: int
    block_probability: float
    exact: bool


def disjoint_lower_bound(P: Pattern, n: int, p: float, s: int,
                         samples: int = 10_000, seed: int = 0,
                         workers: int = 1) -> DisjointBound:
    """Estimate P(at least one copy in G(n//s, p))**s, a valid lower bound
    on having s vertex-disjoint copies (blocks are disjoint and independent).

    The block probability is exact when the block fits the exact oracle,
    otherwise Monte Carlo with the interval propagated through r**s.
    """
    if s < 1:
        raise DomainError(f"s must be positive, got {s}")
    m = n // s
    if m < P.q:
        raise BlockTooSmallError(f"blocks of size {m} cannot hold a {P.q}-vertex copy")
    if m <= MAX_EXACT_N:
        r = exact_probability(GnpModel(m, p), CopiesAtLeast(P, 1))
        return DisjointBound(
            value=r**s, ci_low=r**s, ci_high=r**s,
            block_size=m, block_probability=r, exact=True,
        )
    row = mc_tail(P, GnpModel(m, p, seed), 1, samples, workers)
    return DisjointBound(
        value=row.estimate**s,
        ci_low=row.ci_low**s,
        ci_high=row.ci_high**s,
        block_size=m,
        block_probability=row.estimate,
        exact=False,
    )


def crossover_k(q: int, log_n: float) -> int:
    """Smallest integer k >= 2 with k**(1-2/q) * ln(k) >= log_n, the point
    where the k*ln(k) mechanism overtakes k**(2/q)*ln(n)."""
    if log_n <= 0:
        raise DomainError(f"log_n must be positive, got {log_n}")

    def g(k):
        return k ** (1.0 - 2.0 / q) * math.log(k)

    lo, hi = 2, 2
    if g(lo) >= log_n:
        return lo
    while g(hi) < log_n:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if g(mid) >= log_n:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    crossover: int
    p: float


def scan_phase_transition(P: Pattern, n: int, ks, samples: int,
                          p: float | None = None, seed: int = 0,
                          workers: int = 1) -> ScanResult:
    """One TailRow per threshold k: Monte Carlo estimate, exact value when
    the size permits, the rate value, and both analytic lower bounds.

    All rows share a single batch of samples, which is what a per-k call of
    mc_tail with the same model would see anyway.
    """
    if p is None:
        p = threshold_probability(n, P.delta)
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise DomainError("scan thresholds must be at least 1")
    counts = _mc_counts(P, GnpModel(n, p, seed), samples, workers)
    exact_tab = tail_probability_table(P, n, p) if n <= MAX_EXACT_N else None
    rows = []
    for k in ks:
        succ = int((counts >= k).sum())
        lo, hi = wilson_interval(succ, samples)
        exact = None
        if exact_tab is not None:
            exact = float(exact_tab[k]) if k < len(exact_tab) else 0.0
        try:
            clq = clique_lower_bound(P, n, p, k)
        except TooFewVerticesError:
            clq = None
        dis = None
        if n // k >= P.q:
            child_seed = (seed * 1_000_003 + k) % (1 << 63)
            dis = disjoint_lower_bound(
                P, n, p, k, samples=max(1000, samples // 10),
                seed=child_seed, workers=workers,
            ).value
        rows.append(
            TailRow(
                k=k, n=n, p=p,
                estimate=succ / samples, ci_low=lo, ci_high=hi,
                samples=samples, exact=exact,
                L_value=tail_rate(k, n, P.q) if k >= 2 else 0.0,
                clique_lb=clq, disjoint_lb=dis,
            )
        )
    return ScanResult(rows=tuple(rows), crossover=crossover_k(P.q, math.log(n)), p=p)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def rows_to_csv(rows) -> str:
    """Fixed-schema CSV; float cells use shortest round-trip formatting so
    identical runs serialize byte-identically."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    r.k, r.n, r.p, r.estimate, r.ci_low, r.ci_high,
                    r.exact, r.L_value, r.clique_lb, r.disjoint_lb, r.samples,
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows, crossover: int | None = None) -> str:
    payload = {
        "rows": [
            {
                "k": r.k, "n": r.n, "p": r.p,
                "estimate": r.estimate, "ci_low": r.ci_low, "ci_high": r.ci_high,
                "exact": r.exact, "L_value": r.L_value,
                "clique_lb": r.clique_lb, "disjoint_lb": r.disjoint_lb,
                "samples": r.samples,
            }
            for r in rows
        ]
    }
    if crossover is not None:
        payload["crossover"] = crossover
    return json.dumps(payload, indent=2, sort_keys=True)
