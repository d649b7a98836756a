"""Randomized and grid sweeps over the package invariants.

Each sweep returns a list of violation records (empty means the invariant
held everywhere). Records are plain JSON-ready dicts carrying everything
needed to rerun the single failing instance through `replay`.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, counting, cores, spanned, tails
from .errors import DomainError
from .graphs import (
    GnpModel,
    Pattern,
    SimpleGraph,
    complete_graph,
    make_pattern,
    named_pattern,
    threshold_probability,
)

DEFAULT_PATTERNS = ("k3", "c4", "k4")


def _pattern_payload(P: Pattern, name=None):
    if name is not None:
        return {"pattern": name}
    return {"pattern_edges": [list(e) for e in P.graph.edges], "pattern_n": P.q}


def pattern_from_payload(rec) -> Pattern:
    if "pattern" in rec:
        return named_pattern(rec["pattern"])
    return make_pattern(SimpleGraph(rec["pattern_n"], [tuple(e) for e in rec["pattern_edges"]]))


def _random_graph(rng, n):
    p = float(rng.uniform(0.1, 0.9))
    m = n * (n - 1) // 2
    mask = rng.random(m) < p
    edges = []
    i = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            if mask[i]:
                edges.append((u, v))
            i += 1
    return SimpleGraph(n, edges)


def check_finner(P: Pattern, g: SimpleGraph, name=None):
    homs = counting.count_injective_homs(P, g)
    bound = bounds.finner_hom_bound(P, g.n, g.m)
    if homs > bound + 1e-9:
        return {
            "target": "lemma6",
            **_pattern_payload(P, name),
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "homs": homs,
            "bound": bound,
        }
    return None


def sweep_finner(pattern_names=DEFAULT_PATTERNS, instances=1000, seed=0, n_max=12):
    """Injective homomorphism count vs the product-measure bound, on random
    graphs up to n_max vertices per pattern."""
    rng = np.random.default_rng(seed)
    out = []
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = int(rng.integers(P.q, n_max + 1))
            g = _random_graph(rng, n)
            rec = check_finner(P, g, name)
            if rec:
                out.append(rec)
    return out


def check_edge_rooted(P: Pattern, planted: SimpleGraph, n, p, f, name=None):
    model = counting.PlantedModel(n=n, p=p, planted=planted)
    _, rooted = counting.planted_edge_delta(P, model, f)
    inp = bounds.EdgeRootedInput(
        d_a=planted.degree(f[0]), d_b=planted.degree(f[1]),
        e=planted.m, n=n, p=p, pattern=P,
    )
    bound = bounds.edge_rooted_bound(inp)
    if rooted > bound * (1 + 1e-9):
        return {
            "target": "lemma7",
            **_pattern_payload(P, name),
            "n": n, "p": p, "edge": list(f),
            "planted_edges": [list(e) for e in planted.edges],
            "exact": rooted, "bound": bound,
        }
    return None


def check_outside_edge(P: Pattern, planted: SimpleGraph, n, p, f, name=None):
    model = counting.PlantedModel(n=n, p=p, planted=planted)
    outside = counting.edge_rooted_outside_sum(P, model, f)
    inp = bounds.EdgeRootedInput(
        d_a=planted.degree(f[0]), d_b=planted.degree(f[1]),
        e=planted.m, n=n, p=p, pattern=P,
    )
    bound = bounds.outside_edge_bounds(inp).max
    if outside > bound * (1 + 1e-9):
        return {
            "target": "lemma7_outside",
            **_pattern_payload(P, name),
            "n": n, "p": p, "edge": list(f),
            "planted_edges": [list(e) for e in planted.edges],
            "exact": outside, "bound": bound,
        }
    return None


def _random_planted(rng, n):
    while True:
        g = _random_graph(rng, n)
        if g.m >= 1:
            return g


def sweep_edge_rooted(pattern_names=DEFAULT_PATTERNS, instances=500, seed=0, n_max=10):
    """Exact edge-rooted planted expectation vs its closed-form bound."""
    rng = np.random.default_rng(seed)
    out = []
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = int(rng.integers(max(P.q, 4), n_max + 1))
            planted = _random_planted(rng, n)
            f = planted.edges[int(rng.integers(0, planted.m))]
            p = float(rng.uniform(0.02, 0.9))
            rec = check_edge_rooted(P, planted, n, p, f, name)
            if rec:
                out.append(rec)
    return out


def sweep_outside_edge(pattern_names=DEFAULT_PATTERNS, instances=200, seed=0, n_max=9):
    """Exact outside-edge expectation vs max(B1, B2, B3), on planted graphs
    where the distinguished edge has an endpoint of degree below delta."""
    rng = np.random.default_rng(seed)
    out = []
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = int(rng.integers(max(P.q, 4), n_max + 1))
            base = _random_planted(rng, n - 1)
            # attach a fresh pendant vertex: its degree 1 < delta
            b = int(rng.integers(0, n - 1))
            b = base.edges[int(rng.integers(0, base.m))][0] if base.degree(b) == 0 else b
            planted = SimpleGraph(n, list(base.edges) + [(b, n - 1)])
            f = (b, n - 1) if b < n - 1 else (n - 1, b)
            p = float(rng.uniform(0.02, 0.9))
            rec = check_outside_edge(P, planted, n, p, f, name)
            if rec:
                out.append(rec)
    return out


def check_spanning_excess(P: Pattern, g: SimpleGraph, name=None):
    report = spanned.spanning_excess_report(P, g)
    bad = (report.l_star >= 2 and report.f < report.lower - 1e-9) or (
        report.l_star == 1 and abs(report.f) > 1e-9
    )
    if bad:
        return {
            "target": "lemma9",
            **_pattern_payload(P, name),
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "f": report.f, "l_star": report.l_star, "lower": report.lower,
        }
    return None


def sweep_spanning_excess(pattern_names=DEFAULT_PATTERNS, instances=200, seed=0, l_max=6):
    """Spanning-excess inequality on randomly glued spanned graphs."""
    rng = np.random.default_rng(seed)
    out = []
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            l = int(rng.integers(1, l_max + 1))
            pool = P.q * l + P.q
            g = spanned.glue_random_spanned(P, l, rng, pool)
            rec = check_spanning_excess(P, g, name)
            if rec:
                out.append(rec)
    return out


def sweep_power_sum(trials=10_000, seed=0):
    """Termwise p-th roots dominate the root of the sum; gap >= -1e-12."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        size = int(rng.integers(1, 12))
        xs = [float(x) for x in rng.uniform(0.0, 10.0, size=size)]
        p = float(rng.uniform(1.0 + 1e-6, 8.0))
        gap = bounds.power_sum_gap(xs, p)
        if gap < -1e-12:
            out.append({"target": "lemma17", "xs": xs, "p": p, "gap": gap})
    return out


def sweep_split_cost(k_max=200, a_values=(0.1, 1.0, 10.0, 100.0), q_values=(3, 4, 5)):
    """Split objective minimum dominates (1/10)*min(k*ln(k), A*k**(2/q))."""
    out = []
    for q in q_values:
        for a in a_values:
            for k in range(2, k_max + 1):
                res = bounds.split_cost_min(k, a, q)
                if res.value < res.rhs - 1e-9:
                    out.append(
                        {"target": "lemma18", "k": k, "a": a, "q": q,
                         "value": res.value, "rhs": res.rhs}
                    )
    return out


def sweep_chernoff(n_max=200, p_values=(0.01, 0.1, 0.3)):
    """Exact binomial tail never exceeds the Chernoff bound for M >= ceil(Np)."""
    out = []
    for p in p_values:
        for n in range(1, n_max + 1):
            for m in range(math.ceil(n * p), n + 1):
                exact = bounds.exact_binomial_tail(n, m, p)
                cher = bounds.chernoff_tail(n, m, p)
                if exact > cher * (1 + 1e-9):
                    out.append(
                        {"target": "chernoff", "N": n, "M": m, "p": p,
                         "exact": exact, "bound": cher}
                    )
    return out


def sweep_dyadic(trials=10_000, seed=0):
    """Dyadic class floors sandwich the exact total within a factor 2."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        size = int(rng.integers(1, 20))
        ls = [int(x) for x in rng.integers(2, 500, size=size)]
        prof = spanned.dyadic_profile(ls)
        total = sum(ls)
        ws = prof.weighted_sum
        if not total >= ws >= (total + 1) // 2:
            out.append({"target": "dyadic", "l_list": ls, "weighted": ws, "total": total})
    return out


def check_bk(pattern_name, n, p):
    P = named_pattern(pattern_name)
    model = GnpModel(n, p)
    d1 = counting.exact_probability(model, counting.DisjointCopies(P, 1))
    d2 = counting.exact_probability(model, counting.DisjointCopies(P, 2))
    if d2 > d1 * d1 * (1 + 1e-9):
        return {"target": "bk", "pattern": pattern_name, "n": n, "p": p,
                "d2": d2, "d1_squared": d1 * d1}
    return None


def sweep_bk(pattern_name="k3", n_values=(6, 7), p_values=None):
    """Exact P(two disjoint copies) <= P(one copy)**2 (disjoint occurrence)."""
    out = []
    for n in n_values:
        ps = p_values if p_values is not None else (0.05, 0.1, 0.2, 1.0 / n)
        for p in ps:
            rec = check_bk(pattern_name, n, p)
            if rec:
                out.append(rec)
    return out


def check_poisson(pattern_name, n, p, samples, seed, workers=1, tv_cap=0.05):
    P = named_pattern(pattern_name)
    diag = tails.poisson_diagnostic(P, GnpModel(n, p, seed), samples, workers)
    if diag.tv_distance >= tv_cap:
        return {"target": "poisson", "pattern": pattern_name, "n": n, "p": p,
                "samples": samples, "seed": seed, "workers": workers,
                "tv": diag.tv_distance, "cap": tv_cap}
    return None


def sweep_poisson(pattern_name="k3", n=400, samples=100_000, seeds=(0, 1, 2), workers=1):
    """Total-variation distance to the Poisson law stays below 0.05 at the
    threshold probability, for each seed."""
    p = threshold_probability(n, named_pattern(pattern_name).delta)
    out = []
    for seed in seeds:
        rec = check_poisson(pattern_name, n, p, samples, seed, workers)
        if rec:
            out.append(rec)
    return out


def check_peel(pattern_name, n, k, cs=10.0, w=0.0):
    """Peeling contract from a clique seed: strictly decreasing trace,
    per-step drop below t, total drop within w*k, survivor is a core."""
    P = named_pattern(pattern_name)
    p = threshold_probability(n, P.delta)
    kwargs = {"n": n, "p": p, "k": k, "q": P.q, "cs": cs}
    if w:
        kwargs["w"] = w
    params = cores.SeedParams(**kwargs)
    s = cores.clique_seed_size(P, k)
    seed_graph = complete_graph(s)
    report = cores.peel_to_core(seed_graph, params, P)
    ok_seed = cores._seed_verdict(report.expectation_trace[0], seed_graph.m, params)
    problems = []
    trace = report.expectation_trace
    for i in range(1, len(trace)):
        drop = trace[i - 1] - trace[i]
        if drop <= 0:
            problems.append(f"non-decreasing trace at step {i}")
        if drop >= params.t * (1 + 1e-9):
            problems.append(f"step {i} dropped {drop} >= t")
    if trace[0] - trace[-1] > params.w * params.k * (1 + 1e-9):
        problems.append("total drop exceeded w*k")
    if ok_seed and report.result.m > 0 and report.verdict != "Core":
        problems.append(f"seed peeled to verdict {report.verdict}")
    if report.verdict == "Core":
        core_ok, _ = cores.is_core(report.result, params, P)
        if not core_ok:
            problems.append("verdict Core but is_core fails")
        for _, _, bound in cores.degree_product_report(report.result, params, P):
            if bound < params.t:
                problems.append("core edge with rooted bound below t")
                break
    if problems:
        return {"target": "peel", "pattern": pattern_name, "n": n, "k": k,
                "cs": cs, "w": w, "problems": problems}
    return None


def sweep_peel(pattern_names=("k3", "c4", "k4"), k_values=range(2, 21), n=50, cs=10.0):
    out = []
    for name in pattern_names:
        for k in k_values:
            rec = check_peel(name, n, k, cs)
            if rec:
                out.append(rec)
    return out


def replay(record) -> dict:
    """Rerun one violation record; returns {"ok": bool, "target": ...}."""
    target = record["target"]
    if target == "lemma6":
        P = pattern_from_payload(record)
        g = SimpleGraph(record["n"], [tuple(e) for e in record["edges"]])
        rec = check_finner(P, g)
    elif target == "lemma7":
        P = pattern_from_payload(record)
        planted = SimpleGraph(record["n"], [tuple(e) for e in record["planted_edges"]])
        rec = check_edge_rooted(P, planted, record["n"], record["p"], tuple(record["edge"]))
    elif target == "lemma7_outside":
        P = pattern_from_payload(record)
        planted = SimpleGraph(record["n"], [tuple(e) for e in record["planted_edges"]])
        rec = check_outside_edge(P, planted, record["n"], record["p"], tuple(record["edge"]))
    elif target == "lemma9":
        P = pattern_from_payload(record)
        g = SimpleGraph(record["n"], [tuple(e) for e in record["edges"]])
        rec = check_spanning_excess(P, g)
    elif target == "lemma17":
        gap = bounds.power_sum_gap(record["xs"], record["p"])
        rec = None if gap >= -1e-12 else record
    elif target == "lemma18":
        res = bounds.split_cost_min(record["k"], record["a"], record["q"])
        rec = None if res.value >= res.rhs - 1e-9 else record
    elif target == "chernoff":
        exact = bounds.exact_binomial_tail(record["N"], record["M"], record["p"])
        cher = bounds.chernoff_tail(record["N"], record["M"], record["p"])
        rec = None if exact <= cher * (1 + 1e-9) else record
    elif target == "dyadic":
        prof = spanned.dyadic_profile(record["l_list"])
        total = sum(record["l_list"])
        rec = None if total >= prof.weighted_sum >= (total + 1) // 2 else record
    elif target == "bk":
        rec = check_bk(record["pattern"], record["n"], record["p"])
    elif target == "poisson":
        rec = check_poisson(
            record["pattern"], record["n"], record["p"], record["samples"],
            record["seed"], record.get("workers", 1), record.get("cap", 0.05),
        )
    elif target == "peel":
        rec = check_peel(
            record["pattern"], record["n"], record["k"],
            record.get("cs", 10.0), record.get("w", 0.0),
        )
    else:
        raise DomainError(f"unknown replay target {target!r}")
    return {"ok": rec is None, "target": target, "violation": rec}
