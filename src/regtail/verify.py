"""Sweeps over the package invariants, and the registry that runs and
replays them.

A sweep returns the violation records of its `check_*` calls (empty means
the invariant held everywhere). A record is a JSON-ready dict carrying
everything needed to rerun that one instance through `replay`.

The registry is two tables. `SWEEPS` maps each `regtail verify` target to
the flags its sweep reads, with their types and defaults, and to a call of
the `sweep_*` functions (`run_sweep`); the CLI builds one subparser per
target from it. `CHECKS` maps each record target to its `check_*` function
and to a decoder of the check's arguments from a record (`replay`).
`lemma7_outside` is a record target only: `verify lemma7` runs its sweep.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from types import SimpleNamespace

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


def _graph(n, edges) -> SimpleGraph:
    return SimpleGraph(n, [tuple(e) for e in edges])


def pattern_from_payload(rec) -> Pattern:
    if "pattern" in rec:
        return named_pattern(rec["pattern"])
    return make_pattern(_graph(rec["pattern_n"], rec["pattern_edges"]))


def _violations(sweep):
    """Turn a generator of check results into a sweep that returns the
    violation records among them as a list."""

    @functools.wraps(sweep)
    def run(*args, **kwargs):
        return [rec for rec in sweep(*args, **kwargs) if rec is not None]

    return run


def _random_graph(rng, n):
    p = rng.uniform(0.1, 0.9)
    return SimpleGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


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


@_violations
def sweep_finner(pattern_names, instances, seed, n_max=12):
    """Injective homomorphism count vs the product-measure bound, on random
    graphs up to n_max vertices per pattern."""
    rng = random.Random(seed)
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = rng.randrange(P.q, n_max + 1)
            g = _random_graph(rng, n)
            yield check_finner(P, g, name)


def _edge_violation(target, P, planted, n, p, f, name, exact, bound):
    if exact > bound * (1 + 1e-9):
        return {
            "target": target,
            **_pattern_payload(P, name),
            "n": n, "p": p, "edge": list(f),
            "planted_edges": [list(e) for e in planted.edges],
            "exact": exact, "bound": bound,
        }
    return None


def _edge_input(P, planted, n, p, f):
    return bounds.EdgeRootedInput(
        d_a=planted.degree(f[0]), d_b=planted.degree(f[1]),
        e=planted.m, n=n, p=p, pattern=P,
    )


def check_edge_rooted(P: Pattern, planted: SimpleGraph, n, p, f, name=None):
    model = counting.PlantedModel(n=n, p=p, planted=planted)
    _, rooted = counting.planted_edge_delta(P, model, f)
    bound = bounds.edge_rooted_bound(_edge_input(P, planted, n, p, f))
    return _edge_violation("lemma7", P, planted, n, p, f, name, rooted, bound)


def check_outside_edge(P: Pattern, planted: SimpleGraph, n, p, f, name=None):
    model = counting.PlantedModel(n=n, p=p, planted=planted)
    outside = counting.edge_rooted_outside_sum(P, model, f)
    bound = bounds.outside_edge_bounds(_edge_input(P, planted, n, p, f)).max
    return _edge_violation("lemma7_outside", P, planted, n, p, f, name, outside, bound)


def _random_planted(rng, n):
    while True:
        g = _random_graph(rng, n)
        if g.m >= 1:
            return g


@_violations
def sweep_edge_rooted(pattern_names, instances, seed, n_max=10):
    """Exact edge-rooted planted expectation vs its closed-form bound."""
    rng = random.Random(seed)
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = rng.randrange(max(P.q, 4), n_max + 1)
            planted = _random_planted(rng, n)
            f = rng.choice(planted.edges)
            p = rng.uniform(0.02, 0.9)
            yield check_edge_rooted(P, planted, n, p, f, name)


@_violations
def sweep_outside_edge(pattern_names, instances, seed, n_max=9):
    """Exact outside-edge expectation vs max(B1, B2, B3), on planted graphs
    where the distinguished edge has an endpoint of degree below delta."""
    rng = random.Random(seed)
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            n = rng.randrange(max(P.q, 4), n_max + 1)
            base = _random_planted(rng, n - 1)
            # attach a fresh pendant vertex: its degree 1 < delta
            b = rng.randrange(n - 1)
            b = rng.choice(base.edges)[0] if base.degree(b) == 0 else b
            planted = SimpleGraph(n, list(base.edges) + [(b, n - 1)])
            f = (b, n - 1) if b < n - 1 else (n - 1, b)
            p = rng.uniform(0.02, 0.9)
            yield check_outside_edge(P, planted, n, p, f, name)


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


@_violations
def sweep_spanning_excess(pattern_names, instances, seed, l_max=6):
    """Spanning-excess inequality on randomly glued spanned graphs."""
    rng = random.Random(seed)
    for name in pattern_names:
        P = named_pattern(name)
        for _ in range(instances):
            l = rng.randrange(1, l_max + 1)
            pool = P.q * l + P.q
            g = spanned.glue_random_spanned(P, l, rng, pool)
            yield check_spanning_excess(P, g, name)


def check_power_sum(xs, p):
    gap = bounds.power_sum_gap(xs, p)
    if gap < -1e-12:
        return {"target": "lemma17", "xs": xs, "p": p, "gap": gap}
    return None


@_violations
def sweep_power_sum(trials, seed):
    """Termwise p-th roots dominate the root of the sum; gap >= -1e-12."""
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randrange(1, 12)
        xs = [rng.uniform(0.0, 10.0) for _ in range(size)]
        p = rng.uniform(1.0 + 1e-6, 8.0)
        yield check_power_sum(xs, p)


def check_split_cost(k, a, q):
    res = bounds.split_cost_min(k, a, q)
    if res.value < res.rhs - 1e-9:
        return {"target": "lemma18", "k": k, "a": a, "q": q,
                "value": res.value, "rhs": res.rhs}
    return None


@_violations
def sweep_split_cost(k_max=200, a_values=(0.1, 1.0, 10.0, 100.0), q_values=(3, 4, 5)):
    """Split objective minimum dominates (1/10)*min(k*ln(k), A*k**(2/q))."""
    for q in q_values:
        for a in a_values:
            for k in range(2, k_max + 1):
                yield check_split_cost(k, a, q)


def check_chernoff(n, m, p):
    exact = bounds.exact_binomial_tail(n, m, p)
    cher = bounds.chernoff_tail(n, m, p)
    if exact > cher * (1 + 1e-9):
        return {"target": "chernoff", "N": n, "M": m, "p": p,
                "exact": exact, "bound": cher}
    return None


@_violations
def sweep_chernoff(n_max=200, p_values=(0.01, 0.1, 0.3)):
    """Exact binomial tail never exceeds the Chernoff bound for M >= ceil(Np)."""
    for p in p_values:
        for n in range(1, n_max + 1):
            for m in range(math.ceil(n * p), n + 1):
                yield check_chernoff(n, m, p)


def check_dyadic(ls):
    ws = spanned.dyadic_profile(ls).weighted_sum
    total = sum(ls)
    if not total >= ws >= (total + 1) // 2:
        return {"target": "dyadic", "l_list": ls, "weighted": ws, "total": total}
    return None


@_violations
def sweep_dyadic(trials, seed):
    """Dyadic class floors sandwich the exact total within a factor 2."""
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randrange(1, 20)
        ls = [rng.randrange(2, 500) for _ in range(size)]
        yield check_dyadic(ls)


def check_bk(pattern_name, n, p):
    P = named_pattern(pattern_name)
    model = GnpModel(n, p)
    d1 = counting.exact_probability(model, counting.DisjointCopies(P, 1))
    d2 = counting.exact_probability(model, counting.DisjointCopies(P, 2))
    if d2 > d1 * d1 * (1 + 1e-9):
        return {"target": "bk", "pattern": pattern_name, "n": n, "p": p,
                "d2": d2, "d1_squared": d1 * d1}
    return None


@_violations
def sweep_bk(pattern_name, n_values, p_values=None):
    """Exact P(two disjoint copies) <= P(one copy)**2 (disjoint occurrence)."""
    for n in n_values:
        ps = p_values if p_values is not None else (0.05, 0.1, 0.2, 1.0 / n)
        for p in ps:
            yield check_bk(pattern_name, n, p)


def check_poisson(pattern_name, n, p, samples, seed, workers=1, tv_cap=0.05):
    P = named_pattern(pattern_name)
    diag = tails.poisson_diagnostic(P, GnpModel(n, p, seed), samples, workers)
    if diag.tv_distance >= tv_cap:
        return {"target": "poisson", "pattern": pattern_name, "n": n, "p": p,
                "samples": samples, "seed": seed, "workers": workers,
                "tv": diag.tv_distance, "cap": tv_cap}
    return None


@_violations
def sweep_poisson(pattern_name, n, samples, seeds, workers):
    """Total-variation distance to the Poisson law stays below 0.05 at the
    threshold probability, for each seed."""
    p = threshold_probability(n, named_pattern(pattern_name).delta)
    for seed in seeds:
        yield check_poisson(pattern_name, n, p, samples, seed, workers)


def check_peel(pattern_name, n, k, cs=10.0, w=0.0):
    """Peeling contract from a clique: strictly decreasing trace, per-step
    drop below t, a Core verdict that is_core confirms; for a seed, also a
    total drop within w*k and a nonempty survivor that is a core."""
    P = named_pattern(pattern_name)
    p = threshold_probability(n, P.delta)
    params = cores.SeedParams(n=n, p=p, k=k, q=P.q, cs=cs, w=w)  # w = 0: 1/ln(n)
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
    # each edge drops less than t and t * edge_cap = w*k: a bound for seeds only
    if ok_seed and trace[0] - trace[-1] > params.w * params.k * (1 + 1e-9):
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


@_violations
def sweep_peel(pattern_names, k_values, n):
    for name in pattern_names:
        for k in k_values:
            yield check_peel(name, n, k)


class Size(int):
    """Type of a flag that sizes a sweep; `run_sweep` rejects a nonpositive one."""


_PATTERNS = (str, DEFAULT_PATTERNS)
_SEED = (int, 0)

# Target -> ({flag: (type, default[, help])}, call). A flag whose default is
# a tuple, a range or None stands for a grid: a given value narrows it to one
# point, and the call gets the 1-tuple. A None grid names its values in help.
SWEEPS = {
    "lemma6": ({"pattern": _PATTERNS, "instances": (Size, 1000), "seed": _SEED},
               lambda a: sweep_finner(a.pattern, a.instances, a.seed)),
    "lemma7": ({"pattern": _PATTERNS, "instances": (Size, 500), "seed": _SEED},
               lambda a: sweep_edge_rooted(a.pattern, a.instances, a.seed)
               + sweep_outside_edge(a.pattern, a.instances // 2, a.seed)),
    "lemma9": ({"pattern": _PATTERNS, "instances": (Size, 200), "seed": _SEED},
               lambda a: sweep_spanning_excess(a.pattern, a.instances, a.seed)),
    "lemma17": ({"trials": (Size, 10_000), "seed": _SEED},
                lambda a: sweep_power_sum(a.trials, a.seed)),
    "lemma18": ({}, lambda a: sweep_split_cost()),
    "chernoff": ({}, lambda a: sweep_chernoff()),
    "dyadic": ({"trials": (Size, 10_000), "seed": _SEED},
               lambda a: sweep_dyadic(a.trials, a.seed)),
    "bk": ({"pattern": (str, "k3"), "n": (Size, (6, 7)),
            "p": (float, None, "each of 0.05, 0.1, 0.2, 1/n")},
           lambda a: sweep_bk(a.pattern, a.n, a.p)),
    "poisson": ({"pattern": (str, "k3"), "n": (Size, 400), "samples": (Size, 100_000),
                 "seed": _SEED, "workers": (int, 1)},
                lambda a: sweep_poisson(a.pattern, a.n, a.samples, (a.seed,), a.workers)),
    "peel": ({"pattern": _PATTERNS, "n": (Size, 50), "k": (Size, range(2, 21))},
             lambda a: sweep_peel(a.pattern, a.k, a.n)),
}


def flag_help(spec) -> str:
    """How `verify <target> --help` words a SWEEPS flag's default."""
    _, default, *text = spec
    if text:
        return text[0]
    if isinstance(default, range):
        return f"each of {default.start} to {default[-1]}"
    if isinstance(default, tuple):
        return "each of " + ", ".join(map(str, default))
    return f"default: {default}"


def run_sweep(target, given) -> list:
    """Run one target's sweep. `given` maps flag names to the values the
    user gave, None where a flag was not given."""
    flags, call = SWEEPS[target]
    values = {}
    for name, (kind, default, *_) in flags.items():
        value = given.get(name)
        if value is not None and kind is Size:
            if value < 1:
                raise DomainError(f"--{name} must be positive, got {value}")
            value = int(value)  # caches keyed by an int miss a Size
        if name == "seed" and value is not None and value < 0:
            raise DomainError(f"--seed must be nonnegative, got {value}")
        if value is None:
            value = default
        elif default is None or isinstance(default, (tuple, range)):
            value = (value,)
        values[name] = value
    return call(SimpleNamespace(**values))


def _graph_args(r):
    return pattern_from_payload(r), _graph(r["n"], r["edges"]), r.get("pattern")


def _planted_args(r):
    planted = _graph(r["n"], r["planted_edges"])
    return pattern_from_payload(r), planted, r["n"], r["p"], tuple(r["edge"]), r.get("pattern")


# Record target -> (check, decoder from a record to the check's arguments).
CHECKS = {
    "lemma6": (check_finner, _graph_args),
    "lemma7": (check_edge_rooted, _planted_args),
    "lemma7_outside": (check_outside_edge, _planted_args),
    "lemma9": (check_spanning_excess, _graph_args),
    "lemma17": (check_power_sum, lambda r: (r["xs"], r["p"])),
    "lemma18": (check_split_cost, lambda r: (r["k"], r["a"], r["q"])),
    "chernoff": (check_chernoff, lambda r: (r["N"], r["M"], r["p"])),
    "dyadic": (check_dyadic, lambda r: (r["l_list"],)),
    "bk": (check_bk, lambda r: (r["pattern"], r["n"], r["p"])),
    "poisson": (check_poisson, lambda r: (
        r["pattern"], r["n"], r["p"], r["samples"], r["seed"],
        r.get("workers", 1), r.get("cap", 0.05))),
    "peel": (check_peel, lambda r: (
        r["pattern"], r["n"], r["k"], r.get("cs", 10.0), r.get("w", 0.0))),
}


def replay(record) -> dict:
    """Rerun one violation record; returns {"ok": bool, "target": ...,
    "violation": the rerun's record or None}. A record that does not
    decode is a DomainError; errors inside the check are not converted."""
    try:
        check, decode = CHECKS[record["target"]]
        args = decode(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"not a replayable record ({type(exc).__name__}: {exc})") from None
    rec = check(*args)
    return {"ok": rec is None, "target": record["target"], "violation": rec}
