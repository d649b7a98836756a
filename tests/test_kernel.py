"""The injective-map kernel against the brute-force oracles, and the exact
budget at which each kind of kernel call succeeds. Every test runs three
times: with the one label frame of a graph on at most
graphs.LABEL_FRAME_MAX labels, with the cached frame of each component,
which larger graphs get, and with ball frames, which the kernel gets for
components above graphs.MAX_FRAME vertices."""

import dataclasses
from itertools import combinations, permutations

import numpy as np
import pytest

from oracles import (
    automorphism_count,
    copies_in_graph,
    count_automorphisms,
    edge_rooted_oracle,
    planted_expectation_oracle,
    rooted_copies_through_edge,
)
from regtail import counting, graphs
from regtail.counting import (
    PlantedModel,
    count_copies,
    edge_rooted_expectation,
    iter_copies,
    planted_edge_deltas,
    planted_expectation,
)
from regtail.errors import BudgetExceededError, ContractError
from regtail.graphs import SimpleGraph, complete_graph, make_pattern, named_pattern

PATTERNS = {name: named_pattern(name) for name in ("k3", "c4", "k4")}
# two triangles joined by a perfect matching: regular, not edge-transitive
PATTERNS["prism"] = make_pattern(SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                                 (3, 5), (0, 3), (1, 4), (2, 5)]))


@pytest.fixture(autouse=True, params=["label", "component", "ball"])
def frames(request, monkeypatch):
    if request.param != "label":
        monkeypatch.setattr(graphs, "LABEL_FRAME_MAX", -1)
    if request.param == "ball":
        monkeypatch.setattr(graphs, "MAX_FRAME", 0)


def _gnp(n, p, seed):
    """Seeded G(n, p): pair i of the row-major order kept when draw i < p."""
    pairs = list(combinations(range(n), 2))
    keep = np.random.default_rng(seed).random(len(pairs)) < p
    return SimpleGraph(n, [e for e, k in zip(pairs, keep) if k])


@pytest.mark.parametrize("name", PATTERNS)
@pytest.mark.parametrize("n", range(7, 13))
def test_kernel_matches_oracles(name, n):
    """Counts, listed copies and copies through an edge (the rooted sums' pinned path)
    on seeded G(n, p) graphs, sparse enough to leave several components
    and isolated vertices and dense enough to hold many copies."""
    P = PATTERNS[name]
    for p in (0.2, 0.45, 0.7):
        g = _gnp(n, p, seed=100 * n + int(100 * p))
        want = copies_in_graph(P.graph.edges, n, g.edges)
        assert count_copies(P, g) == len(want)
        assert iter_copies(P, g) == want
        for f in g.edges[:: max(1, g.m // 5)]:
            assert rooted_copies_through_edge(P, g, f) == sum(f in c for c in want)


@pytest.mark.parametrize("n", (7, 8))
def test_automorphisms_match_oracle(n):
    """count_automorphisms maps a whole graph into itself: the densest plan
    the kernel runs, with every position tied to several earlier ones."""
    for p in (0.3, 0.5, 0.8):
        g = _gnp(n, p, seed=7 * n + int(10 * p))
        assert count_automorphisms(g) == automorphism_count(g.edges)
    for P in PATTERNS.values():
        assert count_automorphisms(P.graph) == automorphism_count(P.graph.edges)


@pytest.mark.parametrize("name", ("c4", "prism"))
def test_planted_sums_match_oracles(name):
    """The planted engine's kernel runs: subsets T of the pattern with
    several components, each started in a fresh frame, and the rooted runs
    that pin an arc, on planted graphs of several components."""
    P, n = PATTERNS[name], 8
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = _gnp(n - 1, 0.45, int(rng.integers(1 << 30)))
        p = float(rng.uniform(0.1, 0.9))
        model = PlantedModel(n, p, g)
        expectation, deltas = planted_edge_deltas(P, model)
        want = planted_expectation_oracle(P.graph.edges, n, p, g.edges)
        assert expectation == pytest.approx(want, rel=1e-10)
        for f in g.edges[::3]:
            rooted = edge_rooted_oracle(P.graph.edges, n, p, g.edges, f)
            assert deltas[f] == pytest.approx((1 - p) * rooted, rel=1e-10)


@pytest.mark.parametrize("name", (*PATTERNS, "k5"))
@pytest.mark.parametrize("rooted", (False, True))
def test_symmetry_breaking_matches_every_map(name, rooted):
    """For every orbit plan of the pattern (the subsets T of the planted
    sums, pinned onto host arcs when rooted), |G| times the broken count
    equals the count of every map under the same plan with nothing broken,
    and the whole-pattern plan lists each copy once."""
    P = PATTERNS.get(name) or named_pattern(name)
    h = P.graph
    hosts = [_gnp(n, p, seed=n + int(10 * p)) for n, p in ((8, 0.7), (10, 0.5))]
    for pins, bits, *_ in counting._orbit_table(h, rooted):
        subset = tuple(e for i, e in enumerate(h.edges) if bits >> i & 1)
        plan = counting._plan(h, subset, pins)
        every = counting._greedy_order(h.n, subset, pins)
        assert plan[:5] == every[:5] and every[5:] == (((),) * len(plan[0]), 1)
        for g in hosts:
            arcs = list(g.edges[::4]) + [(b, a) for a, b in g.edges[1::4]]
            for root in arcs if rooted else [()]:
                want = counting._count_maps(every, g, root, [10**9])
                assert plan[6] * counting._count_maps(plan, g, root, [10**9]) == want
    assert counting._plan(h, h.edges, ())[6] == automorphism_count(h.edges)
    for g in hosts:
        copies = iter_copies(P, g)
        assert len(copies) == len(set(copies)) == count_copies(P, g)


def test_wrong_aut_count_is_refused():
    """The whole-pattern plan's group order cross-checks Pattern.aut_count."""
    wrong = dataclasses.replace(PATTERNS["c4"], aut_count=4)
    with pytest.raises(ContractError):
        count_copies(wrong, _gnp(8, 0.5, 1))


K3, C4, K4 = (PATTERNS[name] for name in ("k3", "c4", "k4"))

# Smallest budget with which each call succeeds: the number of partial
# assignments the kernel accepts, and that budget for the kernel that
# enumerated every map before the plans broke the pattern's symmetry, with
# the engine constant that opens the call's budget cell. The order of
# enumeration may change; a boundary may fall, never rise, as the
# symmetry-breaking conditions only remove candidates.
MAP, PLANTED = "DEFAULT_MAP_BUDGET", "DEFAULT_PLANTED_BUDGET"
BOUNDARY = {
    "plain_k3_k6": (41, 156, MAP, lambda: count_copies(K3, complete_graph(6))),
    "plain_c4": (67, 192, MAP, lambda: count_copies(C4, _gnp(11, 0.4, 1))),
    "plain_k4": (97, 550, MAP, lambda: count_copies(K4, _gnp(12, 0.6, 2))),
    "automorphisms_k5": (325, 325, MAP, lambda: count_automorphisms(complete_graph(5))),
    # K3's rooted terms pin two of three positions: each draw, and the
    # refusal, comes at the last position
    "pinned_k3": (7, 7, PLANTED, lambda: edge_rooted_expectation(
        K3, PlantedModel(9, 0.1, _gnp(9, 0.5, 6)), (0, 2))),
    "pinned_k4_k6": (226, 268, PLANTED, lambda: edge_rooted_expectation(
        K4, PlantedModel(6, 0.1, complete_graph(6)), (0, 1))),
    "pinned_c4": (101, 113, PLANTED, lambda: edge_rooted_expectation(
        C4, PlantedModel(10, 0.2, _gnp(10, 0.5, 3)), (0, 1))),
    "planted_k3": (110, 186, PLANTED, lambda: planted_expectation(
        K3, PlantedModel(20, 0.1, _gnp(9, 0.5, 4)))),
    "planted_c4_deltas": (505, 1212, PLANTED, lambda: planted_edge_deltas(
        C4, PlantedModel(15, 0.2, _gnp(8, 0.5, 5)))),
}


@pytest.mark.parametrize("case", BOUNDARY)
def test_budget_boundary(case, monkeypatch):
    """The call succeeds with its engine constant patched to the boundary
    and is refused one below it. It runs once at the default first, so
    that a lowered limit refuses the call under test, not a plan build."""
    budget, every_map, constant, run = BOUNDARY[case]
    assert budget <= every_map
    run()
    monkeypatch.setattr(counting, constant, budget)
    run()
    monkeypatch.setattr(counting, constant, budget - 1)
    with pytest.raises(BudgetExceededError):
        run()


def _listed(plan, g, root):
    """The complete maps of a leaf run, each leaf call's mask expanded bit
    by bit, with the run's count, its budget cell and the leaf's calls."""
    maps, calls = [], []

    def leaf(images, mask, labels):
        calls.append(mask)
        maps.extend(tuple(images[:-1]) + (labels[b],)
                    for b in range(len(labels)) if mask >> b & 1)

    state = [10**9]
    count = counting._count_maps(plan, g, root, state, leaf)
    return maps, count, state, calls


def _plan_group(order, subset, pins):
    """The permutations of the planned vertices that keep the planned edges,
    fix every pin and map each component onto itself, as vertex dicts."""
    edges = {frozenset(e) for e in subset}
    free = [v for v in order if v not in pins]
    group = []
    for perm in permutations(free):
        s = dict(zip(free, perm)) | {v: v for v in pins}
        if {frozenset((s[u], s[v])) for u, v in subset} == edges \
                and _same_components(s, subset):
            group.append(s)
    return group


def _same_components(s, subset):
    """Whether the vertex permutation s maps each component of the edge
    set onto itself."""
    label = {}
    for u, v in subset:
        a, b = label.setdefault(u, u), label.setdefault(v, v)
        if a != b:
            label = {x: (a if y == b else y) for x, y in label.items()}
    return all(label[s[v]] == label[v] for v in label)


@pytest.mark.parametrize("name", PATTERNS)
def test_batched_leaf_lists_one_map_per_group_orbit(name):
    """Each leaf call's mask, expanded bit by bit, lists the maps of the
    plan: the maps of the unbroken _greedy_order plan divided by the plan's
    group, for every orbit plan of the pattern, unpinned (down to the empty
    subset, whose one map is the empty one and calls no leaf) and pinned
    onto host arcs (down to a one-edge subset whose pins cover every
    position). A leaf run leaves the budget cell where a count run does."""
    h = PATTERNS[name].graph
    hosts = [_gnp(n, p, seed=n + int(10 * p)) for n, p in ((8, 0.6), (10, 0.4))]
    for rooted in (False, True):
        for pins, bits, *_ in counting._orbit_table(h, rooted):
            subset = tuple(e for i, e in enumerate(h.edges) if bits >> i & 1)
            plan = counting._plan(h, subset, pins)
            every = counting._greedy_order(h.n, subset, pins)
            order = plan[0]
            pos = {v: i for i, v in enumerate(order)}
            group = [[pos[s[v]] for v in order] for s in _plan_group(order, subset, pins)]
            assert len(group) == plan[6]
            for g in hosts:
                arcs = list(g.edges[::8]) + [(b, a) for a, b in g.edges[4::8]]
                for root in arcs if rooted else [()]:
                    maps, count, state, calls = _listed(plan, g, root)
                    unbroken, _, _, _ = _listed(every, g, root)
                    plain = [10**9]
                    assert counting._count_maps(plan, g, root, plain) == count
                    assert state == plain
                    assert all(calls)
                    if not order:
                        assert (count, calls) == (1, [])
                        continue
                    assert len(maps) == len(set(maps)) == count
                    assert len(unbroken) == plan[6] * count
                    assert {tuple(m[j] for j in perm) for m in maps for perm in group} \
                        == set(unbroken)


def test_planted_credits_call_the_leaf_once_per_prefix(monkeypatch):
    """planted_edge_deltas on a planted K_7 hands its leaf the last
    position's candidates of each prefix: every map the kernel counts but
    the empty subset's is credited, in fewer leaf calls than maps."""
    model = PlantedModel(20, 0.3, complete_graph(7))
    want = planted_edge_deltas(K4, model)  # builds the plans before the spy
    kernel, calls, credited, counted = counting._count_maps, [], [], []

    def spied(plan, g, pins, state, leaf=None):
        def batched(images, mask, labels):
            calls.append(mask)
            credited.append(mask.bit_count())
            leaf(images, mask, labels)

        counted.append(kernel(plan, g, pins, state, batched if leaf else None))
        return counted[-1]

    monkeypatch.setattr(counting, "_count_maps", spied)
    assert planted_edge_deltas(K4, model) == want
    assert sum(credited) == sum(counted) - 1  # the empty subset's map credits nothing
    assert len(calls) < sum(credited)
