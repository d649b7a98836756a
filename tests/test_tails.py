import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    component_labels_oracle,
    copy_count_array,
    triangle_support_oracle,
    truss_core_oracle,
)

from regtail import graphs, tails
from regtail.bounds import tail_rate
from regtail.cli import _load_pattern
from regtail.counting import (
    MAX_EXACT_N,
    CopiesAtLeast,
    count_copies,
    exact_probability,
    tail_probability_table,
)
from regtail.errors import BlockTooSmallError, DomainError, TooFewVerticesError, TooLargeError
from regtail.graphs import (
    GnpModel,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    make_pattern,
    named_pattern,
    sample_gnp_batch,
    threshold_probability,
    worker_rng,
    write_edge_list,
)
from regtail.tails import (
    CSV_HEADER,
    TailRow,
    _chunk_counts,
    _chunk_graphs,
    _components,
    _core_edges,
    _mc_counts,
    clique_lower_bound,
    crossover_k,
    disjoint_lower_bound,
    expected_copy_count,
    mc_tail,
    poisson_diagnostic,
    rows_to_csv,
    rows_to_json,
    scan_phase_transition,
    second_moment_bound,
    triangle_support,
    wilson_interval,
)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 351)
    assert lo == 0.0
    assert 0 < hi < 0.02
    lo, hi = wilson_interval(351, 351)
    assert hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


def test_mc_tail_trivial(k3):
    model = GnpModel(6, 1 / 6, seed=1)
    assert mc_tail(k3, model, 1, 200).estimate > 0.0
    assert mc_tail(k3, model, 10**9, 200).estimate == 0.0
    for k in (0, -3):  # as in scan_phase_transition
        with pytest.raises(DomainError):
            mc_tail(k3, model, k, 200)


def test_mc_tail_matches_exact(k3):
    model = GnpModel(6, 1 / 6, seed=5)
    samples = 40_000
    row = mc_tail(k3, model, 1, samples, workers=2)
    exact = exact_probability(model, CopiesAtLeast(k3, 1))
    sigma = math.sqrt(exact * (1 - exact) / samples)
    assert abs(row.estimate - exact) <= 3 * sigma
    assert row.ci_low <= row.estimate <= row.ci_high


def test_mc_tail_deterministic(k3):
    model = GnpModel(10, 0.2, seed=9)
    a = mc_tail(k3, model, 2, 3000, workers=3)
    b = mc_tail(k3, model, 2, 3000, workers=3)
    assert a.estimate == b.estimate
    # worker 0 of 3 draws the same share of 1000 from stream (seed, 0) as a lone worker
    three = _mc_counts(k3, model, 3000, workers=3)
    assert np.array_equal(three[:1000], _mc_counts(k3, model, 1000, workers=1))
    assert three.sum() > 0


def _raw_samples(n, p, seed, samples):
    """Each graph's (u, v) arrays, in the order _mc_counts draws them over
    two workers."""
    chunk = _chunk_graphs(n, p)  # K4 at n = 400 takes two chunks per worker
    share = samples // 2
    for w in range(2):
        rng = worker_rng(seed, w)
        for start in range(0, share, chunk):
            graph, u, v = sample_gnp_batch(n, p, min(chunk, share - start), rng)
            for i in range(min(chunk, share - start)):
                yield u[graph == i], v[graph == i]


def _replay_unpruned(P, n, p, seed):
    """_mc_counts of 80 graphs over two workers, and the kernel's counts on
    the full graphs rebuilt from the same sampled edges."""
    counts = _mc_counts(P, GnpModel(n, p, seed), 80, workers=2)
    want = [count_copies(P, SimpleGraph(n, zip(u.tolist(), v.tolist())))
            for u, v in _raw_samples(n, p, seed, 80)]
    return counts.tolist(), want


@pytest.mark.parametrize("seed,n,name", [
    (seed, n, name) for seed in (0, 1) for n in (4, 5, 6, 7, 30, 400) for name in ("k3", "c4", "k4")
] + [(seed, n, "k5") for seed in (0, 1) for n in (8, 30)])
def test_mc_counts_match_unpruned_kernel(name, n, seed):
    # neither the lookup in the exact copy count array (n <= 7) nor the
    # delta-core prune, the truss prune and the component split drops a
    # copy: the engine's counts equal the kernel's on the full graphs
    P = named_pattern(name)
    p = 1.5 * threshold_probability(n, P.delta)  # every case then sees copies
    counts, want = _replay_unpruned(P, n, p, seed)
    assert counts == want
    assert sum(want) > 0


@pytest.mark.parametrize("n", (5, 6, 7))
@pytest.mark.parametrize("name", ("k3", "c4", "k4", "@c5"))
def test_mc_counts_at_exact_n_match_the_copy_count_array(name, n, tmp_path):
    # up to MAX_EXACT_N each sampled graph's copies are counted by testing
    # every copy mask of K_n: the counts equal the full copy-count array
    # read at the graph's edge bitmask, ORed here bit by bit
    if name.startswith("@"):
        path = tmp_path / "c5.edges"
        path.write_text(write_edge_list(cycle_graph(5)))
        P = _load_pattern(f"@{path}")
    else:
        P = named_pattern(name)
    p, count = 0.5, 400
    graph, u, v = sample_gnp_batch(n, p, count, worker_rng(11, n))
    masks = np.zeros(count, dtype=np.int64)
    np.bitwise_or.at(masks, graph, np.left_shift(1, u * (2 * n - u - 1) // 2 + v - u - 1))
    want = copy_count_array(P, n)[masks]
    assert tails._batch_counts(P, n, p, count, worker_rng(11, n)).tolist() == want.tolist()
    assert want.sum() > 0


@pytest.mark.parametrize("n", range(2, MAX_EXACT_N + 1))
def test_batch_counts_at_exact_n_decode_no_slot(n, monkeypatch):
    # up to MAX_EXACT_N a sampled slot is its edge's bit: the masks are
    # built from the slots and no slot is decoded into its pair
    P = named_pattern("k3")
    want = tails._batch_counts(P, n, 0.5, 300, worker_rng(2, n))

    def refuse(*args):
        raise AssertionError("a slot was decoded")

    monkeypatch.setattr(graphs, "_slot_pairs", refuse)
    assert tails._batch_counts(P, n, 0.5, 300, worker_rng(2, n)).tolist() == want.tolist()
    with pytest.raises(AssertionError):
        tails._batch_counts(P, MAX_EXACT_N + 1, 0.5, 3, worker_rng(2, n))


@pytest.mark.parametrize("name", ["k3", "c4"])
def test_mc_counts_match_unpruned_kernel_supercritical(name):
    # at 3x the threshold the 2-cores hold long cycles next to complex
    # components, so both the closed-form cycle count and the kernel run
    P = named_pattern(name)
    counts, want = _replay_unpruned(P, 400, 3 * threshold_probability(400, 2), 0)
    assert counts == want
    assert sum(want) > 0


def _cycle(*vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]

THETA = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)]
# a 4-cycle (closed form) next to a bowtie and a theta (kernel)
MIXED = _cycle(0, 1, 2, 3) + _cycle(4, 5, 6) + _cycle(6, 7, 8) + [
    (x + 9, y + 9) for x, y in THETA]

# hand-built graphs on 16 vertices, one chunk in this order
CHUNK_GRAPHS = {
    "triangle": _cycle(0, 1, 2),
    "4-cycle": _cycle(3, 4, 5, 6),
    "5-cycle": _cycle(0, 2, 4, 6, 8),
    "bowtie": _cycle(0, 1, 2) + _cycle(2, 3, 4),
    "theta": THETA,
    "cycle with chord": _cycle(0, 1, 2, 3, 4) + [(0, 2)],
    "cycle with pendant tree": _cycle(0, 1, 2, 3) + [(3, 4), (4, 5), (4, 6)],
    "K4 with pendant path": K4_EDGES + [(3, 4), (4, 5), (5, 6)],
    "triangle and 4-cycle": _cycle(0, 1, 2) + _cycle(3, 4, 5, 6),
    "4-cycle, bowtie and theta": MIXED,
    "empty": [],
}

# pattern -> the edges of the complex components left after the delta-core
# and truss prunes, per graph that has one; for K3 the truss prune drops the
# theta, the 4-cycle and the cycle's edges off the chord's triangle
KERNEL_EDGES = {
    "k3": {"bowtie": CHUNK_GRAPHS["bowtie"], "K4 with pendant path": K4_EDGES,
           "4-cycle, bowtie and theta": MIXED[4:10]},
    "c4": {"bowtie": CHUNK_GRAPHS["bowtie"], "theta": CHUNK_GRAPHS["theta"],
           "cycle with chord": CHUNK_GRAPHS["cycle with chord"],
           "K4 with pendant path": K4_EDGES, "4-cycle, bowtie and theta": MIXED[4:]},
    "k4": {"K4 with pendant path": K4_EDGES},
}

K5_EDGES = [(a, b) for a in range(5) for b in range(a + 1, 5)]


def _diamond(s, x, y, t):
    """Two triangles on the edge (x, y), with tips s and t."""
    return [(s, x), (s, y), (x, y), (x, t), (y, t)]


# hand-built graphs on 16 vertices for the truss prune, one chunk in this order
TRUSS_GRAPHS = {
    "K4 with pendant triangle": K4_EDGES + _cycle(3, 4, 5),
    "chain of diamonds": _diamond(0, 1, 2, 3) + _diamond(3, 4, 5, 6) + _diamond(6, 7, 8, 9),
    "ring of diamonds": _diamond(0, 1, 2, 3) + _diamond(3, 4, 5, 6) + _diamond(6, 7, 8, 0),
    "K5 minus an edge": K5_EDGES[:-1],
    "wheel W6": _cycle(1, 2, 3, 4, 5, 6) + [(0, v) for v in range(1, 7)],
    "two K4 sharing an edge": K4_EDGES + [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)],
    "K5 and a K4": K5_EDGES + [(a + 5, b + 5) for a, b in K4_EDGES],
}
# pattern -> the edges the kernel sees, per graph it runs on (K3 and C4:
# every graph, whole). For K4 the ring of diamonds and the wheel are
# 3-cores without a K4: their tip and rim edges lie in one triangle each,
# so the prune leaves nothing.
TRUSS_KERNEL = {
    "k4": {g: TRUSS_GRAPHS[g] for g in ("K5 minus an edge", "two K4 sharing an edge",
                                        "K5 and a K4")} | {"K4 with pendant triangle": K4_EDGES},
    "k5": {"K5 and a K4": K5_EDGES},
}


def _chunk(graphs):
    """One chunk's (graph, u, v) arrays, sorted by graph, then by (u, v)."""
    rows = sorted((i, min(e), max(e)) for i, edges in enumerate(graphs) for e in edges)
    return tuple(np.array([r[j] for r in rows], dtype=np.int64) for j in range(3))


def _kernel_calls(monkeypatch):
    """The edges of each graph the copy kernel is called on in tails."""
    calls = []

    def counting(P, g):
        calls.append(g.edges)
        return count_copies(P, g)

    monkeypatch.setattr(tails, "count_copies", counting)
    return calls


@pytest.mark.parametrize("name", ["k3", "c4", "k4"])
def test_chunk_counts_hand_built(name, monkeypatch):
    P = named_pattern(name)
    graphs = list(CHUNK_GRAPHS.values())
    want = [count_copies(P, SimpleGraph(16, edges)) for edges in graphs]
    calls = _kernel_calls(monkeypatch)
    got = _chunk_counts(P, 16, len(graphs), *_chunk(graphs))
    assert got.tolist() == want
    # the kernel runs once per graph with a complex core component, on
    # those components' edges only, and never on a graph of cycles
    kernel = KERNEL_EDGES[name]
    assert calls == [SimpleGraph(16, kernel[g]).edges for g in CHUNK_GRAPHS if g in kernel]
    if name == "k3":
        assert want == [1, 0, 0, 2, 0, 1, 0, 4, 1, 2, 0]
    if name == "c4":
        assert want == [0, 1, 0, 0, 1, 1, 1, 3, 1, 2, 0]


@pytest.mark.parametrize("name", ["k3", "c4", "k4", "k5"])
def test_chunk_counts_truss_prune(name, monkeypatch):
    P = named_pattern(name)
    graphs = list(TRUSS_GRAPHS.values())
    want = [count_copies(P, SimpleGraph(16, edges)) for edges in graphs]
    calls = _kernel_calls(monkeypatch)
    got = _chunk_counts(P, 16, len(graphs), *_chunk(graphs))
    assert got.tolist() == want
    kernel = TRUSS_KERNEL.get(name, TRUSS_GRAPHS)
    assert calls == [SimpleGraph(16, kernel[g]).edges for g in TRUSS_GRAPHS if g in kernel]
    if name == "k4":
        assert want == [1, 0, 0, 2, 0, 2, 6]
    if name == "k5":
        assert want == [0, 0, 0, 0, 0, 0, 1]


def test_chunk_counts_skip_small_complex_components(monkeypatch):
    # for C5 a diamond (4 vertices, 5 edges) is complex but too small for a
    # copy, so the kernel sees only the theta with two 5-cycles
    P = make_pattern(cycle_graph(5))
    graphs = [_cycle(0, 1, 2, 3) + [(0, 2)], _cycle(0, 1, 2, 3, 4),
              [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)]]
    calls = _kernel_calls(monkeypatch)
    got = _chunk_counts(P, 12, 3, *_chunk(graphs))
    assert got.tolist() == [count_copies(P, SimpleGraph(12, g)) for g in graphs] == [0, 1, 2]
    assert calls == [SimpleGraph(12, graphs[2]).edges]


def _assert_keeps_truss_core(P, n, graph, u, v, monkeypatch):
    """`_chunk_counts` keeps exactly the edges the set fixpoint keeps (the
    copy kernel stubbed out: only the kept edges are checked)."""
    kept = []

    def recording(*args):
        kept.append(_core_edges(*args))
        return kept[-1]

    monkeypatch.setattr(tails, "_core_edges", recording)
    monkeypatch.setattr(tails, "count_copies", lambda P, g: 0)
    _chunk_counts(P, n, int(graph.max(initial=0)) + 1, graph, u, v)
    ((keep, *_),) = kept
    edges = [((g, x), (g, y)) for g, x, y in zip(graph.tolist(), u.tolist(), v.tolist())]
    assert {edges[i] for i in keep.tolist()} == truss_core_oracle(edges, P.delta, P.edge_triangles)


@pytest.mark.parametrize("scale", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("n", [30, 400])
@pytest.mark.parametrize("name", ["k3", "k4", "k5"])
def test_chunk_counts_keep_the_truss_core(name, n, scale, monkeypatch):
    # a degree round (when the chunk's mean degree is below delta), the
    # truss prune and the delta-core peel, alternated: any order of
    # removals reaches the one largest subgraph with degree >= delta and
    # every edge in >= t(H) triangles
    P = named_pattern(name)
    p = scale * threshold_probability(n, P.delta)
    graph, u, v = sample_gnp_batch(n, p, min(4, _chunk_graphs(n, p)), worker_rng(7, n))
    _assert_keeps_truss_core(P, n, graph, u, v, monkeypatch)


def _first_support_call(name, n, monkeypatch):
    """The chunk degrees and edges of a threshold chunk of the pattern at
    n, and the edges of the first `triangle_support` call that `_core_edges`
    makes on it."""
    P = named_pattern(name)
    p = threshold_probability(n, P.delta)
    count = _chunk_graphs(n, p)
    graph, u, v = sample_gnp_batch(n, p, count, worker_rng(4, n))
    a, b, size = graph * n + u, graph * n + v, count * n
    seen = []

    def spy(x, y, labels):
        seen.append((x, y))
        return triangle_support(x, y, labels)

    monkeypatch.setattr(tails, "triangle_support", spy)
    _core_edges(a, b, size, P.delta, P.edge_triangles)
    return np.bincount(np.concatenate((a, b)), minlength=size), a, b, seen[0]


def test_degree_round_drops_low_degree_edges_before_the_k3_support(monkeypatch):
    # K3 at its threshold has mean degree about 1 < delta = 2: the first
    # support count sees no edge at a vertex of chunk degree below 2
    deg, a, b, (x, y) = _first_support_call("k3", 400, monkeypatch)
    assert 2 * len(a) < 2 * len(deg)
    assert len(x) and np.all(deg[x] >= 2) and np.all(deg[y] >= 2)
    low = (deg[a] < 2) | (deg[b] < 2)
    assert len(x) == len(a) - low.sum()


@pytest.mark.parametrize("name", ["k4", "k5"])
def test_degree_round_is_skipped_above_mean_degree_delta(name, monkeypatch):
    # K4 and K5 at their thresholds have mean degree above delta: the first
    # support count gets the raw chunk
    deg, a, b, (x, y) = _first_support_call(name, 400, monkeypatch)
    assert 2 * len(a) >= named_pattern(name).delta * len(deg)
    assert np.array_equal(x, a) and np.array_equal(y, b)


@pytest.mark.parametrize("name", ["k3", "c4", "k4", "k5"])
@pytest.mark.parametrize("graphs", [CHUNK_GRAPHS, TRUSS_GRAPHS], ids=["chunk", "truss"])
def test_chunk_counts_keep_the_truss_core_hand_built(name, graphs, monkeypatch):
    _assert_keeps_truss_core(named_pattern(name), 16, *_chunk(list(graphs.values())), monkeypatch)


@pytest.mark.parametrize("triangles", [0, 1])
@pytest.mark.parametrize("pairs,kept", [
    (_cycle(3, 9, 40) + _cycle(12, 20, 45), True),  # spread-out labels, none dropped
    ([(0, 5), (5, 9), (9, 30), (2, 8)], False),
    ([], False),
], ids=["none-dropped", "all-dropped", "empty"])
def test_core_edges_labels_are_compact(pairs, kept, triangles):
    a, b = (np.array([e[j] for e in pairs], dtype=np.int64) for j in range(2))
    idx, ca, cb, size = _core_edges(a, b, 50, 2, triangles)
    assert idx.tolist() == (list(range(len(pairs))) if kept else [])
    ends = np.unique(np.concatenate((a[idx], b[idx])))
    assert size == len(ends)
    # labels number the kept edges' endpoints in their input order
    assert ca.tolist() == np.searchsorted(ends, a[idx]).tolist()
    assert cb.tolist() == np.searchsorted(ends, b[idx]).tolist()


def test_triangle_support_ignores_edge_order_and_orientation():
    # a K4-threshold chunk as the sampler lays it out, shuffled, and with
    # every edge's ends swapped: the supports follow the edges
    n = 30
    graph, u, v = sample_gnp_batch(n, 3 * threshold_probability(n, 3), 5, worker_rng(3, 0))
    a, b, size = graph * n + u, graph * n + v, 5 * n
    want = triangle_support(a, b, size)
    assert want.tolist() == _support_oracle(a, b, size)
    assert want.sum() > 0
    perm = np.random.default_rng(0).permutation(len(a))
    assert triangle_support(a[perm], b[perm], size).tolist() == want[perm].tolist()
    assert triangle_support(b, a, size).tolist() == want.tolist()
    assert triangle_support(b[perm], a[perm], size).tolist() == want[perm].tolist()


def _random_edges(rng, size, density):
    """A random simple edge set on 0..size-1 as (a, b) arrays, in random
    order and with each edge's ends in random order."""
    pairs = np.array([(u, v) for u in range(size) for v in range(u + 1, size)],
                     dtype=np.int64).reshape(-1, 2)
    edges = rng.permutation(pairs[rng.random(len(pairs)) < density])
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges[:, 0], edges[:, 1]


def _support_oracle(a, b, size):
    return triangle_support_oracle(size, zip(a.tolist(), b.tolist()))


@pytest.mark.parametrize("seed", range(8))
def test_triangle_support_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 40))
    a, b = _random_edges(rng, size, rng.random())
    got = triangle_support(a, b, size)
    assert got.dtype == np.int64
    assert got.tolist() == _support_oracle(a, b, size)


@pytest.mark.parametrize("seed", range(3))
def test_triangle_support_on_a_chunk(seed, monkeypatch):
    # graphs laid side by side as in a chunk, some labels left with no
    # edges: each graph's supports are its own, wherever it sits, and the
    # same when the pairs are closed a few at a time
    rng = np.random.default_rng(seed)
    n, count = 20, 6
    parts = [_random_edges(rng, n, rng.uniform(0.1, 0.6)) for _ in range(count)]
    size = 3 * n * count
    spread = np.sort(rng.choice(size, n * count, replace=False))  # unused labels between
    a = np.concatenate([spread[g * n + x] for g, (x, _) in enumerate(parts)])
    b = np.concatenate([spread[g * n + y] for g, (_, y) in enumerate(parts)])
    got = triangle_support(a, b, size)
    assert got.tolist() == sum((_support_oracle(x, y, n) for x, y in parts), [])
    monkeypatch.setattr(tails, "SUPPORT_BLOCK", 5)
    assert triangle_support(a, b, size).tolist() == got.tolist()


def test_triangle_support_small_cases():
    empty = np.zeros(0, dtype=np.int64)
    assert triangle_support(empty, empty, 0).tolist() == []
    assert triangle_support(empty, empty, 9).tolist() == []
    a, b = (np.array(x, dtype=np.int64) for x in zip(*complete_graph(12).edges))
    assert triangle_support(a, b, 12).tolist() == [10] * 66
    assert triangle_support(b + 5, a + 5, 40).tolist() == [10] * 66
    a, b = (np.array(x, dtype=np.int64) for x in zip(*_cycle(0, 1, 2, 3)))
    assert triangle_support(a, b, 4).tolist() == [0] * 4


@pytest.mark.parametrize("seed", range(6))
def test_components_match_union_find(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 300))
    cases = []
    m = int(rng.integers(0, 2 * size))  # random edge set, loops and repeats kept
    cases.append((rng.integers(0, size, m), rng.integers(0, size, m)))
    child = np.arange(1, size)  # a forest: most vertices hang below a smaller one
    parent = rng.integers(0, child)
    forest = rng.random(size - 1) < 0.8
    relabel = rng.permutation(size)
    cases.append((relabel[child[forest]], relabel[parent[forest]]))
    isolated = rng.random(size) < 0.3  # edges only among the other vertices
    pool = np.flatnonzero(~isolated)
    if len(pool):
        cases.append((rng.choice(pool, size), rng.choice(pool, size)))
    for a, b in cases:
        got = _components(a.astype(np.int64), b.astype(np.int64), size)
        assert got.tolist() == component_labels_oracle(size, zip(a.tolist(), b.tolist()))


def test_components_rounds_on_long_cycle(monkeypatch):
    size = 10**5
    label = np.random.default_rng(0).permutation(size)
    a, b = label, np.roll(label, 1)
    rounds = []
    hook = tails._hook

    def counted(par, a, b):
        rounds.append(len(a))
        return hook(par, a, b)

    monkeypatch.setattr(tails, "_hook", counted)
    assert not _components(a, b, size).any()
    assert len(rounds) <= 40


@pytest.mark.parametrize("name", ["k3", "c4", "k4"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_mc_counts_at_p_zero_and_one(name, n):
    P = named_pattern(name)
    assert not _mc_counts(P, GnpModel(n, 0.0, 3), 50, workers=2).any()
    full = math.comb(n, P.q) * P.copies_per_set
    assert _mc_counts(P, GnpModel(n, 1.0, 3), 50, workers=2).tolist() == [full] * 50


def test_mc_counts_skip_empty_worker_shares(k3, monkeypatch):
    # with more workers than samples the workers past the last sample have
    # empty shares: they open no stream, and the counts are unchanged
    model = GnpModel(30, 0.1, 1)
    want = _mc_counts(k3, model, 3, workers=3)
    streams = []

    def counted(seed, w):
        streams.append(w)
        return worker_rng(seed, w)

    monkeypatch.setattr(tails, "worker_rng", counted)
    assert np.array_equal(_mc_counts(k3, model, 3, workers=10**5), want)
    assert want.any() and len(streams) <= 3


def test_mc_counts_below_pattern_size(k4):
    assert not _mc_counts(k4, GnpModel(3, 0.9, 0), 200).any()


def test_expected_copy_count(k3):
    lam = expected_copy_count(k3, 400, 1 / 400)
    assert lam == pytest.approx(math.comb(400, 3) / 400**3)
    assert lam == pytest.approx(0.16542, abs=5e-6)


def test_poisson_diagnostic_small(k3):
    model = GnpModel(60, threshold_probability(60, 2), seed=0)
    diag = poisson_diagnostic(k3, model, 20_000, workers=2)
    assert sum(diag.empirical_pmf.values()) == pytest.approx(1.0, abs=1e-9)
    assert diag.tv_distance < 0.05


def test_poisson_diagnostic_p_zero(k3):
    diag = poisson_diagnostic(k3, GnpModel(30, 0.0, seed=0), 500)
    assert diag.empirical_pmf == {0: 1.0}
    assert diag.lam == 0.0
    assert diag.tv_distance == pytest.approx(0.0)


def test_clique_lower_bound(k3):
    assert clique_lower_bound(k3, 6, 1 / 6, 4) == pytest.approx((1 / 6) ** 6)
    assert clique_lower_bound(k3, 10, 0.3, 1) == pytest.approx(0.3**3)
    values = [clique_lower_bound(k3, 30, 0.2, k) for k in range(1, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(TooFewVerticesError):
        clique_lower_bound(k3, 3, 0.2, 2)


def test_clique_bound_below_exact(k3):
    p = 1 / 6
    tab = tail_probability_table(k3, 6, p)
    assert clique_lower_bound(k3, 6, p, 4) <= tab[4]


def test_disjoint_lower_bound(k3):
    r = exact_probability(GnpModel(6, 0.3), CopiesAtLeast(k3, 1))
    assert disjoint_lower_bound(k3, 12, 0.3, 2) == r**2
    assert disjoint_lower_bound(k3, 6, 0.3, 1) == r  # one block: the whole graph
    assert disjoint_lower_bound(k3, 14, 1 - 1e-12, 2) == pytest.approx(1.0)
    with pytest.raises(BlockTooSmallError):
        disjoint_lower_bound(k3, 5, 0.3, 2)


def test_disjoint_bound_vs_mc(k3):
    # block product is a genuine lower bound for the n = 12 tail at k = 2
    p = 0.3
    b = disjoint_lower_bound(k3, 12, p, 2)
    row = mc_tail(k3, GnpModel(12, p, seed=3), 2, 30_000)
    assert b <= row.ci_high


def test_disjoint_bound_above_the_exact_size(k3):
    # blocks of 12 vertices get the second-moment bound; a pattern of 8
    # vertices is above its cap
    assert disjoint_lower_bound(k3, 24, 0.3, 2) == second_moment_bound(k3, 12, 0.3) ** 2
    with pytest.raises(TooLargeError):
        disjoint_lower_bound(make_pattern(cycle_graph(8)), 24, 0.3, 2)


@pytest.mark.parametrize("name", ["k3", "c4", "k4", "k5"])
def test_second_moment_bound_against_exact_moments(name):
    # E[X] and E[X**2] from the exact tail table, and r = P(X >= 1) above
    # the bound (up to the table's float rounding)
    P = named_pattern(name)
    for m in range(P.q, MAX_EXACT_N + 1):
        for p in (0.05, 0.15, 0.3, 0.6, 0.95):
            tail = tail_probability_table(P, m, p)[1:]
            odd = 2 * np.arange(1, len(tail) + 1) - 1
            bound = second_moment_bound(P, m, p)
            assert bound == pytest.approx(tail.sum() ** 2 / (odd * tail).sum(), rel=1e-9)
            assert 0 < bound <= tail[0] * (1 + 1e-12)


@pytest.mark.parametrize("name", ["k3", "c4"])
def test_second_moment_bound_below_mc_tail(name):
    # the sparse regime, where the bound is close to the tail itself
    P = named_pattern(name)
    row = mc_tail(P, GnpModel(200, 1 / 400, 13), 1, 20000)
    assert 0 < second_moment_bound(P, 200, 1 / 400) <= row.ci_high


def test_second_moment_bound_edge_cases(k3):
    k5 = named_pattern("k5")
    assert second_moment_bound(k5, 8, 0.0) == 0.0  # not the ratio's 0/0
    assert second_moment_bound(k5, 8, 1.0) == 1.0
    for m in (8, 10**6):  # p**-20 alone overflows a float here
        assert 0.0 <= second_moment_bound(k5, m, 1e-12) <= 1.0
    assert second_moment_bound(make_pattern(complete_graph(7)), 9, 1.0) == 1.0
    with pytest.raises(TooLargeError):
        second_moment_bound(make_pattern(cycle_graph(8)), 9, 0.5)
    with pytest.raises(DomainError):
        second_moment_bound(k3, 9, 1.5)
    for m in (0, 2):  # no copy fits, as at p = 0
        assert second_moment_bound(k3, m, 0.3) == 0.0
    with pytest.raises(DomainError):
        second_moment_bound(k3, -1, 0.3)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["k3", "c4"])
def test_scan_at_large_n_leaves_the_main_stream(name, workers):
    # the disjoint bound is a closed form and draws nothing, so every other
    # column is what mc_tail and the closed forms give
    P = named_pattern(name)
    res = scan_phase_transition(P, 400, range(1, 7), 600, seed=8, workers=workers)
    for row in res.rows:
        tail = mc_tail(P, GnpModel(400, res.p, 8), row.k, 600, workers)
        assert (row.k, row.n, row.p, row.estimate, row.ci_low, row.ci_high, row.samples) == (
            tail.k, tail.n, tail.p, tail.estimate, tail.ci_low, tail.ci_high, tail.samples)
        assert row.exact is None
        assert row.L_value == (tail_rate(row.k, 400, P.q) if row.k >= 2 else 0.0)
        assert row.clique_lb == clique_lower_bound(P, 400, res.p, row.k)
        assert type(row.disjoint_lb) is float  # a numpy scalar's repr is no CSV cell


def _assert_disjoint_column_is_the_rule(P, n, ks, p=None):
    """Every scan row's disjoint_lb is disjoint_lower_bound, and None
    exactly where that raises."""
    res = scan_phase_transition(P, n, ks, 50, p=p, seed=4)
    for row in res.rows:
        try:
            want = disjoint_lower_bound(P, n, res.p, row.k)
        except (BlockTooSmallError, TooLargeError):
            want = None
        assert row.disjoint_lb == want
    return res.rows


@pytest.mark.parametrize("n,ks", [(6, range(1, 4)), (24, range(1, 9)),
                                  (400, (1, 2, 3, 50, 57, 100, 134))])
@pytest.mark.parametrize("name", ["k3", "c4", "k4"])
def test_scan_disjoint_column_is_disjoint_lower_bound(name, n, ks):
    # blocks of m = n // k on both sides of the exact size, and below q
    _assert_disjoint_column_is_the_rule(named_pattern(name), n, ks)


def test_scan_blocks_smaller_than_the_pattern():
    # C9 at n = 16: blocks of 8 and 5 vertices cannot hold a 9-cycle, and
    # the whole graph is one block of a pattern above the second-moment cap
    rows = _assert_disjoint_column_is_the_rule(make_pattern(cycle_graph(9)), 16, [1, 2, 3], 0.12)
    assert [r.disjoint_lb for r in rows] == [None, None, None]


def _scan_peak(samples):
    """tracemalloc's peak over a K3 scan at n = 30 and p = 0.2, about 70
    kept edges a graph, sampled 11 graphs a chunk."""
    tracemalloc.start()
    try:
        scan_phase_transition(named_pattern("k3"), 30, [1, 2, 3], samples, p=0.2, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_within_a_chunk(monkeypatch):
    # each chunk is sampled and counted on its own and only its copy counts
    # are kept, so four times the draws cost no more memory; holding every
    # chunk's kept edges to the end would take about 2 KB a draw, 3x the
    # peak at 400 draws
    monkeypatch.setattr(tails, "MC_CHUNK_ENTRIES", 1024)
    assert _scan_peak(400) < 1.5 * _scan_peak(100)


def test_crossover():
    # brute scan oracle
    def brute(q, log_n):
        k = 2
        while k ** (1 - 2 / q) * math.log(k) < log_n:
            k += 1
        return k

    for q, log_n in ((3, 10.0), (3, 1.0), (4, 7.5), (5, 3.0)):
        assert crossover_k(q, log_n) == brute(q, log_n)
    assert crossover_k(3, 10.0) == 28


def test_scan(k3):
    res = scan_phase_transition(k3, 6, range(1, 5), 4000, seed=2, workers=2)
    assert len(res.rows) == 4
    tab = tail_probability_table(k3, 6, res.p)
    for row in res.rows:
        assert row.exact == pytest.approx(tab[row.k], rel=1e-12)
        assert row.ci_low <= row.estimate <= row.ci_high
        if row.clique_lb is not None and row.estimate > 0:
            assert row.clique_lb <= row.ci_high
        if row.disjoint_lb is not None:
            assert row.disjoint_lb <= row.exact + 1e-12
    assert res.crossover == crossover_k(3, math.log(6))


def test_csv_schema(k3):
    res = scan_phase_transition(k3, 6, range(1, 3), 500, seed=0)
    text = rows_to_csv(res.rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == (
        "k,n,p,estimate,ci_low,ci_high,exact,L_value,clique_lb,disjoint_lb,samples"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] == "500"
    # json mirror parses and matches row count
    payload = json.loads(rows_to_json(res.rows, crossover=res.crossover))
    assert len(payload["rows"]) == 2
    assert payload["crossover"] == res.crossover


def test_writers_share_the_tail_row_schema(k3):
    # the CSV columns and the JSON row keys are TailRow's fields, no more
    fields = {f.name for f in dataclasses.fields(TailRow)}
    columns = CSV_HEADER.split(",")
    assert len(columns) == len(fields) and set(columns) == fields
    rows = scan_phase_transition(k3, 6, range(1, 3), 100, seed=0).rows
    assert [set(r) for r in json.loads(rows_to_json(rows))["rows"]] == [fields, fields]


def test_csv_cell_of_a_numpy_scalar():
    row = TailRow(k=2, n=24, p=0.15, estimate=0.5, ci_low=0.25, ci_high=0.75,
                  samples=4, disjoint_lb=np.float64(0.0004))
    header, line = rows_to_csv([row]).splitlines()
    assert dict(zip(header.split(","), line.split(",")))["disjoint_lb"] == "0.0004"


def test_scan_determinism(k3):
    a = scan_phase_transition(k3, 6, range(1, 5), 3000, seed=11, workers=2)
    b = scan_phase_transition(k3, 6, range(1, 5), 3000, seed=11, workers=2)
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)
