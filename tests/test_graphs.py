import itertools
import math

import numpy as np
import pytest

from regtail.errors import (
    DomainError,
    NotConnectedError,
    NotRegularError,
    ParseError,
    TooSmallError,
)
from regtail.graphs import (
    GnpModel,
    SimpleGraph,
    _slot_pairs,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_pattern,
    read_edge_list,
    sample_gnp,
    sample_gnp_batch,
    sample_gnp_with,
    thin_edges,
    threshold_probability,
    worker_rng,
    write_edge_list,
)


def test_simple_graph_validation():
    g = SimpleGraph(4, [(1, 0), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(0) == 1 and g.degree(3) == 1
    with pytest.raises(DomainError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(DomainError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(DomainError):
        SimpleGraph(3, [(0, 1), (1, 0)])


def test_make_pattern_k3():
    p = make_pattern(complete_graph(3))
    assert (p.q, p.delta, p.edge_count, p.aut_count) == (3, 2, 3, 6)


def test_make_pattern_c4():
    p = make_pattern(cycle_graph(4))
    assert (p.q, p.delta, p.edge_count, p.aut_count) == (4, 2, 4, 8)


def test_make_pattern_rejects_path():
    path = SimpleGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularError):
        make_pattern(path)


def test_make_pattern_rejects_small_and_disconnected():
    with pytest.raises(TooSmallError):
        make_pattern(SimpleGraph(2, [(0, 1)]))
    two_triangles = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotConnectedError):
        make_pattern(two_triangles)


def test_complete_graph_automorphisms():
    for q in range(3, 7):
        p = make_pattern(complete_graph(q))
        assert p.aut_count == math.factorial(q)


def test_petersen_automorphisms():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    p = make_pattern(SimpleGraph(10, outer + spokes + inner))
    assert (p.q, p.delta, p.edge_count, p.aut_count) == (10, 3, 15, 120)


def test_threshold_probability():
    assert threshold_probability(100, 2) == pytest.approx(0.01)
    assert threshold_probability(16, 4) == pytest.approx(0.25)
    assert threshold_probability(2, 2) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        threshold_probability(1, 2)
    with pytest.raises(DomainError):
        threshold_probability(10, 1)


def test_sample_gnp_endpoints():
    assert sample_gnp(GnpModel(8, 0.0, seed=1)) == empty_graph(8)
    assert sample_gnp(GnpModel(6, 1.0, seed=1)) == complete_graph(6)


def test_sample_gnp_deterministic():
    a = sample_gnp(GnpModel(30, 0.2, seed=42))
    b = sample_gnp(GnpModel(30, 0.2, seed=42))
    c = sample_gnp(GnpModel(30, 0.2, seed=43))
    assert a == b
    assert a != c


def test_sample_gnp_mean_edge_count():
    # Binomial(4950, 0.01): mean 49.5; the sample mean over N draws has
    # sigma = sqrt(4950 * 0.01 * 0.99 / N)
    n_samples = 100_000
    rng = worker_rng(2024, 0)
    total = 0
    for _ in range(n_samples):
        total += sample_gnp_with(100, 0.01, rng).m
    mean = total / n_samples
    sigma = math.sqrt(4950 * 0.01 * 0.99 / n_samples)
    assert abs(mean - 49.5) <= 3 * sigma


def test_batch_slot_frequencies():
    # each of the 10 slots of K5 holds an edge in a share p of 20000 graphs
    n, p, count = 5, 0.3, 20_000
    graph, u, v = sample_gnp_batch(n, p, count, worker_rng(11, 0))
    assert np.all(np.diff(graph * 25 + u * 5 + v) > 0)  # sorted, no repeats
    freq = np.bincount(u * (2 * n - u - 1) // 2 + v - u - 1, minlength=10) / count
    se = math.sqrt(p * (1 - p) / count)
    assert np.all(np.abs(freq - p) <= 5 * se), freq
    per_graph = np.bincount(graph, minlength=count)
    assert abs(per_graph.mean() - 10 * p) <= 5 * math.sqrt(10 * p * (1 - p) / count)


def test_batch_endpoints_and_empty_cases():
    rng = worker_rng(3, 0)
    graph, u, v = sample_gnp_batch(6, 1.0, 3, rng)
    pairs = list(itertools.combinations(range(6), 2))
    assert graph.tolist() == [i for i in range(3) for _ in pairs]
    assert list(zip(u.tolist(), v.tolist())) == pairs * 3
    assert all(len(a) == 0 for a in sample_gnp_batch(6, 0.0, 3, rng))
    # the first geometric gap saturates at 2**63 - 1 and must not wrap or land in range
    assert all(len(a) == 0 for a in sample_gnp_batch(5, 1e-300, 1, rng))
    for n in (0, 1, 2):
        assert all(len(a) == 0 for a in sample_gnp_batch(n, 0.5, 0, rng))
    for n in (0, 1):
        assert all(len(a) == 0 for a in sample_gnp_batch(n, 1.0, 4, rng))
    assert sample_gnp_batch(2, 1.0, 2, rng)[0].tolist() == [0, 1]
    with pytest.raises(DomainError):
        sample_gnp_batch(5, 1.5, 1, rng)


def test_slot_pairs_row_major():
    for n in range(61):
        u, v = _slot_pairs(n, np.arange(n * (n - 1) // 2))
        assert list(zip(u.tolist(), v.tolist())) == list(itertools.combinations(range(n), 2))
    # the last 20 rows of K_100000
    n = 100_000
    rows = range(n - 21, n - 1)
    want_u = np.concatenate([np.full(n - 1 - r, r) for r in rows])
    want_v = np.concatenate([np.arange(r + 1, n) for r in rows])
    m = n * (n - 1) // 2
    u, v = _slot_pairs(n, np.arange(m - len(want_u), m))
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
    # first and last slot of some rows of K_(10^9), where the float root is off by one
    n = 10**9
    pairs = [(u, v) for u in (0, 1, 12345, n // 2, n - 3, n - 2) for v in (u + 1, n - 1)]
    slots = np.array([u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in pairs])
    u, v = _slot_pairs(n, slots)
    assert list(zip(u.tolist(), v.tolist())) == pairs


def test_thin_edges_endpoints():
    g = complete_graph(5)
    rng = np.random.default_rng(0)
    assert thin_edges(g, 1.0, rng) == g
    thinned = thin_edges(g, 0.0, rng)
    assert thinned.m == 0 and thinned.n == 5
    with pytest.raises(DomainError):
        thin_edges(g, 1.5, rng)


def test_thinning_composition():
    # inclusion of a fixed edge after sample(p1) + thin(p2) is Bernoulli(p1*p2)
    p1, p2 = 0.6, 0.5
    trials = 100_000
    rng = worker_rng(7, 0)
    hits = 0
    for _ in range(trials):
        g = sample_gnp_with(5, p1, rng)
        t = thin_edges(g, p2, rng)
        hits += t.has_edge(0, 1)
    target = p1 * p2
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(hits / trials - target) <= 3 * sigma


def test_edge_list_roundtrip():
    g = read_edge_list("3 1\n0 1\n")
    assert g.n == 3 and g.edges == ((0, 1),)
    k4 = complete_graph(4)
    assert read_edge_list(write_edge_list(k4)) == k4
    ring = cycle_graph(7)
    assert read_edge_list(write_edge_list(ring)) == ring


def test_edge_list_errors():
    with pytest.raises(ParseError):
        read_edge_list("3 1\n0 3\n")  # endpoint out of range
    with pytest.raises(ParseError):
        read_edge_list("3 1\n0 0\n")  # self-loop
    with pytest.raises(ParseError):
        read_edge_list("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(ParseError):
        read_edge_list("3 2\n0 1\n")  # wrong edge count
    with pytest.raises(ParseError):
        read_edge_list("3 one\n")  # bad token
    with pytest.raises(ParseError):
        read_edge_list("")


def test_worker_streams_are_independent():
    a = worker_rng(5, 0).random(4).tolist()
    b = worker_rng(5, 1).random(4).tolist()
    a2 = worker_rng(5, 0).random(4).tolist()
    assert a == a2
    assert a != b
