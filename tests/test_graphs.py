import itertools
import math

import numpy as np
import pytest
from oracles import automorphism_count, slot_pair_oracle

from regtail import counting, graphs
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
    make_pattern,
    named_pattern,
    read_edge_list,
    sample_gnp,
    sample_gnp_batch,
    sample_gnp_slots,
    sample_gnp_with,
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
    interleaved = SimpleGraph(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    two_c5 = SimpleGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    for g in (two_triangles, interleaved, two_c5):
        with pytest.raises(NotConnectedError):
            make_pattern(g)


def test_complete_graph_automorphisms():
    for q in range(3, 7):
        p = make_pattern(complete_graph(q))
        assert p.aut_count == math.factorial(q)


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
OCTAHEDRON = [(a, b) for a, b in itertools.combinations(range(6), 2) if b != a + 3]
CUBE = [(a, a | 1 << i) for a in range(8) for i in range(3) if not a >> i & 1]
# two K4s less an edge, each with a fifth vertex on the missing edge's ends;
# the bridge (4, 9) joins the fifth vertices
BRIDGED = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (4, 9),
           (5, 7), (5, 8), (6, 7), (6, 8), (7, 8), (5, 9), (6, 9)]


def test_petersen_automorphisms():
    p = make_pattern(SimpleGraph(10, PETERSEN))
    assert (p.q, p.delta, p.edge_count, p.aut_count) == (10, 3, 15, 120)


@pytest.mark.parametrize("name, g", [
    *((f"k{q}", complete_graph(q)) for q in (3, 4, 5)),
    *((f"c{q}", cycle_graph(q)) for q in range(4, 9)),
    ("prism", SimpleGraph(6, PRISM)),
    ("k33", SimpleGraph(6, K33)),
    ("cube", SimpleGraph(8, CUBE)),
    ("petersen", SimpleGraph(10, PETERSEN)),
])
def test_aut_count_is_the_plan_group_order(name, g):
    # the whole-pattern plan's group is Aut(H): its order, which make_pattern
    # takes, equals a permutation search over the pattern's vertices
    plan = counting._plan(g, g.edges, ())
    assert make_pattern(g).aut_count == plan[6] == automorphism_count(g.edges)


REGULAR = {
    **{f"k{q}": complete_graph(q) for q in (3, 4, 5, 6)},
    **{f"c{q}": cycle_graph(q) for q in range(4, 9)},
    "prism": SimpleGraph(6, PRISM),
    "k33": SimpleGraph(6, K33),
    "cube": SimpleGraph(8, CUBE),
    "petersen": SimpleGraph(10, PETERSEN),
}


@pytest.mark.parametrize("rooted", (False, True))
@pytest.mark.parametrize("name", REGULAR)
def test_orbit_predecessors_come_first(name, rooted):
    """Every orbit of the planted sums lists as predecessors orbits of one
    edge fewer, the pinned arc's edge kept, each before it in the table:
    the sums meet a zero predecessor before the term it rules out. Every
    table here fits counting.MAX_ORBIT_MEMBERS (K6 and the Petersen graph
    rooted: 15 * 2^15 pairs)."""
    g = REGULAR[name]
    table = counting._orbit_table(g, rooted)
    slot = {e: i for i, e in enumerate(g.edges)}
    for index, (pins, bits, _, preds) in enumerate(table):
        free = bits & ~(1 << slot[min(pins), max(pins)]) if pins else bits
        assert list(preds) == sorted(set(preds))
        assert all(j < index for j in preds)
        assert len(preds) <= free.bit_count()
        assert bool(preds) == bool(free)
        for j in preds:
            arc, sub = table[j][:2]
            assert sub.bit_count() == bits.bit_count() - 1
            if rooted:
                assert sub >> slot[min(arc), max(arc)] & 1


def _scattered_graph(n, seed):
    """A graph on n labels with a K5, a C4, a sparse random part, several
    components and isolated labels, some at both ends of the label range."""
    rng = np.random.default_rng(seed)
    edges = {tuple(sorted(e)) for e in itertools.combinations((1, 9, 20, 33, n - 1), 2)}
    edges |= {(3, 4), (4, 5), (5, 6), (3, 6)}
    edges |= {(a, b) for a, b in itertools.combinations(range(40, n - 2), 2)
              if rng.random() < 0.2}
    return sorted(edges)


def _frame_results(n, edges, cutoff, monkeypatch):
    """Everything the kernel answers on the graph, built under one cutoff:
    the frame kind, copy counts and lists, rooted sums at some edges,
    planted credits, and pinned runs with an isolated label at either pin."""
    monkeypatch.setattr(graphs, "LABEL_FRAME_MAX", cutoff)
    g = SimpleGraph(n, edges)
    model = counting.PlantedModel(n + 2, 0.3, g)
    out = {"label frame": g._bit_view().nbrs is None}
    for name in ("k3", "c4", "k4"):
        P = named_pattern(name)
        out[name] = (counting.count_copies(P, g), counting.iter_copies(P, g),
                     [counting.edge_rooted_outside_sum(P, model, f) for f in g.edges[::3]],
                     counting.planted_edge_deltas(P, model))
    plan = counting._plan(complete_graph(3), complete_graph(3).edges, (0, 1))
    isolated = next(v for v in range(n) if not g.degree(v))
    out["isolated pin"] = [counting._count_maps(plan, g, pins, [10**9])
                           for pins in ((isolated, 1), (1, isolated))]
    return out


@pytest.mark.parametrize("above", (0, 1))
def test_label_frame_matches_component_frames(above, monkeypatch):
    """A graph on LABEL_FRAME_MAX labels gets the one label frame and a
    graph on one label more gets component frames; each answers exactly as
    the other kind of frame does on the same graph."""
    n = graphs.LABEL_FRAME_MAX + above
    edges = _scattered_graph(n, seed=n)
    default = _frame_results(n, edges, graphs.LABEL_FRAME_MAX, monkeypatch)
    other = _frame_results(n, edges, n - 1 if not above else n, monkeypatch)
    assert default.pop("label frame") == (not above)
    assert other.pop("label frame") == bool(above)
    assert default["isolated pin"] == [0, 0]
    assert default == other


def test_complete_graph_copies_in_both_frames(monkeypatch):
    """The copies of K_n for n <= 7 that the exact layer builds on, listed
    through the label frame and through the component frame."""
    for n in range(3, 8):
        lists = []
        for cutoff in (n, n - 1):
            monkeypatch.setattr(graphs, "LABEL_FRAME_MAX", cutoff)
            lists.append([counting.iter_copies(named_pattern(name), complete_graph(n))
                          for name in ("k3", "c4", "k4", "k5")])
        assert lists[0] == lists[1]
        assert [len(c) for c in lists[0]] == [
            math.comb(n, q) * per for q, per in ((3, 1), (4, 3), (4, 1), (5, 1))]


def test_k10_lists_no_automorphism(monkeypatch):
    # listing K10's 10! automorphisms draws at least 3.6M assignments; its
    # plan's group order is found within a budget of 10**5
    monkeypatch.setattr(counting, "DEFAULT_MAP_BUDGET", 10**5)
    assert make_pattern(complete_graph(10)).aut_count == math.factorial(10)


@pytest.mark.parametrize("name, g, t", [
    ("k3", complete_graph(3), 1),
    ("k4", complete_graph(4), 2),
    ("k5", complete_graph(5), 3),
    ("c4", cycle_graph(4), 0),
    ("c5", cycle_graph(5), 0),
    ("prism", SimpleGraph(6, PRISM), 0),
    ("k33", SimpleGraph(6, K33), 0),
    ("petersen", SimpleGraph(10, PETERSEN), 0),
    ("octahedron", SimpleGraph(6, OCTAHEDRON), 2),
    ("cube", SimpleGraph(8, CUBE), 0),
    ("c8", cycle_graph(8), 0),
    ("bridged", SimpleGraph(10, BRIDGED), 0),
])
def test_pattern_edge_triangles(name, g, t):
    # t(H): the fewest triangles through one edge of the pattern
    assert make_pattern(g).edge_triangles == t
    if name in ("k3", "k4", "k5", "c4"):
        assert named_pattern(name).edge_triangles == t


def test_named_patterns_are_built_once(monkeypatch):
    """A named pattern is built once per process, whatever the case of its
    name; an unknown name is refused on every call."""
    import regtail.counting

    names = ("k3", "c4", "k4", "k5")
    want = {name: named_pattern(name) for name in names}
    monkeypatch.setattr(regtail.counting, "_plan", None)  # a build would fail
    for name in names:
        assert named_pattern(name) is want[name]
        assert named_pattern(name.upper()) is want[name]
    for _ in range(2):
        with pytest.raises(DomainError):
            named_pattern("k6")


def test_threshold_probability():
    assert threshold_probability(100, 2) == pytest.approx(0.01)
    assert threshold_probability(16, 4) == pytest.approx(0.25)
    assert threshold_probability(2, 2) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        threshold_probability(1, 2)
    with pytest.raises(DomainError):
        threshold_probability(10, 1)


def test_sample_gnp_endpoints():
    assert sample_gnp(GnpModel(8, 0.0, seed=1)) == SimpleGraph(8)
    assert sample_gnp(GnpModel(6, 1.0, seed=1)) == complete_graph(6)


def test_gnp_model_rejects_a_negative_seed():
    # numpy's seeding would raise a bare ValueError later, mid-run
    with pytest.raises(DomainError):
        GnpModel(8, 0.5, seed=-1)
    assert GnpModel(8, 0.5, seed=0).seed == 0


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


@pytest.mark.parametrize("n,p,count", [
    (5, 0.3, 200), (7, 0.5, 50), (30, 0.05, 7), (400, 1 / 400, 3),
    (6, 1.0, 3), (2, 1.0, 2), (6, 0.0, 3), (5, 1e-300, 1), (2, 0.5, 0), (0, 0.5, 0), (1, 1.0, 4),
])
def test_batch_is_slots_decoded(n, p, count):
    # the same draws: the batch sampler's pairs are the decoded slots,
    # empty cases included
    graph, slot = sample_gnp_slots(n, p, count, worker_rng(5, n))
    assert np.all(np.diff(graph * n * n + slot) > 0)  # sorted by graph, then slot
    want = (graph, *_slot_pairs(n, slot))
    got = sample_gnp_batch(n, p, count, worker_rng(5, n))
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, want))
    if p == 1.0:
        assert slot.tolist() == list(range(n * (n - 1) // 2)) * count
    # the first gap at p = 1e-300 saturates and lands past the end
    assert (len(slot) == 0) == (p < 1e-200 or n * (n - 1) * count == 0)


@pytest.mark.parametrize("sample", [sample_gnp_slots, sample_gnp_batch])
@pytest.mark.parametrize("n,p,count", [(5, -0.1, 1), (5, 1.5, 1), (-1, 0.5, 1), (5, 0.5, -1)])
def test_samplers_refuse_bad_input(sample, n, p, count):
    with pytest.raises(DomainError):
        sample(n, p, count, worker_rng(0, 0))


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


@pytest.mark.parametrize("n", [400, 10**5, 10**9])
def test_slot_pairs_match_integer_oracle(n):
    # seeded random slots, and the first and last slot of every row (at
    # n = 10**9, of seeded random rows and of the first and last 1000)
    m = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    rows = np.arange(n - 1) if n < 10**6 else np.unique(np.concatenate(
        [rng.integers(0, n - 1, 10**5), np.arange(1000), np.arange(n - 1001, n - 1)]))
    first = rows * (2 * n - rows - 1) // 2
    slots = np.concatenate([rng.integers(0, m, 10**5), first, first + n - 2 - rows])
    u, v = _slot_pairs(n, slots)
    assert list(zip(u.tolist(), v.tolist())) == [slot_pair_oracle(n, s) for s in slots.tolist()]


def test_edge_list_roundtrip():
    g = read_edge_list("3 1\n0 1\n")
    assert g.n == 3 and g.edges == ((0, 1),)
    k4 = complete_graph(4)
    assert read_edge_list(write_edge_list(k4)) == k4
    ring = cycle_graph(7)
    assert read_edge_list(write_edge_list(ring)) == ring


def test_edge_list_errors():
    # the edge checks are SimpleGraph's, raised as ParseError
    with pytest.raises(ParseError, match=r"^edge \(0, 3\) has endpoint outside \[0, 3\)$"):
        read_edge_list("3 1\n0 3\n")
    with pytest.raises(ParseError, match=r"^self-loop at vertex 0$"):
        read_edge_list("3 1\n0 0\n")
    with pytest.raises(ParseError, match=r"^duplicate edge \(0, 1\)$"):
        read_edge_list("3 2\n0 1\n1 0\n")
    # a bad edge is reported before a malformed line below it, and after one above it
    with pytest.raises(ParseError, match=r"^self-loop at vertex 2$"):
        read_edge_list("3 2\n2 2\n0 x\n")
    with pytest.raises(ParseError, match=r"^duplicate edge \(0, 1\)$"):
        read_edge_list("3 3\n0 1\n1 0\n0 1 2\n")
    with pytest.raises(ParseError, match=r"^bad token in edge line '0 x'$"):
        read_edge_list("3 2\n0 x\n2 2\n")
    with pytest.raises(ParseError):
        read_edge_list("-1 0\n")  # negative header count
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
