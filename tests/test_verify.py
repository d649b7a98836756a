import random

import numpy as np
import pytest

from regtail import bounds, cores, counting, verify
from regtail.errors import DomainError
from regtail.graphs import SimpleGraph, named_pattern, threshold_probability


def test_sweeps_clean():
    assert verify.sweep_finner(("k3",), instances=50, seed=1) == []
    assert verify.sweep_edge_rooted(("c4",), instances=25, seed=2) == []
    assert verify.sweep_outside_edge(("k3",), instances=25, seed=3) == []
    assert verify.sweep_spanning_excess(("k4",), instances=20, seed=4) == []
    assert verify.sweep_power_sum(trials=500, seed=5) == []
    assert verify.sweep_split_cost(k_max=40) == []
    assert verify.sweep_chernoff(n_max=40) == []
    assert verify.sweep_dyadic(trials=500, seed=6) == []
    assert verify.sweep_bk("k3", n_values=(5, 6)) == []
    assert verify.sweep_peel(("k3",), k_values=(2, 5), n=40) == []


def test_k5_peel_sweep():
    assert verify.sweep_peel(("k5",), (2, 10, 20), n=50) == []


def test_check_peel_reuses_the_peel_pass(monkeypatch):
    # the seed verdict comes from the peel's first pass; only the core
    # re-check on the relabelled survivor runs the engine again
    calls = []
    engine = counting._planted_sum

    def counted(*args, **kwargs):
        calls.append(args[1].planted.m)
        return engine(*args, **kwargs)

    monkeypatch.setattr(counting, "_planted_sum", counted)
    assert verify.check_peel("k4", 50, 18) is None
    assert calls == [21, 21]


def _peels_with_trace(monkeypatch, trace):
    """Make cores.peel_to_core peel every edge of its input and report the
    given expectation trace."""
    def peel(g, params, P):
        return cores.CoreReport(result=SimpleGraph(0, ()), peeled_edges=g.edges,
                                expectation_trace=tuple(trace), verdict="Empty",
                                min_degree=None, min_degree_product=None)

    monkeypatch.setattr(cores, "peel_to_core", peel)


def test_check_peel_bounds_the_total_drop_of_seeds_only(monkeypatch):
    # at cs = 0.01 the edge cap is 0.243, so K3's 3 edges are no seed, and
    # its drop of 1.06 on peeling may exceed w*k = 0.511
    record = {"target": "peel", "pattern": "k3", "n": 50, "k": 2, "cs": 0.01, "w": 0.0}
    assert verify.replay(record) == {"ok": True, "target": "peel", "violation": None}
    # at cs = 10 the clique is a seed: steps below t that add up to more
    # than w*k are reported
    params = cores.SeedParams(n=50, p=threshold_probability(50, 2), k=2, q=3)
    steps = int(params.w * params.k / (params.t / 2)) + 2
    _peels_with_trace(monkeypatch, [2.0 - i * params.t / 2 for i in range(steps)])
    assert verify.check_peel("k3", 50, 2)["problems"] == ["total drop exceeded w*k"]


def test_check_peel_reports_each_bad_step(monkeypatch):
    # a trace from below (1-w)*k: no seed, so only the steps are checked
    _peels_with_trace(monkeypatch, [1.0, 1.0, 0.5, 0.6])
    assert verify.check_peel("k3", 50, 2)["problems"] == [
        "non-decreasing trace at step 1", "step 2 dropped 0.5 >= t",
        "non-decreasing trace at step 3"]


def test_replay_each_target():
    records = [
        {"target": "lemma6", "pattern": "k3", "n": 4,
         "edges": [[0, 1], [1, 2], [0, 2]]},
        {"target": "lemma7", "pattern": "k3", "n": 6, "p": 0.2, "edge": [0, 1],
         "planted_edges": [[0, 1], [1, 2]]},
        {"target": "lemma7_outside", "pattern": "k3", "n": 6, "p": 0.2,
         "edge": [0, 5], "planted_edges": [[0, 1], [1, 2], [0, 2], [0, 5]]},
        {"target": "lemma9", "pattern": "c4", "n": 4,
         "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        {"target": "lemma17", "xs": [1.0, 2.0, 0.5], "p": 3.0},
        {"target": "lemma18", "k": 17, "a": 2.5, "q": 4},
        {"target": "chernoff", "N": 30, "M": 11, "p": 0.2},
        {"target": "dyadic", "l_list": [2, 9, 33]},
        {"target": "bk", "pattern": "k3", "n": 5, "p": 0.15},
        {"target": "poisson", "pattern": "k3", "n": 40, "p": 0.025,
         "samples": 3000, "seed": 0},
        {"target": "peel", "pattern": "k3", "n": 40, "k": 3},
    ]
    for record in records:
        result = verify.replay(record)
        assert result["ok"] is True, record["target"]


def test_pattern_payload_roundtrip():
    p = named_pattern("c4")
    payload = verify._pattern_payload(p)
    assert verify.pattern_from_payload(payload) == p
    named = verify._pattern_payload(p, "c4")
    assert verify.pattern_from_payload(named) == p


def test_sweep_outputs_are_replayable_shape():
    # fabricate a violation-like record by hand and ensure replay recomputes
    g = SimpleGraph(4, [(0, 1), (1, 2), (0, 2)])
    rec = verify.check_finner(named_pattern("k3"), g)
    assert rec is None  # the bound genuinely holds


def test_random_graph_generator_is_seeded():
    a = verify._random_graph(random.Random(9), 8)
    b = verify._random_graph(random.Random(9), 8)
    assert a == b
    assert a.n == 8 and a.edges == (
        (0, 1), (0, 2), (0, 4), (0, 7), (1, 4), (1, 5), (1, 7), (2, 4), (2, 5),
        (2, 6), (3, 7), (4, 6), (4, 7), (6, 7))


SEEDED_SWEEPS = {
    "check_finner": lambda seed: verify.sweep_finner(("k3", "c4"), 20, seed),
    "check_edge_rooted": lambda seed: verify.sweep_edge_rooted(("k3", "c4"), 20, seed),
    "check_outside_edge": lambda seed: verify.sweep_outside_edge(("k3", "c4"), 20, seed),
    "check_spanning_excess": lambda seed: verify.sweep_spanning_excess(("k3", "c4"), 20, seed),
    "check_power_sum": lambda seed: verify.sweep_power_sum(40, seed),
    "check_dyadic": lambda seed: verify.sweep_dyadic(40, seed),
}


@pytest.mark.parametrize("check", SEEDED_SWEEPS)
def test_seeded_sweeps_draw_their_instances_from_the_seed(monkeypatch, check):
    def no_numpy_generator(*args):
        raise AssertionError("seeded sweeps draw from random.Random, not numpy")

    monkeypatch.setattr(np.random, "default_rng", no_numpy_generator)

    def instances(seed):
        seen = []
        monkeypatch.setattr(verify, check, lambda *args: seen.append(args))
        assert SEEDED_SWEEPS[check](seed) == []
        return seen

    first = instances(7)
    assert len(first) >= 20
    assert instances(7) == first
    assert instances(8) != first


def test_replay_leaves_errors_inside_the_check_alone(monkeypatch):
    # only decoding the record is turned into a DomainError
    def broken(xs, p):
        raise KeyError("inside the check")

    monkeypatch.setattr(bounds, "power_sum_gap", broken)
    with pytest.raises(KeyError):
        verify.replay({"target": "lemma17", "xs": [1.0], "p": 2.0})
    with pytest.raises(DomainError):
        verify.replay({"target": "lemma17", "xs": [1.0]})
