import inspect
import json
import math
import time
import typing

import pytest

from regtail import cli, cores
from regtail.cli import main
from regtail.graphs import SimpleGraph, complete_graph, write_edge_list


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.edges"
    path.write_text(write_edge_list(complete_graph(5)))
    return str(path)


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--pattern", "k3"])  # missing --n and --kmax
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--pattern", "k3", "--n", "6", "--kmax", "3", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


def test_count_k5(k5_file, capsys):
    assert main(["count", "--pattern", "k3", "--graph", f"@{k5_file}"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_sample_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["sample", "--n", "5", "--p", "1", "--seed", "3", "--out", str(out)]) == 0
    assert out.read_text() == write_edge_list(complete_graph(5))
    assert main(["sample", "--n", "4", "--p", "0", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "4 0\n"


def test_sample_large_n(tmp_path):
    # threshold p = 1e-5 gives about 50k edges out of 5e9 vertex pairs
    out = tmp_path / "g.edges"
    assert main(["sample", "--n", "100000", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    n, m = map(int, lines[0].split())
    assert n == 100_000 and len(lines) == m + 1
    assert abs(m - 49_999.5) < 5 * math.sqrt(49_999.5)


def test_decompose_json(k5_file, capsys):
    assert main(
        ["decompose", "--pattern", "k3", "--graph", f"@{k5_file}", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_copies"] == 10
    assert len(payload["components"]) == 1
    assert payload["components"][0]["l_star"] == 4


def test_core_json(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text(write_edge_list(complete_graph(4)))
    rc = main(
        ["core", "--pattern", "k3", "--graph", f"@{path}", "--n", "50",
         "--k", "4", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Core"
    assert payload["peeled_edges"] == []
    assert payload["min_degree"] == 3


def test_core_k4_beyond_the_old_n_power_guard(tmp_path, capsys):
    # n**q = 200**4 exceeds the default planted budget, but a K6 seed costs
    # only a few thousand partial assignments
    path = tmp_path / "k6.edges"
    path.write_text(write_edge_list(complete_graph(6)))
    rc = main(["core", "--pattern", "k4", "--graph", f"@{path}", "--n", "200",
               "--k", "10", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Core"


def test_core_contract_error_json(tmp_path, capsys, monkeypatch):
    engine = cores.planted_edge_deltas

    def halved(P, model, budget):
        expectation, deltas = engine(P, model, budget)
        return expectation, {f: d / 2 for f, d in deltas.items()}

    monkeypatch.setattr(cores, "planted_edge_deltas", halved)
    path = tmp_path / "seed.edges"
    g = SimpleGraph(11, list(complete_graph(9).edges) + [(9, 10)])
    path.write_text(write_edge_list(g))
    rc = main(["core", "--pattern", "k3", "--graph", f"@{path}", "--n", "50",
               "--p", "0.02", "--k", "64", "--w", "0.6"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ContractError"


def test_memory_error_json(k5_file, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("no room")

    monkeypatch.setattr(cli, "count_copies", exhausted)
    assert main(["count", "--pattern", "k3", "--graph", f"@{k5_file}"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "MemoryError", "message": "no room"}


def test_bounds_json(capsys):
    rc = main(
        ["bounds", "--pattern", "c4", "--n", "100", "--k", "10", "--m", "50",
         "--da", "2", "--db", "3", "--e", "12"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pattern"]["q"] == 4
    assert payload["threshold_p"] == pytest.approx(0.01)
    assert "edge_rooted_bound" in payload and "outside_edge_bounds" in payload
    assert payload["min_edges_for_copies"] >= 1


def test_tail_formats(capsys):
    rc = main(
        ["tail", "--pattern", "k3", "--n", "6", "--k", "1", "--samples", "2000",
         "--seed", "1", "--format", "csv"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("k,n,p,estimate")


def test_scan_deterministic_csv(tmp_path):
    args = ["scan", "--pattern", "k3", "--n", "6", "--kmax", "4",
            "--samples", "5000", "--seed", "7", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_targets_pass(capsys):
    assert main(["verify", "lemma17", "--trials", "2000", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "dyadic", "--trials", "2000", "--seed", "1"]) == 0
    assert main(["verify", "bk", "--n", "6", "--p", "0.1"]) == 0
    assert main(["verify", "lemma9", "--pattern", "k3", "--instances", "30",
                 "--seed", "2"]) == 0


def test_verify_replay(tmp_path, capsys):
    record = {"target": "chernoff", "N": 20, "M": 10, "p": 0.1}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    assert main(["verify", "chernoff", "--replay", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["target"] == "chernoff"
    record = {
        "target": "lemma9",
        "pattern": "k3",
        "n": 4,
        "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]],
    }
    path.write_text(json.dumps(record))
    assert main(["verify", "lemma9", "--replay", str(path)]) == 0


def test_runtime_error_json_on_stderr(capsys):
    rc = main(["count", "--pattern", "k3", "--graph", "@/nonexistent/file.edges"])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().split("\n")[-1])
    assert "error" in payload and "message" in payload


def test_decompose_set_cover_budget(tmp_path, capsys):
    """C4 on this G(60, 0.15) draw has one spanned component with 756
    copies whose exact minimum cover the branch and bound cannot finish;
    the node budget turns it into a JSON error in seconds."""
    path = tmp_path / "g.edges"
    assert main(["sample", "--n", "60", "--p", "0.15", "--seed", "7", "--out", str(path)]) == 0
    start = time.perf_counter()
    rc = main(["decompose", "--pattern", "c4", "--graph", f"@{path}", "--format", "json"])
    assert time.perf_counter() - start < 10.0
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "BudgetExceededError"


def test_bad_pattern_name(capsys):
    rc = main(["count", "--pattern", "k99", "--graph", "@/nonexistent"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DomainError"


@pytest.mark.parametrize("n", ["0", "1"])
def test_scan_below_two_vertices(n, capsys):
    rc = main(["scan", "--pattern", "k3", "--n", n, "--p", "0.5", "--kmax", "2",
               "--samples", "10"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("kmin,kmax", [("1", "0"), ("0", "3"), ("4", "2")])
def test_scan_bad_k_range_is_domain_error(kmin, kmax, capsys):
    rc = main(["scan", "--pattern", "k3", "--n", "400", "--kmin", kmin, "--kmax", kmax,
               "--samples", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("target,flag", [
    ("bk", "--n"), ("peel", "--k"), ("lemma6", "--instances"),
    ("lemma17", "--trials"), ("poisson", "--samples"),
])
def test_verify_nonpositive_size_is_domain_error(target, flag, value, capsys):
    # an explicit 0 is not the default: verify bk --n 0 used to run n = 6, 7
    assert main(["verify", target, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "DomainError"


def test_cli_type_hints_resolve():
    """Every annotation in regtail.cli names something the module imports."""
    functions = [f for _, f in inspect.getmembers(cli, inspect.isfunction)
                 if f.__module__ == cli.__name__]
    assert functions
    for f in functions:
        typing.get_type_hints(f)
