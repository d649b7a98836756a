import argparse
import inspect
import json
import math
import time
import typing
from types import SimpleNamespace

import pytest

from regtail import bounds, cli, cores, counting, spanned, tails, verify
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
    for command in ("decompose", "core"):  # they write no CSV
        with pytest.raises(SystemExit) as exc:
            _run_format(command, "csv", "g.edges", None)
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


def test_core_pattern_larger_than_n(tmp_path, capsys):
    # a K5 among n = 4 labels has no copy: every edge peels, with no error
    path = tmp_path / "K4.edges"
    path.write_text(write_edge_list(complete_graph(4)))
    rc = main(["core", "--pattern", "k5", "--graph", f"@{path}", "--n", "4", "--k", "1",
               "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    assert json.loads(out)["verdict"] == "Empty"


def test_core_k8_orbit_table_is_refused(tmp_path, capsys):
    # K8's planted sums would list 2^28 edge subsets: refused, not killed for memory
    path = tmp_path / "k8.edges"
    path.write_text(write_edge_list(complete_graph(8)))
    rc = main(["core", "--pattern", f"@{path}", "--graph", f"@{path}", "--n", "50", "--k", "10"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "TooLargeError"


def test_core_contract_error_json(tmp_path, capsys, monkeypatch):
    engine = cores.planted_edge_deltas

    def halved(P, model):
        expectation, deltas = engine(P, model)
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
    tail = {fmt: _run_format("tail", fmt, None, capsys) for fmt in ("csv", "json", "table")}
    row = dict(zip(tails.CSV_HEADER.split(","), tail["csv"].splitlines()[1].split(",")))
    (got,) = json.loads(tail["json"])["rows"]
    assert got["estimate"] == float(row["estimate"]) and got["samples"] == 300
    assert tail["table"] == (f"P(count >= 1) ~ {got['estimate']:.6g}  [95% CI "
                             f"{got['ci_low']:.6g}, {got['ci_high']:.6g}]  (300 samples,"
                             f" n=6, p={got['p']:.6g})\n")


def test_scan_deterministic_csv(tmp_path):
    # n = 6: exact blocks; n = 400: second-moment disjoint bounds
    for n in ("6", "400"):
        args = ["scan", "--pattern", "k3", "--n", n, "--kmax", "4",
                "--samples", "5000", "--seed", "7", "--format", "csv"]
        out1, out2 = tmp_path / f"a{n}.csv", tmp_path / f"b{n}.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# A small run of each command that takes --format, without the flag.
FORMAT_RUNS = {
    "decompose": ["decompose", "--pattern", "k3", "--graph", "@{graph}"],
    "core": ["core", "--pattern", "k3", "--graph", "@{graph}", "--n", "50", "--k", "4"],
    "tail": ["tail", "--pattern", "k3", "--n", "6", "--k", "1", "--samples", "300",
             "--seed", "1"],
    "scan": ["scan", "--pattern", "k3", "--n", "8", "--kmax", "3", "--samples", "300",
             "--seed", "2"],
}


def _run_format(command, fmt, graph, capsys):
    argv = [a.format(graph=graph) for a in FORMAT_RUNS[command]] + ["--format", fmt]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _written_format(text):
    """csv when the text opens with the scan header, json when it parses,
    else table."""
    if text.startswith(tails.CSV_HEADER + "\n"):
        return "csv"
    try:
        json.loads(text)
    except ValueError:
        return "table"
    return "json"


def test_format_choices_are_the_formats_written(k5_file, capsys):
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    offered = {name: action.choices for name, parser in commands.items()
               for action in parser._actions if action.dest == "format"}
    assert offered == {"decompose": ("table", "json"), "core": ("table", "json"),
                       "tail": ("table", "csv", "json"), "scan": ("table", "csv", "json")}
    for command, choices in offered.items():
        written = tuple(_written_format(_run_format(command, fmt, k5_file, capsys))
                        for fmt in choices)
        assert written == choices, command


def test_scan_formats_carry_the_same_rows(capsys):
    scan = {fmt: _run_format("scan", fmt, None, capsys) for fmt in ("csv", "json", "table")}
    rows = json.loads(scan["json"])["rows"]
    csv_rows = scan["csv"].splitlines()[1:]
    assert [r["k"] for r in rows] == [1, 2, 3] == [int(line.split(",")[0]) for line in csv_rows]
    assert [r["estimate"] for r in rows] == [float(line.split(",")[3]) for line in csv_rows]
    table = scan["table"].splitlines()
    assert table[0].split() == ["k", "estimate", "ci_low", "ci_high", "exact", "L",
                                "clique_lb", "disjoint_lb"]
    assert [line.split()[:2] for line in table[1:4]] == [
        [str(r["k"]), f"{r['estimate']:.5g}"] for r in rows]
    assert table[4].endswith(f"k = {json.loads(scan['json'])['crossover']}")
    assert len(table) == 5


def test_decompose_and_core_tables_match_their_json(k5_file, capsys):
    payload = json.loads(_run_format("decompose", "json", k5_file, capsys))
    (comp,) = payload["components"]
    assert _run_format("decompose", "table", k5_file, capsys).splitlines() == [
        f"{'v':>4} {'e':>4} {'copies':>7} {'l_star':>7} {'f':>10} {'lower':>10}",
        f"{5:>4} {10:>4} {10:>7} {4:>7} {comp['f']:>10.4f} {comp['lower']:>10.4f}",
        "dropped edges: 0",
    ]
    payload = json.loads(_run_format("core", "json", k5_file, capsys))
    table = _run_format("core", "table", k5_file, capsys).splitlines()
    assert table[:2] == [f"verdict: {payload['verdict']}",
                         f"peeled: {len(payload['peeled_edges'])} edges,"
                         f" remaining: {payload['edges_remaining']}"]
    assert table[3] == (f"min degree: {payload['min_degree']},"
                        f" min degree product: {payload['min_degree_product']}")
    assert len(table) == 5


def test_verify_targets_pass(capsys):
    assert main(["verify", "lemma17", "--trials", "2000", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "dyadic", "--trials", "2000", "--seed", "1"]) == 0
    assert main(["verify", "bk", "--n", "6", "--p", "0.1"]) == 0
    assert main(["verify", "lemma9", "--pattern", "k3", "--instances", "30",
                 "--seed", "2"]) == 0


@pytest.mark.parametrize("target, grids", (
    ("bk", ("each of 6, 7", "each of 0.05, 0.1, 0.2, 1/n", "default: k3")),
    ("peel", ("each of k3, c4, k4", "each of 2 to 20", "default: 50")),
    ("lemma6", ("each of k3, c4, k4", "default: 1000", "default: 0")),
))
def test_verify_help_words_the_grids(target, grids, capsys, monkeypatch):
    """A target's help names each grid's values as README does, not a
    Python repr of its default."""
    monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", target, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for text in grids:
        assert text in out
    for repr_text in ("None", "range(", "(6, 7)", "('k3'"):
        assert repr_text not in out


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


@pytest.mark.parametrize("argv", [
    ["count", "--pattern", "k3", "--graph", "@{f}"],
    ["count", "--pattern", "@{f}", "--graph", "@{f}"],
    ["core", "--pattern", "k3", "--graph", "@{f}", "--n", "50", "--k", "4"],
])
def test_non_utf8_file_is_parse_error(argv, tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"\xff\xfe3 0\n")
    assert main([a.format(f=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "ParseError"


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


@pytest.mark.parametrize("k", ["0", "-3"])
def test_tail_nonpositive_k_is_domain_error(k, capsys):
    # tail used to print "P(count >= -3) ~ 1"; scan already refused k < 1
    rc = main(["tail", "--pattern", "k3", "--n", "30", "--k", k, "--samples", "10"])
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


@pytest.mark.parametrize("argv", [
    ["scan", "--pattern", "k3", "--n", "30", "--kmax", "2", "--samples", "10"],
    ["tail", "--pattern", "k3", "--n", "30", "--k", "1", "--samples", "10"],
    ["sample", "--n", "10"],
    ["verify", "lemma6", "--instances", "2"],
    ["verify", "poisson", "--n", "30", "--samples", "10"],
], ids=lambda argv: " ".join(argv[:2]))
def test_negative_seed_is_domain_error(argv, capsys):
    # numpy's seeding used to end these with a ValueError traceback
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("p", ["1.5", "nan", "-0.5"])
def test_bounds_p_outside_unit_interval_is_domain_error(p, capsys):
    # bounds used to echo p = 1.5 or nan and exit 0; it now fails as sample does
    assert main(["sample", "--n", "10", "--p", p]) == 1
    sample_err = capsys.readouterr().err
    assert main(["bounds", "--pattern", "k3", "--n", "10", "--p", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == sample_err
    assert json.loads(captured.err) == {"error": "DomainError",
                                        "message": f"p must lie in [0, 1], got {float(p)}"}


@pytest.mark.parametrize("p", ["0", "1"])
def test_bounds_p_at_the_unit_interval_ends_is_valid(p, capsys):
    assert main(["bounds", "--pattern", "k3", "--n", "10", "--p", p]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == float(p)


def test_cli_type_hints_resolve():
    """Every annotation in regtail.cli names something the module imports."""
    functions = [f for _, f in inspect.getmembers(cli, inspect.isfunction)
                 if f.__module__ == cli.__name__]
    assert functions
    for f in functions:
        typing.get_type_hints(f)


DEFAULTS = ("k3", "c4", "k4")

# The bound arguments each sweep got from the per-target dispatch that the
# registry replaced (`cli._run_verify_sweep`), for every target run with no
# flags and with each flag it reads. The registry must make the same calls.
SWEEP_CALLS = [
    (["lemma6"], [("sweep_finner", {"pattern_names": DEFAULTS, "instances": 1000, "seed": 0})]),
    (["lemma6", "--pattern", "c4", "--instances", "7", "--seed", "5"],
     [("sweep_finner", {"pattern_names": ("c4",), "instances": 7, "seed": 5})]),
    (["lemma7"], [
        ("sweep_edge_rooted", {"pattern_names": DEFAULTS, "instances": 500, "seed": 0}),
        ("sweep_outside_edge", {"pattern_names": DEFAULTS, "instances": 250, "seed": 0}),
    ]),
    (["lemma7", "--pattern", "k4", "--instances", "9", "--seed", "2"], [
        ("sweep_edge_rooted", {"pattern_names": ("k4",), "instances": 9, "seed": 2}),
        ("sweep_outside_edge", {"pattern_names": ("k4",), "instances": 4, "seed": 2}),
    ]),
    (["lemma9"],
     [("sweep_spanning_excess", {"pattern_names": DEFAULTS, "instances": 200, "seed": 0})]),
    (["lemma9", "--pattern", "k3", "--instances", "3", "--seed", "1"],
     [("sweep_spanning_excess", {"pattern_names": ("k3",), "instances": 3, "seed": 1})]),
    (["lemma17"], [("sweep_power_sum", {"trials": 10_000, "seed": 0})]),
    (["lemma17", "--trials", "11", "--seed", "4"],
     [("sweep_power_sum", {"trials": 11, "seed": 4})]),
    (["lemma18"], [("sweep_split_cost", {})]),
    (["chernoff"], [("sweep_chernoff", {})]),
    (["dyadic"], [("sweep_dyadic", {"trials": 10_000, "seed": 0})]),
    (["dyadic", "--trials", "12", "--seed", "6"], [("sweep_dyadic", {"trials": 12, "seed": 6})]),
    (["bk"], [("sweep_bk", {"pattern_name": "k3", "n_values": (6, 7), "p_values": None})]),
    (["bk", "--pattern", "c4", "--n", "5", "--p", "0.3"],
     [("sweep_bk", {"pattern_name": "c4", "n_values": (5,), "p_values": (0.3,)})]),
    (["poisson"], [("sweep_poisson", {"pattern_name": "k3", "n": 400, "samples": 100_000,
                                      "seeds": (0,), "workers": 1})]),
    (["poisson", "--pattern", "k4", "--n", "30", "--samples", "50", "--seed", "8",
      "--workers", "2"],
     [("sweep_poisson", {"pattern_name": "k4", "n": 30, "samples": 50, "seeds": (8,),
                         "workers": 2})]),
    (["peel"], [("sweep_peel", {"pattern_names": DEFAULTS, "k_values": range(2, 21), "n": 50})]),
    (["peel", "--pattern", "c4", "--n", "40", "--k", "7"],
     [("sweep_peel", {"pattern_names": ("c4",), "k_values": (7,), "n": 40})]),
]


def _types(calls):
    return [(name, {key: [type(x) for x in value] if isinstance(value, tuple) else type(value)
                    for key, value in args.items()}) for name, args in calls]


@pytest.fixture
def recorded_sweeps(monkeypatch):
    """Replace every verify sweep by a recorder of its bound arguments."""
    calls = []
    for name in [name for name in vars(verify) if name.startswith("sweep_")]:
        signature = inspect.signature(getattr(verify, name))

        def record(*args, _name=name, _sig=signature, **kwargs):
            calls.append((_name, dict(_sig.bind(*args, **kwargs).arguments)))
            return []

        monkeypatch.setattr(verify, name, record)
    return calls


@pytest.mark.parametrize("argv,want", SWEEP_CALLS, ids=[" ".join(a) for a, _ in SWEEP_CALLS])
def test_verify_flags_reach_the_sweeps_as_before(argv, want, recorded_sweeps, capsys):
    assert main(["verify"] + argv) == 0
    assert recorded_sweeps == want
    # plain ints, as before: an int subclass would miss the int-keyed caches
    assert _types(recorded_sweeps) == _types(want)
    assert capsys.readouterr().out == f"verify {argv[0]}: PASS\n"


def test_verify_parser_is_built_once_and_keeps_no_values(recorded_sweeps):
    assert cli._build_parser() is cli._build_parser()
    assert main(["verify", "lemma6", "--pattern", "c4", "--instances", "7", "--seed", "5"]) == 0
    assert main(["verify", "lemma6"]) == 0
    assert recorded_sweeps == SWEEP_CALLS[1][1] + SWEEP_CALLS[0][1]


def test_verify_target_help_lists_its_flags(capsys):
    parser = cli._build_parser.__wrapped__()
    for _ in range(2):
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "dyadic", "--help"])
        assert capsys.readouterr().out.count("--trials") == 2


@pytest.mark.parametrize("argv", [
    ["lemma18", "--pattern", "zz"],
    ["lemma18", "--pattern", "zz", "--instances", "5"],
    ["chernoff", "--seed", "1"],
    ["lemma6", "--workers", "2"],
    ["lemma17", "--pattern", "k3"],
    ["bk", "--k", "3"],
])
def test_verify_flag_the_target_does_not_read_is_usage_error(argv, recorded_sweeps):
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + argv)
    assert exc.value.code == 2
    assert recorded_sweeps == []


@pytest.mark.parametrize("argv,usage", [
    (["verify", "bk", "--k", "3"], "usage: regtail verify bk [-h]"),
    (["scan", "--pattern", "k3", "--n", "6", "--kmax", "3", "--bogus", "1"],
     "usage: regtail scan [-h]"),
])
def test_unknown_flag_reports_the_subcommand_usage(argv, usage, recorded_sweeps, capsys):
    # the leftover flags are reported by the parser of the command that was
    # run, so its usage line shows the flags it takes; nothing runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0].startswith(usage)
    command = "regtail " + " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
    assert err.splitlines()[-1] == f"{command}: error: unrecognized arguments: {' '.join(argv[-2:])}"
    assert recorded_sweeps == []


# Flags each command requires, with values that parse: argv[0] with these
# and nothing else reaches the command's handler.
REQUIRED_FLAGS = {
    "sample": ["--n", "5"],
    "count": ["--pattern", "k3", "--graph", "@g.edges"],
    "decompose": ["--pattern", "k3", "--graph", "@g.edges"],
    "core": ["--pattern", "k3", "--n", "20", "--graph", "@g.edges", "--k", "3"],
    "bounds": ["--pattern", "k3", "--n", "20"],
    "tail": ["--pattern", "k3", "--n", "6", "--k", "1"],
    "scan": ["--pattern", "k3", "--n", "6", "--kmax", "3"],
}


def _parity_calls():
    """Help, usage errors and bad names for every command and verify target."""
    calls = [[], ["--help"], ["nosuch"], ["verify"], ["verify", "nosuch"], ["verify", "--help"]]
    for command in cli.COMMANDS:
        required = REQUIRED_FLAGS.get(command, [])
        calls += [[command, "--help"], [command, *required, "--bogus", "1"]]
        if required:  # every required flag missing, then only the last
            calls += [[command], [command, *required[:-2]]]
    calls += [["scan", "--format", "xml", *REQUIRED_FLAGS["scan"]],
              ["tail", "--n", "x", *REQUIRED_FLAGS["tail"]]]
    for target in verify.SWEEPS:
        calls += [["verify", target, "--help"], ["verify", target, "--bogus", "1"]]
    return calls


def _exit_outcome(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", _parity_calls(), ids=lambda argv: " ".join(argv) or "(none)")
def test_command_parser_prints_what_the_whole_parser_prints(argv, monkeypatch, capsys):
    """main parses with the parser of one command (and one verify target);
    its help, usage and errors match the parser that holds every command."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _exit_outcome(argv, capsys)
    assert got[0] in (0, 2)
    assert got[1] or got[2]
    monkeypatch.setattr(cli, "_parser_for", lambda argv: cli._build_parser())
    assert _exit_outcome(argv, capsys) == got


@pytest.fixture
def parsers_built(monkeypatch):
    """Names of the argparse parsers constructed from here on, none cached."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    yield built
    cli._build_parser.cache_clear()  # drop the parsers built while counting


def test_a_run_builds_only_the_parsers_it_uses(parsers_built, capsys):
    # building every command and target takes 19 parsers
    assert main(["verify", "lemma17", "--trials", "3"]) == 0
    assert parsers_built == ["regtail", "regtail verify", "regtail verify lemma17"]
    parsers_built.clear()
    assert main(["bounds", "--pattern", "k3", "--n", "20"]) == 0
    assert parsers_built == ["regtail", "regtail bounds"]
    assert "PASS" in capsys.readouterr().out


def _fails(**fields):
    return lambda *args, **kwargs: SimpleNamespace(**fields)


# Record target -> (the function its check reads, a failing stand-in, a tiny
# sweep, and the verify target that replays it).
FAILING_CHECKS = {
    "lemma6": ((bounds, "finner_hom_bound"), lambda *a: -1.0,
               lambda: verify.sweep_finner(("k3",), 2, 0), "lemma6"),
    "lemma7": ((bounds, "edge_rooted_bound"), lambda inp: -1.0,
               lambda: verify.sweep_edge_rooted(("k3",), 2, 0), "lemma7"),
    "lemma7_outside": ((bounds, "outside_edge_bounds"), _fails(max=-1.0),
                       lambda: verify.sweep_outside_edge(("k3",), 2, 0), "lemma7"),
    "lemma9": ((spanned, "spanning_excess_report"), _fails(f=1.0, l_star=1, lower=0.0),
               lambda: verify.sweep_spanning_excess(("k3",), 2, 0), "lemma9"),
    "lemma17": ((bounds, "power_sum_gap"), lambda xs, p: -1.0,
                lambda: verify.sweep_power_sum(2, 0), "lemma17"),
    "lemma18": ((bounds, "split_cost_min"), _fails(value=0.0, rhs=1.0),
                lambda: verify.sweep_split_cost(3, (1.0,), (3,)), "lemma18"),
    "chernoff": ((bounds, "chernoff_tail"), lambda n, m, p: 0.0,
                 lambda: verify.sweep_chernoff(3, (0.3,)), "chernoff"),
    "dyadic": ((spanned, "dyadic_profile"), _fails(weighted_sum=0),
               lambda: verify.sweep_dyadic(2, 0), "dyadic"),
    "bk": ((counting, "exact_probability"), lambda model, event: 0.5,
           lambda: verify.sweep_bk("k3", (5,), (0.1,)), "bk"),
    "poisson": ((tails, "poisson_diagnostic"), _fails(tv_distance=1.0),
                lambda: verify.sweep_poisson("k3", 40, 10, (0,), 1), "poisson"),
    "peel": ((cores, "is_core"), lambda *a: (False, None),
             lambda: verify.sweep_peel(("k3",), (3,), 40), "peel"),
}


@pytest.mark.parametrize("target", sorted(FAILING_CHECKS))
def test_failing_record_replays_to_itself(target, monkeypatch, tmp_path, capsys):
    (module, name), failing, sweep, verify_target = FAILING_CHECKS[target]
    monkeypatch.setattr(module, name, failing)
    records = [r for r in sweep() if r["target"] == target]
    assert records
    path = tmp_path / "record.json"
    for record in records:
        record = json.loads(json.dumps(record))
        path.write_text(json.dumps(record))
        assert main(["verify", verify_target, "--replay", str(path)]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result == {"ok": False, "target": target, "violation": record}


@pytest.mark.parametrize("text", [
    b"\xff\xfe not utf-8",
    "not json",
    "[1, 2]",
    json.dumps({"target": "chernoff", "N": 20, "p": 0.1}),
    json.dumps({"target": "lemma17", "xs": [1.0], "p": 2.0, "gap": -1.0}) + "\n"
    + json.dumps({"target": "lemma17", "xs": [2.0], "p": 3.0, "gap": -1.0}) + "\n",
], ids=["not-utf8", "not-json", "not-an-object", "missing-field", "two-records"])
def test_verify_replay_bad_input_is_domain_error(text, tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["verify", "chernoff", "--replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "DomainError"


def test_verify_out_is_rewritten_by_a_passing_run(monkeypatch, tmp_path, capsys):
    out = tmp_path / "violations.jsonl"
    argv = ["verify", "lemma17", "--trials", "3", "--out", str(out)]
    monkeypatch.setattr(bounds, "power_sum_gap", lambda xs, p: -1.0)
    assert main(argv) == 1
    assert len(out.read_text().splitlines()) == 3
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_text() == ""
    assert capsys.readouterr().out.endswith("verify lemma17: PASS\n")
