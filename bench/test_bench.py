"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "ok_ratio"):
            assert result["metrics"][name]["value"] > 0


def test_run_refuses_tree_without_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "bench" / "reference.json").write_text(workloads.REFERENCE.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "peel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ------------------------------------------------------ tampered outputs


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Genuine outputs of every smoke op, keyed by op name."""
    workdir = tmp_path_factory.mktemp("ops")
    out = {}
    for name in run.WORKLOADS:
        for op in workloads.build(name, 5, True, workdir):
            out[op.name] = (op, op.call())
    return out


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


def find(smoke_outputs, prefix):
    return next(v for k, v in smoke_outputs.items() if k.startswith(prefix))


def test_genuine_outputs_pass(smoke_outputs, ref):
    for name, (op, out) in smoke_outputs.items():
        assert op.check(out, ref) is None, name


def test_flipped_verdict_and_moved_float_fail(smoke_outputs, ref):
    op, out = find(smoke_outputs, "core ")
    payload = json.loads(out)
    for edit in (
        lambda d: d.update(verdict="Empty"),
        lambda d: d.update(peeled_edges=d["peeled_edges"][:-1]),
        lambda d: d["expectation_trace"].__setitem__(0, d["expectation_trace"][0] * (1 + 1e-7)),
        lambda d: d.update(min_degree=d["min_degree"] + 1),
    ):
        bad = json.loads(out)
        edit(bad)
        assert op.check(json.dumps(bad), ref), bad
    assert op.check(json.dumps(payload), ref) is None


def test_failed_verify_fails(smoke_outputs, ref):
    op, out = find(smoke_outputs, "verify lemma6")
    assert op.check(out.replace("PASS", "FAIL (1 violations)"), ref)


def test_moved_exact_value_fails(smoke_outputs, ref):
    op, out = find(smoke_outputs, "tail_probability_table")
    bad = list(out)
    bad[1] *= 1 + 1e-7
    assert op.check(bad, ref)
    op, out = find(smoke_outputs, "exact_probability")
    assert op.check(out * (1 + 1e-7), ref)


def _shift_estimate(csv_text, k, delta):
    lines = csv_text.splitlines()
    cells = lines[k].split(",")
    est = float(cells[3]) + delta
    cells[3:6] = repr(est), repr(max(0.0, est - 0.05)), repr(min(1.0, est + 0.05))
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_mc_mean_shifted_by_ten_standard_errors_fails(smoke_outputs, ref):
    op, out = find(smoke_outputs, "scan --pattern k3 --n 40")
    size = workloads.SIZES["smoke"]["mc_scan"]
    lam = ref[op.ref_key]["lambda"]
    se = math.sqrt(lam / size["samples"])
    assert op.check(_shift_estimate(out, 1, 10 * se), ref)


def test_small_n_estimate_shifted_by_ten_deviations_fails(smoke_outputs, ref):
    op, out = find(smoke_outputs, "scan --pattern k3 --n 6")
    samples = workloads.SIZES["smoke"]["exact_n7"]["samples"]
    exact = ref[op.ref_key]["rows"]["1"]["exact"]
    sd = math.sqrt(exact * (1 - exact) / samples)
    assert op.check(_shift_estimate(out, 1, 10 * sd + 4 / samples), ref)


def test_failed_checks_exceptions_and_exits_count(smoke_outputs, ref):
    op, out = find(smoke_outputs, "core ")
    tampered = workloads.Op("tampered", lambda: out.replace('"Core"', '"Empty"'), op.check)
    raising = workloads.Op("raising", lambda: 1 / 0, op.check)
    exiting = workloads.cli_op(["scan", "--pattern", "k3", "--n", "6", "--kmax", "0"],
                               workloads.check_pass)
    genuine = workloads.Op("genuine", lambda: out, op.check)
    result = worker.run_ops([tampered, raising, exiting, genuine], ref)
    assert result["attempted"] == 4 and result["failed"] == 3
    assert [f["op"] for f in result["failures"]] == ["tampered", "raising", exiting.name]
    assert result["wall_s"] > 0


def test_speedometer_scales_each_op_to_the_reference_speed(smoke_outputs, ref):
    op, out = find(smoke_outputs, "core ")
    speed = worker.Speedometer()
    speed.samples = [1.0]  # taken before the run: ignored
    # every probe reads twice as fast as its reference
    speed.sample = lambda *_: speed.samples.append(speed.ref / 2)
    ops = [workloads.Op("genuine", lambda: out, op.check, memory_bound=bound)
           for bound in (False, True, False)]
    result = worker.run_ops(ops, ref, speed=speed)
    assert result["failed"] == 0 and result["op_scale"] == [2.0, 2.0, 2.0]
    assert math.isclose(result["wall_s"], 2 * result["raw_wall_s"])


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.layer_by_name = {"cli.main": "cli", "graphs.f": "graphs", "bounds.g": "bounds"}
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1, 0, True),
        ("graphs.f", 1.0, 4.0, 0, 0, True),
        ("bounds.g", 2.0, 3.0, 1, 0, False),
    ]
    layers = tracer.summary()["layers"]
    assert layers["cli"] == {"calls": 1, "self_s": 7.0, "errors": 0}
    assert layers["graphs"] == {"calls": 1, "self_s": 2.0, "errors": 0}
    assert layers["bounds"] == {"calls": 1, "self_s": 1.0, "errors": 1}


def test_counting_is_split_into_three_engines():
    assert tracing.layer_of("counting", "count_copies") == "counting.kernel"
    assert tracing.layer_of("counting", "planted_edge_delta") == "counting.planted"
    assert tracing.layer_of("counting", "tail_probability_table") == "counting.exact"
    assert tracing.layer_of("counting", "DisjointCopies.mask_array") == "counting.exact"
    assert tracing.layer_of("cores", "peel_to_core") == "cores"


_TRACE_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
from regtail import cli, graphs
{edit}
import tracing, worker, workloads
tracer = tracing.Tracer()
tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    ops = workloads.build("verify_small", 2, True, Path(tmp))
    result = worker.run_ops(ops, workloads.load_reference(), tracer)
print(json.dumps({{"result": result, "summary": tracer.summary()}}))
"""


@pytest.mark.parametrize("removed", [False, True])
def test_traced_names_and_removed_public_name(removed):
    # verify_small never samples G(n, p), so the sampler can go away
    edit = "del graphs.sample_gnp_with" if removed else ""
    script = _TRACE_SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"), edit=edit)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    assert data["result"]["failed"] == 0
    summary = data["summary"]
    assert summary["by_name"]["graphs.sample_gnp_with"]["calls"] == 0
    # lemma7 reaches the planted engine through verify's module global
    delta = summary["by_name"]["counting.planted_edge_delta"]["calls"]
    assert delta > 0 and summary["counts"]["counting.planted.delta_calls"] == delta
    assert summary["layers"]["spanned"]["calls"] > 0
    assert summary["hook_errors"] == 0
