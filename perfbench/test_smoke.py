"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once at the seconds-long "tiny" size, untraced and
traced, and checks that every metric BENCHMARK.json names comes back with
its unit, that all ops pass their checks, and that no qmeas binding is
left wrapped after tracing.
"""

import json
from pathlib import Path

import pytest

import checks
import gen
import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_reported_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric_and_unwraps(workload):
    plain = run.run_workload(workload, seed=3, seconds=0.2, trace=False, size="tiny")
    assert plain["correct"], plain["failures"]
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(workload, seed=3, seconds=0.2, trace=True, size="tiny")
    assert traced["correct"], traced["failures"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == run.per_layer_units()
    assert traced["metrics"]["cli.main.calls"]["value"] == len(gen.WORKLOADS["tiny"][workload])
    assert tracing.wrapped_bindings() == []
    if workload == "single-process":
        composing = [k for k in traced["metrics"] if k.startswith("intersubjectivity.") and k.endswith(".calls")]
        assert all(traced["metrics"][k]["value"] == 0 for k in composing)


def test_traced_block_restores_every_binding():
    import qmeas.intersubjectivity as inter

    run.import_qmeas()
    original = inter.compose_joint_scenario
    with tracing.traced(tracing.Tracer()):
        assert inter.compose_joint_scenario is not original
        assert tracing.wrapped_bindings()
    assert inter.compose_joint_scenario is original
    assert tracing.wrapped_bindings() == []


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_scenarios(tmp_path):
    for workload in run.WORKLOADS:
        gen.generate(workload, 5, tmp_path / "a" / workload)
        gen.generate(workload, 5, tmp_path / "b" / workload)
        gen.generate(workload, 6, tmp_path / "c" / workload)
        first = _files(tmp_path / "a" / workload)
        assert first == _files(tmp_path / "b" / workload)
        assert first != _files(tmp_path / "c" / workload)


def test_negative_control_mismatch_is_a_failure():
    op = {"command": "counterexample", "expect": {"exit": 1, "off_diagonal_mass": 0.5, "tol": gen.CLI_TOL}}
    metrics = {"off_diagonal_mass": 0.5, "tolerance": gen.CLI_TOL}
    report = {"command": "counterexample", "pass": False, "metrics": metrics, "details": {}}
    assert checks.problems(op, {}, 1, json.dumps(report)) == []
    assert checks.problems(op, {}, 0, json.dumps(report))
    report["metrics"]["off_diagonal_mass"] = 0.25
    assert checks.problems(op, {}, 1, json.dumps(report))


def test_inflated_tolerance_is_a_failure():
    op = {"command": "verify-oit", "expect": {"exit": 0, "trials": 10, "seed": 4, "tol": gen.CLI_TOL}}
    metrics = {"trials": 10, "seed": 4, "max_off_diagonal_mass": 1e-3, "max_born_gap": 0.0, "tolerance": 1e-2}
    report = {"command": "verify-oit", "pass": True, "metrics": metrics, "details": {}}
    found = checks.problems(op, {}, 0, json.dumps(report))
    assert any("tolerance" in problem for problem in found)
    assert any("max_off_diagonal_mass" in problem for problem in found)

