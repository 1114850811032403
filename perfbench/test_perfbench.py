"""Self-test of the benchmark on tiny seeded cases: every metric that
BENCHMARK.json names is reported with its unit.  No timing is asserted."""

import json
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert run.main(argv, tiny=True) == 0
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in out["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact_lab", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
