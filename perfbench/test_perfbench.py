"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest -q perfbench

They check that every per-layer metric the layer table expects on a
workload is non-zero in a traced repetition (a moved call site then shows
as a missing span, not a silent zero), that traced outputs are
byte-identical to untraced ones, that a broken gate counts as a failed
operation, that a per-layer metric reading 0 where the layer map expects
work is caught, and that the names printed match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "spiked_dense": workloads.SpikedDense(p=200, n=200, steps=32, n_vec=2),
    "pareto_log": workloads.ParetoLog(p=100, n=200, steps=1024, n_vec=1),
    "mlp_curvature": workloads.MlpCurvature(
        classes=3, n_per_class=20, dim=8, hidden=8, epochs=3, steps=64),
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_map() -> list[dict]:
    return json.loads((HERE / "baseline.json").read_text())["layers"]


def smoke_run(name: str, tmp_path: Path, trace: bool) -> run.Run:
    workload = SMOKE[name]
    workload.setup(tmp_path / name, seed=3)
    result = run.measure(workload, seconds=1e-9, trace=trace)
    run.judge(workload, result)
    return result


def test_names_match_benchmark_json():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(m["better"] == "lower" for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in tracing.PER_LAYER]
    mapped = {m for entry in layer_map() for m in entry["metrics"]}
    assert mapped <= {m for m, _, _ in tracing.PER_LAYER}


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_layers_are_nonzero_and_outputs_identical(name, tmp_path):
    result = smoke_run(name, tmp_path, trace=True)
    assert [r["traced"] for r in result.reps] == [False, True, False]
    assert result.failed == 0, [c for r in result.reps for c in r["commands"]
                                if not c["ok"]]
    assert any(name in entry["workloads"] for entry in layer_map())
    assert run.zero_layers(name, run.layer_table(result)) == []


def test_zero_layer_metric_is_caught():
    table = {m: 1.0 for m, _, _ in tracing.PER_LAYER}
    table["deflation.max_residual"] = 0.0
    assert run.zero_layers("spiked_dense", table) == ["deflation.max_residual"]
    assert run.zero_layers("pareto_log", table) == []


def test_broken_gate_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SPIKE_REL_TOL", -1.0)
    result = smoke_run("spiked_dense", tmp_path, trace=False)
    failed = [c["label"] for r in result.reps for c in r["commands"]
              if not c["ok"]]
    assert failed == ["spectrum", "spectrum"]
    assert (result.failed, result.attempted) == (2, 4)


def test_refuses_specdens_workers(monkeypatch, capsys):
    monkeypatch.setenv("SPECDENS_WORKERS", "2")
    assert run.main(["--workload", "pareto_log"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pareto_log",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
