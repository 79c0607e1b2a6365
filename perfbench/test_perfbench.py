"""Tests of the benchmark itself, on a config small enough to run in seconds.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402

TINY = {"corpus_size": 8, "ae_steps": 40, "ae_hidden": 64, "dn_steps": 40,
        "dn_hidden": 32, "codec_epochs": 8, "codec_hidden": 32,
        "eval_prompts": 4, "sweep_trials": 1, "sweep_snrs_db": (0.0, 10.0),
        "power_prompts": 4, "power_eval_traces": 6, "ppo_update_rounds": 2,
        "ppo_episodes_per_batch": 4}


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], overrides=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(workload, capsys):
    result = _bench(workload, 0, capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == _declared("end_to_end")
    for name, m in metrics.items():
        assert math.isfinite(m["value"]) and m["value"] != 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_span_records_calls_where_it_is_exercised(workload, capsys):
    result = _bench(workload, 1, capsys)
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == _declared("per_layer")
    for span in layers.SPANS:
        if workload not in span.exercised_by:
            continue
        if "calls" in span.fields:
            assert metrics[f"{span.name}.calls"]["value"] >= 1, span.name
        else:
            timed = "s" if "s" in span.fields else "self_s"
            assert metrics[f"{span.name}.{timed}"]["value"] > 0, span.name


def test_tracer_wraps_from_imports_and_restores_them():
    from megsim import experiments, nn, power_rl, protocol
    originals = (protocol.run_end_to_end, protocol.es_handle_request,
                 nn.Adam.__dict__["step"])
    with layers.Tracer():
        assert experiments.run_end_to_end is protocol.run_end_to_end
        assert power_rl.es_handle_request is protocol.es_handle_request
        assert protocol.run_end_to_end is not originals[0]
        assert nn.Adam.__dict__["step"] is not originals[2]
    assert experiments.run_end_to_end is originals[0]
    assert power_rl.es_handle_request is originals[1]
    assert nn.Adam.__dict__["step"] is originals[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
