"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs, the plaintext oracle finds no mismatch, counts
repeat exactly between runs of one seed, the traced run reports every
declared per-layer metric, and the command fails without the engine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_engine()

import workloads  # noqa: E402

TINY = 0.05
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_correct_and_repeats(name):
    first = run.measure(name, seed=3, seconds=2, trace=False, scale=TINY)
    second = run.measure(name, seed=3, seconds=2, trace=False, scale=TINY)
    outcome = first["outcome"]
    assert outcome.attempted > 0 and outcome.failed == 0
    assert second["outcome"].counts == outcome.counts
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert declared <= set(first["metrics"])
    assert all(first["metrics"][m] > 0 for m in declared)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.measure(name, seed=3, seconds=2, trace=True, scale=TINY)
    assert result["outcome"].failed == 0
    metrics = result["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert 0 < metrics["trace.coverage_pct"] <= 100
    spans = json.loads(Path(result["spans"]).read_text())["spans"]
    assert all(parent < span_id for span_id, parent, *_ in spans)


def test_oracle_flags_a_wrong_answer():
    model = workloads.TableModel({"X": np.array([5, 1, 9])})
    read = workloads.Read("", (("X", "<", 6),))

    class Answer:
        uids = np.array([0], dtype=np.uint64)
        count = 1

    assert not model.check(read, Answer)
    Answer.uids = np.array([1, 0], dtype=np.uint64)
    assert model.check(read, Answer)


def test_count_mismatch_between_passes_fails_loudly():
    passes = [run.run_pass(workloads.WORKLOADS["md-cold"](3, 2, TINY))
              for _ in range(2)]
    setup_s, signature, outcome = passes[1]
    outcome.counts["qpf_uses"] += 1
    with pytest.raises(run.DeterminismError):
        run.check_repeats("md-cold", passes)


def test_command_fails_without_the_engine(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sd-learn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
