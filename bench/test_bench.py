"""Self-test of bench/run.py on tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import layer_metrics  # noqa: E402
from stages import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_reported(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "gen", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_trace_target_drops_its_metrics():
    from proxyvote import cli

    original = cli.cmd_vote
    tracer = Tracer({"cli.vote": [("proxyvote.cli", "cmd_vote")],
                     "voting.vote_keypoint": [("proxyvote.cli", "no_such_function")]})
    tracer.install()
    try:
        assert cli.cmd_vote is not original
    finally:
        tracer.restore()
    assert cli.cmd_vote is original
    assert tracer.missing == ["proxyvote.cli.no_such_function"]
    traced = {"spans": [["cli.vote", -1, 0.0, 2.0, {}]], "installed": sorted(tracer.installed),
              "stages": [{"name": "vote", "rc": 0, "wall_s": 2.0}]}
    metrics = layer_metrics(traced, None)
    assert metrics["cli.vote.self_ms"] == 2000.0
    assert not any(name.startswith("voting.vote_keypoint") for name in metrics)
