"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.  They run
small campaigns through ``child.py`` (a few seconds each) and check what
the benchmark's claims rest on: exact counts repeat between runs, the
traced run reproduces the untraced outputs, the self-time rows partition
the ``experiments`` phase, and ``run.py`` refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import check, child_env  # noqa: E402
from workloads import (EXACT_COUNTS, SELF_TIME_ROWS,  # noqa: E402
                       WORKLOADS)

OUTPUTS = ("outcomes", "emulated_s", "board_bytes", "sample", "faults")


def measure(tmp_path, name: str, workload: str, count: int,
            traced: bool) -> dict:
    out = tmp_path / f"{name}.json"
    command = [sys.executable, os.path.join(HERE, "child.py"), "measure",
               "--workload", workload, "--seed", "3", "--count", str(count),
               "--workdir", str(tmp_path / name), "--out", str(out),
               "--indices", "0,1,5"]
    if traced:
        command.append("--traced")
    subprocess.run(command, env=child_env(ROOT), check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload,count", [("ffs-serial", 40),
                                            ("ffs-pool", 40),
                                            ("ffs-ref", 6)])
def test_traced_runs_repeat_counts_and_outputs(tmp_path, workload, count):
    plain = measure(tmp_path, "plain", workload, count, traced=False)
    first = measure(tmp_path, "first", workload, count, traced=True)
    second = measure(tmp_path, "second", workload, count, traced=True)
    for key in OUTPUTS:
        assert first[key] == plain[key] == second[key], key
    for name in EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["runtime.journal.appends"] == count
    assert first["quarantined"] == first["retries"] == 0


def test_self_times_partition_the_experiments_phase(tmp_path):
    layers = measure(tmp_path, "traced", "ffs-serial", 40,
                     traced=True)["layers"]
    rows = sum(layers[name] for name in SELF_TIME_ROWS)
    assert rows + layers["runtime.unattributed_s"] == pytest.approx(
        layers["runtime.experiments_s"])
    assert 0.0 <= layers["runtime.unattributed_s"] \
        < layers["runtime.experiments_s"]
    assert layers["emu.lane_passes"] == 1
    assert layers["fpga.board.log_len"] > 0


def test_pool_lane_use_comes_from_the_worker_trace(tmp_path):
    layers = measure(tmp_path, "traced", "ffs-pool", 40,
                     traced=True)["layers"]
    # 40 faults, one worker: four shards of 10, one lane pass each.
    assert layers["runtime.scheduler.shards"] == 4
    assert layers["emu.lane_passes"] == 4
    assert layers["runtime.worker.run_s"] > 0.0
    assert layers["runtime.worker.setup_s"] > 0.0


def test_check_counts_mismatches_and_quarantines():
    workload = WORKLOADS["ffs-serial"]
    view = ["latent", {"overhead_s": 0.01, "transactions": 3}, None]
    rep = {"faults": 3, "quarantined": 0, "retries": 0, "outcomes": "LFS",
           "emulated_s": 1.0, "board_bytes": 10, "sample": {"0": view}}
    bad = dict(rep, outcomes="LSS", quarantined=1)
    oracle = {"backend": "reference", "sample": {"0": view}}
    notes: list = []
    assert check(workload, -1, [rep, rep], oracle, notes) == {
        "attempted": 7, "failed": 0, "aggregate": 0}
    verdict = check(workload, -1, [rep, bad], oracle, notes)
    assert verdict["failed"] == 2
    close = dict(rep, emulated_s=1.0 + 1e-12)
    assert check(workload, -1, [rep, close], oracle, [])["aggregate"] == 0
    off = dict(rep, board_bytes=11)
    assert check(workload, -1, [rep, off], oracle, [])["aggregate"] == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ffs-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
