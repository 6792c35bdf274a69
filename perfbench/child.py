"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Modes:

``measure``
    Build the workload's job spec, call ``repro.runtime.run_campaign``
    once with a fresh journal, and write what the campaign produced and
    how long it took as JSON.  With ``--traced`` the layer clock of
    ``layers.py`` is installed first and the per-layer split is added.
``oracle``
    Re-run the given fault indices on the *other* simulator backend
    through ``JobRunner`` and write their records, for the parent to
    compare against the measured campaign (compiled and reference
    backends must agree fault for fault, cost for cost).

Usage: ``python perfbench/child.py measure|oracle --workload NAME
--seed N --workdir DIR --out FILE [--traced] [--indices 1,2,3]
[--count N]``.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List

from workloads import (EXACT_COUNTS, SELF_TIME_ROWS, SETUP_ROWS,
                       WORKER_ROWS, WORKLOADS, Workload, BAND)


def build_jobspec(workload: Workload, seed: int, count: int):
    """The job spec ``repro campaign`` builds for the same flags."""
    from repro.analysis.experiments import Evaluation
    from repro.core import FaultModel
    from repro.runtime import CampaignJobSpec

    evaluation = Evaluation()
    evaluation.backend = workload.backend
    spec = evaluation.spec(FaultModel(workload.model), workload.pool,
                           band=BAND, count=count)
    return CampaignJobSpec.from_evaluation(evaluation, spec,
                                           faultload_seed=seed)


def record_view(record: Dict[str, Any]) -> List[Any]:
    """What the oracle compares per fault: outcome, cost, divergence."""
    return [record["outcome"], record["cost"], record["first_divergence"]]


def worker_split(trace_path: str) -> Dict[str, float]:
    """Worker-side self times and lane use from the runtime's trace."""
    from repro.obs.summary import summarize_trace
    from repro.obs.tracing import PARENT_TID, read_trace

    events = read_trace(trace_path)
    summary = summarize_trace(events)
    split = {f"runtime.worker.{name}_s": row["self_s"]
             for name, row in summary["experiment_phases"].items()}
    # summarize_trace reports experiment spans inclusively; their self
    # time is what the spans nested directly in them leave over.  A
    # worker's top-level spans carry the id of the parent's span that
    # was open at fork time, which can equal a worker span's id, so a
    # child must also lie inside its experiment's interval.
    workers = [event for event in events if event.get("ph") == "X"
               and event.get("tid") not in (None, PARENT_TID)]
    experiments = {(event["tid"], event["args"]["id"]):
                   (event["ts"], event["ts"] + event["dur"])
                   for event in workers if event["name"] == "experiment"}

    def nested_in_experiment(event: Dict[str, Any]) -> bool:
        interval = experiments.get((event["tid"],
                                    event["args"].get("parent")))
        return (interval is not None and interval[0] <= event["ts"]
                and event["ts"] + event["dur"] <= interval[1])

    nested = sum(event["dur"] for event in workers
                 if nested_in_experiment(event))
    split["runtime.worker.experiment_s"] = (
        summary["experiments"]["total_s"] - nested / 1e6)
    passes = [event["args"]["lanes"] for event in workers
              if event["name"] == "run"
              and event["args"].get("backend") == "compiled"
              and event["args"].get("lanes", 1) > 1]
    split["emu.lane_passes"] = len(passes)
    split["emu.fault_lanes"] = sum(lanes - 1 for lanes in passes)
    return split


def layer_metrics(clock, captured: Dict[str, Any], snapshot,
                  workdir: str, trace_path: str) -> Dict[str, float]:
    """The per-layer rows of one traced campaign."""
    from repro.emu import lane_width

    inside = clock.in_experiments
    self_s = inside["self_s"]
    calls = inside["calls"]
    counts = inside["counts"]
    rows: Dict[str, float] = {
        "fpga.board.s": self_s.get("fpga.board", 0.0),
        "fpga.board.calls": calls.get("fpga.board", 0),
        "fpga.bitstream.diff_frames_s":
            self_s.get("fpga.bitstream.diff_frames", 0.0),
        "fpga.restore.frames_written":
            counts.get("fpga.restore.frames_written", 0),
        "fpga.device.write_frame_s":
            self_s.get("fpga.device.write_frame", 0.0),
        "fpga.device.write_frame.calls":
            calls.get("fpga.device.write_frame", 0),
        "fpga.jbits.write_full_s": self_s.get("fpga.jbits.write_full", 0.0),
        "fpga.device.refresh_timing_s":
            self_s.get("fpga.device.refresh_timing", 0.0),
        "fpga.device.step_s": self_s.get("fpga.device.step", 0.0),
        "fpga.device.load_state_s":
            self_s.get("fpga.device.load_state", 0.0),
        "emu.run_lanes_s": self_s.get("emu.run_lanes", 0.0),
        "emu.lane_passes": calls.get("emu.run_lanes", 0),
        "emu.fault_lanes": counts.get("emu.fault_lanes", 0),
        "core.classify_s": self_s.get("core.classify", 0.0),
        "runtime.journal.append_s":
            self_s.get("runtime.journal.append", 0.0),
        "runtime.journal.appends": calls.get("runtime.journal.append", 0),
        "runtime.scheduler.shards":
            counts.get("runtime.scheduler.shards", 0),
        "runtime.scheduler.parent_wait_s":
            self_s.get("runtime.scheduler.parent_wait", 0.0),
        "runtime.scheduler.retries": snapshot.retries,
    }
    before = clock.before_experiments or {}
    for row in SETUP_ROWS:
        rows[row] = before.get(row[:-len("_s")], 0.0)
    campaign = captured.get("campaign")
    rows["fpga.board.log_len"] = (len(campaign.board.transactions)
                                  if campaign is not None else 0)

    rows.update({row: 0.0 for row in WORKER_ROWS})
    rows["runtime.worker.setup_s"] = 0.0
    if os.path.exists(trace_path):
        split = worker_split(trace_path)
        # The lane engine runs in the worker: its passes come from the
        # worker's run spans and its time is runtime.worker.run_s.
        rows.update(split)
        worker_log = os.path.join(workdir, "worker_setup.jsonl")
        if os.path.exists(worker_log):
            with open(worker_log, encoding="utf-8") as handle:
                rows["runtime.worker.setup_s"] = sum(
                    json.loads(line)["setup_s"] for line in handle)
    fault_lanes = rows.pop("emu.fault_lanes")
    slots = rows["emu.lane_passes"] * (lane_width() - 1)
    rows["emu.lane_fill"] = fault_lanes / slots if slots else 0.0

    experiments = snapshot.phases.get("experiments", 0.0)
    rows["runtime.experiments_s"] = experiments
    rows["runtime.unattributed_s"] = experiments - sum(
        rows[row] for row in SELF_TIME_ROWS)
    for name in EXACT_COUNTS:
        rows[name] = int(rows[name])
    return rows


def measure(args: argparse.Namespace, workload: Workload) -> Dict:
    from repro.obs.metrics import REGISTRY
    from repro.runtime import record_from_result, run_campaign

    from speed import Speedometer, speed_factor

    clock = captured = None
    if args.traced:
        from layers import LayerClock, install
        clock = LayerClock()
        captured = install(clock, os.path.join(args.workdir,
                                               "worker_setup.jsonl"))
    jobspec = build_jobspec(workload, args.seed, args.count)
    journal = os.path.join(args.workdir, "journal.jsonl")
    trace_path = os.path.join(args.workdir, "trace.json")
    # Only the pool's workers need the runtime's own trace: the layer
    # clock cannot see inside them.
    trace = trace_path if args.traced and workload.workers else None
    meter = Speedometer(os.path.join(args.workdir, "probes"))
    if workload.workers:
        meter.follow_workers()
    snapshots: List[Any] = []
    meter.start()
    begin = time.perf_counter()
    result = run_campaign(jobspec, workers=workload.workers,
                          journal=journal, progress=snapshots.append,
                          trace=trace)
    end = time.perf_counter()
    meter.stop()
    snapshot = snapshots[-1]
    phases = snapshot.phases
    setup_end = begin + phases["setup"] + phases["golden"]
    setup_speed = speed_factor(meter.samples, begin, setup_end)
    work_speed = speed_factor(
        meter.worker_samples() if workload.workers else meter.samples,
        setup_end, end)
    wall = {"campaign_s": end - begin,
            "setup_s": setup_end - begin,
            "experiments_s": phases["experiments"]}

    sample = {str(index): record_view(record_from_result(
                  index, result.experiments[index]))
              for index in args.indices}
    maxrss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    output = {
        # Wall times at the reference host speed (see speed.py).
        "campaign_s": (wall["setup_s"] * setup_speed
                       + (wall["campaign_s"] - wall["setup_s"]) * work_speed),
        "setup_s": wall["setup_s"] * setup_speed,
        "experiments_s": wall["experiments_s"] * work_speed,
        "wall": wall,
        "faults": len(result.experiments),
        "quarantined": snapshot.quarantined,
        "retries": snapshot.retries,
        "outcomes": "".join(experiment.outcome.value[0].upper()
                            for experiment in result.experiments),
        "emulated_s": result.total_emulation_s,
        "board_bytes": int(REGISTRY.get("reconfig_bytes_total").total()),
        "peak_rss_mb": maxrss / 1024.0,
        "sample": sample,
    }
    if clock is not None:
        output["layers"] = layer_metrics(clock, captured, snapshot,
                                         args.workdir, trace_path)
    return output


def oracle(args: argparse.Namespace, workload: Workload) -> Dict:
    from repro.runtime import JobRunner

    other = "reference" if workload.backend == "compiled" else "compiled"
    jobspec = replace(build_jobspec(workload, args.seed, args.count),
                      backend=other)
    records = JobRunner(jobspec).run_indices(args.indices)
    return {"backend": other,
            "sample": {str(record["index"]): record_view(record)
                       for record in records}}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "oracle"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--indices", default="",
                        type=lambda text: [int(part) for part in
                                           text.split(",") if part])
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.count is None:
        args.count = workload.count
    os.makedirs(args.workdir, exist_ok=True)
    output = (measure if args.mode == "measure" else oracle)(args, workload)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
