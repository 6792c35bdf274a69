"""Workload and metric definitions shared by the benchmark's processes.

Every workload is one FADES experiment class on the mc8051 Bubblesort
testbed (``Evaluation`` defaults: values 9,3,12,5, 569 cycles, campaign
seed 2006), duration band 1, run through ``repro.runtime.run_campaign``.
The benchmark's ``--seed`` is the faultload seed, so the fault list is
the only input that changes from seed to seed.

Each workload isolates one layer; the comments name the layer it loads,
which per-layer rows it should move and which it bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    pool: str
    backend: str
    workers: int
    count: int
    #: Faults re-run on the other backend by the oracle child.  ``None``
    #: re-runs them all.
    oracle_sample: "int | None"
    #: Layer expected to hold the largest self time in a traced run.
    dominant: str


WORKLOADS: Dict[str, Workload] = {
    # The roadmap's hot path: per-fault device replay (Board log,
    # restore diff, CB-frame writes) around lane-packed simulation.
    # Large enough for the Board log's O(n^2) re-summing to show.
    "ffs-serial": Workload("ffs-serial", "bitflip", "ffs", "compiled", 0,
                           1500, oracle_sample=12,
                           dominant="fpga.replay"),
    # Scheduler, worker IPC and worker rebuild.  plan_shards caps shards
    # at MAX_SHARD_SIZE = 16, so every lane pass is under-filled.  One
    # worker: with two, the workers plus the parent oversubscribe a
    # 2-core host and two sets of identical runs disagreed by 7%.
    "ffs-pool": Workload("ffs-pool", "bitflip", "ffs", "compiled", 1,
                         480, oracle_sample=12,
                         dominant="runtime.worker.run_s"),
    # Full-configuration downloads and route-column decoding; the Board
    # log and the lane engine are nearly idle (bypass workload for both).
    "delay-serial": Workload("delay-serial", "delay", "nets:comb",
                             "compiled", 0, 12, oracle_sample=3,
                             dominant="fpga.device.write_frame_s"),
    # The reference simulator (the CLI default backend) and classify;
    # repro.emu does no work here.
    "ffs-ref": Workload("ffs-ref", "bitflip", "ffs", "reference", 0, 100,
                        oracle_sample=None,
                        dominant="fpga.device.step_s"),
}

#: Duration band of every workload (1-10 cycles).
BAND = 1

#: Environment knobs that would leak caches or settings into a run.
STRIPPED_ENV = ("REPRO_CACHE_DIR", "REPRO_EMU_LANES", "REPRO_CHAOS",
                "REPRO_FAULTS", "REPRO_PAPER_SCALE")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Rows whose self times partition the parent's ``experiments`` phase
#: together with ``runtime.unattributed_s``.
SELF_TIME_ROWS: Tuple[str, ...] = (
    "fpga.board.s",
    "fpga.bitstream.diff_frames_s",
    "fpga.device.write_frame_s",
    "fpga.jbits.write_full_s",
    "fpga.device.refresh_timing_s",
    "fpga.device.step_s",
    "fpga.device.load_state_s",
    "emu.run_lanes_s",
    "core.classify_s",
    "runtime.journal.append_s",
    "runtime.scheduler.parent_wait_s",
)

#: Set-up layers: inclusive times of the calls made before the
#: ``experiments`` phase (compilation runs inside the golden run).
SETUP_ROWS: Tuple[str, ...] = (
    "synth.synthesize_s",
    "fpga.implement_s",
    "emu.compile_s",
    "core.golden_run_s",
)

#: Worker-side experiment-phase self times, from the runtime's own
#: merged trace (zero on the serial workloads, which have no workers).
WORKER_ROWS: Tuple[str, ...] = (
    "runtime.worker.experiment_s",
    "runtime.worker.reconfigure_s",
    "runtime.worker.run_s",
    "runtime.worker.readback_s",
    "runtime.worker.classify_s",
)

#: Counts that must repeat exactly between runs of one workload and seed.
EXACT_COUNTS: Tuple[str, ...] = (
    "fpga.board.calls",
    "fpga.board.log_len",
    "fpga.device.write_frame.calls",
    "fpga.restore.frames_written",
    "emu.lane_passes",
    "runtime.scheduler.shards",
    "runtime.journal.appends",
)

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("fpga.board.s", "s"),
    ("fpga.board.calls", "count"),
    ("fpga.board.log_len", "count"),
    ("fpga.bitstream.diff_frames_s", "s"),
    ("fpga.restore.frames_written", "count"),
    ("fpga.device.write_frame_s", "s"),
    ("fpga.device.write_frame.calls", "count"),
    ("fpga.jbits.write_full_s", "s"),
    ("fpga.device.refresh_timing_s", "s"),
    ("emu.run_lanes_s", "s"),
    ("emu.lane_passes", "count"),
    ("emu.lane_fill", "ratio"),
    ("runtime.scheduler.shards", "count"),
    ("runtime.scheduler.parent_wait_s", "s"),
    ("runtime.scheduler.retries", "count"),
    ("runtime.worker.setup_s", "s"),
    ("runtime.worker.experiment_s", "s"),
    ("runtime.worker.reconfigure_s", "s"),
    ("runtime.worker.run_s", "s"),
    ("runtime.worker.readback_s", "s"),
    ("runtime.worker.classify_s", "s"),
    ("fpga.device.step_s", "s"),
    ("fpga.device.load_state_s", "s"),
    ("core.classify_s", "s"),
    ("runtime.journal.append_s", "s"),
    ("runtime.journal.appends", "count"),
    ("synth.synthesize_s", "s"),
    ("fpga.implement_s", "s"),
    ("emu.compile_s", "s"),
    ("core.golden_run_s", "s"),
    ("runtime.experiments_s", "s"),
    ("runtime.unattributed_s", "s"),
    ("obs.trace_overhead_pct", "%"),
)
