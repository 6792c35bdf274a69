"""Campaign benchmark: one FADES experiment class per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ffs-serial --seed 2006 \\
        --seconds 24 --trace 0

Each repetition is a fresh interpreter (``child.py``) that calls
``repro.runtime.run_campaign`` once with its own journal and an
environment stripped of the ``REPRO_*`` cache and tuning knobs.
Repetitions run back to back until ``--seconds`` is spent (at least
two), and every metric is the median over them.  Times are scaled to
a reference host speed measured while the campaign runs (``speed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer split instead.

Every run checks its outputs: the per-fault outcome string, the
simulated emulation seconds and the board bytes must match the
recorded expectation for the seed (``expected.json``, written by
``record.py``) and repeat across repetitions, and a sample of faults
re-run on the other simulator backend must agree fault for fault.  The
last line of standard output is the JSON result; a readable summary goes
to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (END_TO_END, EXACT_COUNTS, PER_LAYER,  # noqa: E402
                       SELF_TIME_ROWS, STRIPPED_ENV, WORKER_ROWS,
                       WORKLOADS, Workload)

#: Fewest rounds behind every median, whatever ``--seconds`` says.  A
#: round is one untraced repetition, plus one traced one with ``--trace 1``.
MIN_ROUNDS = 2

#: Wall-clock cap on the whole run; children are killed past it.
RUN_LIMIT_S = 170.0

#: Relative tolerance on simulated seconds.  The board sums floats in
#: an order that optimisations may legitimately change; outcomes, board
#: bytes and transaction counts are compared exactly.
SIM_RTOL = 1e-9

#: Rows that make up the device-replay layer (``fpga.replay``).
FPGA_REPLAY = ("fpga.board.s", "fpga.bitstream.diff_frames_s",
               "fpga.device.write_frame_s", "fpga.jbits.write_full_s",
               "fpga.device.refresh_timing_s")


class BenchmarkError(RuntimeError):
    """A repetition could not run; the run reports no result."""


def child_env(root: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(args: List[str], env: Dict[str, str], out: str,
              deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` in its own session; kill the session on timeout."""
    command = [sys.executable, os.path.join(HERE, "child.py"), *args,
               "--out", out]
    process = subprocess.Popen(command, env=env, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {args[0]} ran past its "
                             "deadline") from None
    finally:
        # Pool workers share the child's session; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise BenchmarkError(f"child {args[0]} exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def load_expected(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def oracle_indices(workload: Workload, seed: int) -> List[int]:
    if workload.oracle_sample is None:
        return list(range(workload.count))
    return sorted(random.Random(seed).sample(range(workload.count),
                                             workload.oracle_sample))


def same_record(a: Optional[List[Any]], b: Optional[List[Any]]) -> bool:
    """Outcome, divergence cycle and transactions exact; costs close."""
    if a is None or b is None:
        return False
    (outcome_a, cost_a, first_a), (outcome_b, cost_b, first_b) = a, b
    return (outcome_a == outcome_b and first_a == first_b
            and cost_a.keys() == cost_b.keys()
            and all(math.isclose(cost_a[key], cost_b[key], rel_tol=SIM_RTOL)
                    if isinstance(cost_a[key], float)
                    else cost_a[key] == cost_b[key] for key in cost_a))


def check(workload: Workload, seed: int, reps: List[Dict[str, Any]],
          oracle: Dict[str, Any], notes: List[str]) -> Dict[str, int]:
    """Compare every repetition with the expectation and the oracle.

    Returns attempted and failed experiment counts and the number of
    aggregate mismatches.  A fault fails when it was quarantined or
    retried, or when its outcome differs from the reference.
    """
    expected = load_expected(workload.name, seed)
    if expected is None:
        notes.append(f"no recorded expectation for seed {seed}: "
                     "checking repetitions against each other and the "
                     "oracle only")
        expected = reps[0]
    attempted = failed = aggregate = 0
    for number, rep in enumerate(reps):
        attempted += rep["faults"]
        failed += rep["quarantined"] + rep["retries"]
        outcomes, want = rep["outcomes"], expected["outcomes"]
        wrong = sum(a != b for a, b in zip(outcomes, want))
        wrong += abs(len(outcomes) - len(want))
        failed += wrong
        if wrong:
            notes.append(f"repetition {number}: {wrong} outcomes differ")
        if not (math.isclose(float(rep["emulated_s"]),
                             float(expected["emulated_s"]), rel_tol=SIM_RTOL)
                and rep["board_bytes"] == expected["board_bytes"]):
            aggregate += 1
            notes.append(f"repetition {number}: simulated seconds "
                         f"{rep['emulated_s']} / board bytes "
                         f"{rep['board_bytes']} != expected "
                         f"{expected['emulated_s']} / "
                         f"{expected['board_bytes']}")
        if not all(same_record(view, reps[0]["sample"].get(index))
                   for index, view in rep["sample"].items()):
            aggregate += 1
            notes.append(f"repetition {number}: sampled records differ")
    measured = reps[0]["sample"]
    for index, view in oracle["sample"].items():
        attempted += 1
        if not same_record(view, measured.get(index)):
            failed += 1
            notes.append(f"fault {index}: {workload.backend} "
                         f"{measured.get(index)} != {oracle['backend']} "
                         f"{view}")
    return {"attempted": attempted, "failed": failed,
            "aggregate": aggregate}


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    median = statistics.median
    return {
        "campaign_s": median([rep["campaign_s"] for rep in reps]),
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "faults_per_s": median([rep["faults"] / rep["experiments_s"]
                                for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def per_layer(workload: Workload, plain: List[Dict[str, Any]],
              traced: List[Dict[str, Any]],
              notes: List[str]) -> Dict[str, float]:
    layers = [rep["layers"] for rep in traced]
    for name in EXACT_COUNTS:
        values = {rep[name] for rep in layers}
        if len(values) != 1:
            raise BenchmarkError(f"count {name} varies across traced "
                                 f"repetitions: {sorted(values)}")
    rows = {name: statistics.median([rep[name] for rep in layers])
            for name, _unit in PER_LAYER
            if name != "obs.trace_overhead_pct"}
    rows.update({name: layers[0][name] for name in EXACT_COUNTS})
    untraced = statistics.median([rep["campaign_s"] for rep in plain])
    with_trace = statistics.median([rep["campaign_s"] for rep in traced])
    rows["obs.trace_overhead_pct"] = 100.0 * (with_trace / untraced - 1.0)
    table = working_layers(rows, group=False)
    notes.append("self time by layer (s): " + ", ".join(
        f"{name}={seconds:.3f}" for name, seconds in table)
        + f"; fpga.replay={sum(rows[name] for name in FPGA_REPLAY):.3f}")
    dominant = working_layers(rows, group=workload.dominant == "fpga.replay")
    notes.append(f"dominant layer {dominant[0][0]} (predicted "
                 f"{workload.dominant})")
    return rows


def working_layers(rows: Dict[str, float], group: bool) -> List[Any]:
    """Self-time rows of layers doing work, largest first.

    With *group*, the device-replay rows count as one layer,
    ``fpga.replay``.  The parent's wait on its workers is left out: it
    overlaps the worker rows it waits for.
    """
    table = {name: rows[name] for name in SELF_TIME_ROWS + WORKER_ROWS
             if name != "runtime.scheduler.parent_wait_s"
             and not (group and name in FPGA_REPLAY)}
    if group:
        table["fpga.replay"] = sum(rows[name] for name in FPGA_REPLAY)
    return sorted(table.items(), key=lambda item: -item[1])


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            env: Dict[str, str], workdir: str, deadline: float,
            indices: List[int]) -> Dict[str, List[Dict[str, Any]]]:
    """Repetitions until *seconds* are spent (at least the minimum)."""
    reps: Dict[str, List[Dict[str, Any]]] = {"plain": [], "traced": []}
    kinds = ("plain", "traced") if traced else ("plain",)
    start = time.monotonic()
    rounds: List[float] = []
    while True:
        begin = time.monotonic()
        for kind in kinds:
            number = len(reps[kind])
            rep_dir = os.path.join(workdir, f"{kind}-{number}")
            args = ["measure", "--workload", workload.name,
                    "--seed", str(seed), "--workdir", rep_dir,
                    "--indices", ",".join(map(str, indices))]
            if kind == "traced":
                args.append("--traced")
            reps[kind].append(run_child(args, env, rep_dir + ".json",
                                        deadline))
            shutil.rmtree(rep_dir, ignore_errors=True)
        rounds.append(time.monotonic() - begin)
        spent = time.monotonic() - start
        if (len(rounds) >= MIN_ROUNDS
                and spent + statistics.median(rounds) > seconds):
            return reps


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="FADES campaign benchmark (see module docstring).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro sources under {root}/src; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    notes: List[str] = []
    try:
        indices = oracle_indices(workload, args.seed)
        # The oracle runs first: besides checking outputs it warms the
        # host, whose first campaign after a pause runs measurably slower.
        oracle = run_child(
            ["oracle", "--workload", workload.name, "--seed",
             str(args.seed), "--workdir", os.path.join(workdir, "oracle"),
             "--indices", ",".join(map(str, indices))],
            env, os.path.join(workdir, "oracle.json"), deadline)
        reps = measure(workload, args.seed, args.seconds, bool(args.trace),
                       env, workdir, deadline, indices)
        all_reps = reps["plain"] + reps["traced"]
        verdict = check(workload, args.seed, all_reps, oracle, notes)
        if args.trace:
            values = per_layer(workload, reps["plain"], reps["traced"],
                               notes)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(reps["plain"])
            units = dict(END_TO_END)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = verdict["failed"] == 0 and verdict["aggregate"] == 0
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed {args.seed}: "
          f"{len(reps['plain'])} untraced + {len(reps['traced'])} traced "
          f"repetitions, failed_frac "
          f"{verdict['failed'] / verdict['attempted']:.4f}, "
          f"correct={correct}", file=sys.stderr)
    print("perfbench: campaign_s per repetition, at reference speed: "
          + " ".join(f"{rep['campaign_s']:.3f}" for rep in reps["plain"])
          + "; wall: " + " ".join(f"{rep['wall']['campaign_s']:.3f}"
                                  for rep in reps["plain"]),
          file=sys.stderr)
    for name, value in values.items():
        print(f"perfbench:   {name} = {value:.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
