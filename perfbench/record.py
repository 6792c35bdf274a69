"""Record the expected outputs that ``run.py`` checks every run against.

For each workload and seed this runs one untraced repetition and stores
the per-fault outcome string (F/L/S by fault index), the simulated
emulation seconds and the board bytes in ``perfbench/expected.json``.
Re-record only when a change is *meant* to alter campaign outputs.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10,2006 [--workload ffs-ref]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import child_env, run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append")
    args = parser.parse_args(argv)
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)
    env = child_env(os.getcwd())
    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                rep = run_child(
                    ["measure", "--workload", name, "--seed", str(seed),
                     "--workdir", os.path.join(workdir, "rep")], env,
                    os.path.join(workdir, "rep.json"),
                    time.monotonic() + 600)
            if rep["quarantined"] or rep["retries"]:
                print(f"{name} seed {seed}: quarantined or retried "
                      "experiments; not recorded", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = {
                key: rep[key]
                for key in ("outcomes", "emulated_s", "board_bytes")}
            print(f"{name} seed {seed}: {rep['outcomes'].count('F')} F / "
                  f"{rep['outcomes'].count('L')} L / "
                  f"{rep['outcomes'].count('S')} S", file=sys.stderr)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(expected, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
