"""Host-speed probe: a fixed snippet timed every 50 ms inside a campaign.

The benchmark shares a 2-core host whose speed drifts with its
neighbours' load: the same campaign in fresh interpreters reads from
about 4.8 s to 7.9 s within minutes, and a fixed pure-Python loop swings
between two speed levels about 1.6x apart for seconds to minutes at a
time.  Timing that same loop in the process doing the work, while the
work runs, measures the host's speed at that moment.  ``run.py`` scales
each wall time by ``REFERENCE_PROBE_S / mean probe time`` over the same
window, which gives the seconds the campaign would take on a host where
the probe takes ``REFERENCE_PROBE_S``: the campaign's own cost is kept,
the host's drift is divided out.  The raw wall times are printed too.

A SIGALRM interval timer drives the probe.  Timers are not inherited by
fork, so pool workers start their own when their ``JobRunner`` is built
and append their samples to a file after every shard.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time
from typing import List, Sequence, Tuple

#: Probe period and the probe time of the reference host (seconds).
INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0005

Sample = Tuple[float, float]  # (end time on the monotonic clock, seconds)


def _probe_work() -> int:
    """About half a millisecond of interpreter work: ints and a dict."""
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
        table[i & 63] = acc ^ (acc >> 7)
    return acc


class Speedometer:
    """Collects probe samples in this process (and its pool workers)."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.owner = os.getpid()
        self.samples: List[Sample] = []

    def _probe(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.samples.append((end, end - begin))

    def start(self) -> None:
        """Start sampling in the calling process."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def flush(self) -> None:
        """Append a worker's samples to its file (workers only)."""
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.samples) + "\n")
        self.samples = []

    def follow_workers(self) -> None:
        """Make pool workers sample themselves (see module docstring)."""
        from repro.runtime.jobspec import JobRunner

        os.makedirs(self.worker_dir, exist_ok=True)
        meter = self
        runner_init = JobRunner.__init__
        run_indices = JobRunner.run_indices

        @functools.wraps(runner_init)
        def init(runner, *args, **kwargs) -> None:
            if os.getpid() != meter.owner:
                meter.start()
            runner_init(runner, *args, **kwargs)

        @functools.wraps(run_indices)
        def run(runner, *args, **kwargs):
            try:
                return run_indices(runner, *args, **kwargs)
            finally:
                if os.getpid() != meter.owner:
                    meter.flush()

        JobRunner.__init__ = init
        JobRunner.run_indices = run

    def worker_samples(self) -> List[Sample]:
        samples: List[Sample] = []
        for name in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, name),
                      encoding="utf-8") as handle:
                for line in handle:
                    samples.extend(tuple(pair) for pair in json.loads(line))
        return samples


def speed_factor(samples: Sequence[Sample], begin: float,
                 end: float) -> float:
    """``REFERENCE_PROBE_S`` over the mean probe time in [begin, end]."""
    window = [seconds for stamp, seconds in samples if begin <= stamp <= end]
    if not window:
        raise ValueError(f"no probe samples between {begin} and {end}")
    return REFERENCE_PROBE_S * len(window) / sum(window)
