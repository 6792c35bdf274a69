"""Per-layer self-time clock, installed around the program's public calls.

The benchmark records no spans inside ``src/``: it wraps the public
functions of each layer from here, in the child process that runs the
campaign, and keeps a stack so that a call's *self* time excludes the
time spent in nested wrapped calls.  Self times of different wrapped
functions therefore never overlap, and together with the remainder
(``runtime.unattributed_s``) they partition the ``experiments`` phase.

Wrappers only measure in the process that installed them.  Forked
workers inherit them but call straight through; their split comes from
the runtime's own merged trace instead (see ``child.py``).
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

Observer = Callable[[tuple, dict, Any], None]


class LayerClock:
    """Call counts, inclusive and self times per layer key."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Work counts reported by observers (frames, shards, lanes).
        self.counts: Dict[str, int] = {}
        self._stack: List[float] = []
        #: State when the first ``experiments`` phase began, and the
        #: self times, calls and counts accumulated inside that phase.
        self.before_experiments: Optional[Dict[str, float]] = None
        self.in_experiments: Dict[str, Dict[str, float]] = {
            "self_s": {}, "calls": {}, "counts": {}}

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, key: str, fn: Callable,
              observe: Optional[Observer] = None) -> Callable:
        """Wrap *fn* so its calls are charged to *key*."""
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != clock.owner:
                return fn(*args, **kwargs)
            stack = clock._stack
            stack.append(0.0)
            begin = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - begin
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                clock.calls[key] = clock.calls.get(key, 0) + 1
                clock.total[key] = clock.total.get(key, 0.0) + elapsed
                clock.self_s[key] = (clock.self_s.get(key, 0.0)
                                     + elapsed - nested)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def experiments_phase(self) -> Iterator[None]:
        """Accumulate what happens inside one ``experiments`` phase."""
        if self.before_experiments is None:
            self.before_experiments = dict(self.total)
        start = (dict(self.self_s), dict(self.calls), dict(self.counts))
        try:
            yield
        finally:
            for bucket, now, then in zip(
                    ("self_s", "calls", "counts"),
                    (self.self_s, self.calls, self.counts), start):
                into = self.in_experiments[bucket]
                for key, value in now.items():
                    into[key] = into.get(key, 0) + value - then.get(key, 0)


def install(clock: LayerClock, worker_log: str) -> Dict[str, Any]:
    """Wrap each layer's public functions; returns captured objects.

    ``worker_log`` receives one JSON line per worker process with the
    seconds its ``JobRunner`` took to build (the worker's set-up).
    """
    import multiprocessing.connection as mp_connection

    import repro.core as core
    import repro.core.campaign as campaign_module
    import repro.emu.backend as emu_backend
    import repro.runtime.engine as engine
    from repro.fpga.bitstream import Bitstream
    from repro.fpga.board import Board
    from repro.fpga.device import Device
    from repro.fpga.jbits import JBits
    from repro.runtime.jobspec import JobRunner
    from repro.runtime.journal import JournalWriter
    from repro.runtime.metrics import CampaignMetrics

    captured: Dict[str, Any] = {}

    def patch(owner: Any, attr: str, key: str,
              observe: Optional[Observer] = None) -> None:
        setattr(owner, attr, clock.timed(key, getattr(owner, attr),
                                         observe))

    # repro.fpga: the per-fault replay of the reconfiguration protocol.
    # total_seconds is a property and must stay one: callers read it as
    # an attribute.
    patch(Board, "snapshot", "fpga.board")
    patch(Board, "since", "fpga.board")
    Board.total_seconds = property(
        clock.timed("fpga.board", Board.total_seconds.fget))
    patch(Bitstream, "diff_frames", "fpga.bitstream.diff_frames",
          lambda _a, _k, frames: clock.count(
              "fpga.restore.frames_written", len(frames)))
    patch(Device, "write_frame", "fpga.device.write_frame")
    patch(Device, "refresh_timing", "fpga.device.refresh_timing")
    patch(Device, "step", "fpga.device.step")
    patch(Device, "load_state", "fpga.device.load_state")
    patch(JBits, "write_full", "fpga.jbits.write_full")

    # repro.emu: the lane engine (the module binds run_lanes and
    # compile_design by name, so patch the names it calls).
    def lanes_used(args: tuple, kwargs: dict, _result: Any) -> None:
        lanes = kwargs["lanes"] if "lanes" in kwargs else args[1]
        clock.count("emu.fault_lanes", lanes - 1)

    patch(emu_backend, "run_lanes", "emu.run_lanes", lanes_used)
    patch(emu_backend, "compile_design", "emu.compile")

    # repro.core: classification (bound by name in campaign.py), the
    # golden run, and set-up through build_fades' module globals.
    patch(campaign_module, "classify", "core.classify")
    patch(campaign_module.FadesCampaign, "golden_run", "core.golden_run")
    patch(core, "synthesize", "synth.synthesize")
    patch(core, "implement", "fpga.implement")

    # repro.runtime: journal, shard planning, the parent's blocking wait
    # on worker pipes, and the campaign object the engine builds.
    patch(JournalWriter, "append_record", "runtime.journal.append")
    patch(engine, "plan_shards", "runtime.scheduler.plan_shards",
          lambda _a, _k, shards: clock.count(
              "runtime.scheduler.shards", len(shards)))
    patch(mp_connection, "wait", "runtime.scheduler.parent_wait")
    patch(engine, "build_campaign", "runtime.build_campaign",
          lambda _a, _k, campaign: captured.setdefault("campaign",
                                                       campaign))

    runner_init = JobRunner.__init__

    @functools.wraps(runner_init)
    def timed_runner_init(self, *args, **kwargs) -> None:
        if os.getpid() == clock.owner:
            runner_init(self, *args, **kwargs)
            return
        begin = time.perf_counter()
        runner_init(self, *args, **kwargs)
        with open(worker_log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"pid": os.getpid(),
                 "setup_s": time.perf_counter() - begin}) + "\n")

    JobRunner.__init__ = timed_runner_init

    phase = CampaignMetrics.phase

    @contextmanager
    def tracked_phase(self, name: str) -> Iterator[None]:
        with phase(self, name):
            if name != "experiments":
                yield
                return
            with clock.experiments_phase():
                yield

    CampaignMetrics.phase = tracked_phase
    return captured
