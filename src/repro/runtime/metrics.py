"""Campaign execution metrics: throughput, phases, progress callbacks.

The paper's whole argument is a time argument (table 2's emulation-time
speedups), so the runtime keeps two clocks side by side:

* **host wall-clock** — what this reproduction actually spends, split
  per phase (``setup`` / ``golden`` / ``experiments`` / ``aggregate``);
* **emulated time** — the 2006-era board seconds accumulated from each
  experiment's :class:`~repro.core.timing_model.ExperimentCost`.

A :class:`CampaignMetrics` instance is fed one record at a time by the
engine and periodically fires a progress callback with an immutable
:class:`MetricsSnapshot` — the CLI renders those as progress lines, tests
use them to observe (and interrupt) a running campaign.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from ..obs import metrics as obs_metrics
from ..obs.tracing import span

ProgressCallback = Callable[["MetricsSnapshot"], None]

_PHASE_SECONDS = obs_metrics.histogram(
    "campaign_phase_seconds",
    "Host wall-clock spent per engine phase.",
    buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0))
_RECORDS = obs_metrics.counter(
    "campaign_records_total", "Journal records accounted, by outcome.")


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time view of a running (or finished) campaign."""

    total: int = 0
    #: Whether ``total`` is exact.  Adaptive campaigns only know an
    #: upper bound until their stopping rule fires, so percentages and
    #: ETAs projected against it would be misleading.
    total_exact: bool = True
    completed: int = 0
    skipped: int = 0
    retries: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    emulated_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    #: Per-outcome counts for *this* campaign (the registry's
    #: ``campaign_records_total`` counter spans the whole process).
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def pending(self) -> int:
        return max(0, self.total - self.skipped - self.completed)

    @property
    def throughput(self) -> float:
        """Completed experiments per host second."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.completed / self.wall_s

    @property
    def eta_s(self) -> Optional[float]:
        """Projected host seconds until the campaign drains.

        ``None`` when nothing has completed yet (zero throughput gives
        no basis for a projection) or while the total is only an upper
        bound (early stopping may fire at any checkpoint — projecting
        to the budget would overstate the remaining work); ``0.0`` once
        nothing is pending.
        """
        if self.pending <= 0:
            return 0.0
        if not self.total_exact:
            return None
        rate = self.throughput
        if rate <= 0.0:
            return None
        return self.pending / rate

    def render(self) -> str:
        done = self.skipped + self.completed
        bound = self.total if self.total_exact else f"<={self.total}"
        line = (f"[{done}/{bound}] "
                f"{self.throughput:.1f} exp/s | "
                f"emulated {self.emulated_s:.1f} s")
        if self.skipped:
            line += f" | resumed past {self.skipped}"
        if self.retries:
            line += f" | retries {self.retries}"
        if self.quarantined:
            line += f" | quarantined {self.quarantined}"
        if self.pending:
            eta = self.eta_s
            line += (" | eta --:--" if eta is None
                     else f" | eta {eta:.1f} s")
        return line


class CampaignMetrics:
    """Accumulates counters and fires progress callbacks.

    ``progress_interval`` throttles the callback to every N-th record
    (the final record always fires).  The clock is injectable so tests
    can run against a fake time source.
    """

    def __init__(self, progress: Optional[ProgressCallback] = None,
                 progress_interval: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 backend: str = "reference"):
        self._progress = progress
        self._interval = max(1, progress_interval)
        self._clock = clock
        self._backend = backend
        self._started = clock()
        self._phase_wall: Dict[str, float] = {}
        self.total = 0
        self.total_exact = True
        self.completed = 0
        self.skipped = 0
        self.retries = 0
        self.quarantined = 0
        self.emulated_s = 0.0
        self.outcomes: Dict[str, int] = {}
        # Snapshots may be taken from the exporter's server thread
        # while the engine thread is mid-record.
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def set_total(self, total: int, skipped: int = 0,
                  exact: bool = True) -> None:
        """Declare the campaign size; ``exact=False`` marks it a budget
        cap the stopping rule may undercut."""
        self.total = total
        self.total_exact = exact
        self.skipped = skipped

    def resolve_total(self, total: int) -> None:
        """Pin the final campaign size once the stopping rule fires."""
        self.total = total
        self.total_exact = True

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock under a named phase (re-enterable).

        Each phase is also an observability event: a trace span (so
        engine phases appear in ``--trace`` output and partition the
        campaign wall-clock) and a ``campaign_phase_seconds`` sample.
        """
        begin = self._clock()
        with span(name, scope="engine"):
            try:
                yield
            finally:
                elapsed = self._clock() - begin
                self._phase_wall[name] = self._phase_wall.get(name, 0.0) \
                    + elapsed
                _PHASE_SECONDS.observe(elapsed, phase=name,
                                       sim_backend=self._backend)

    def record(self, record: Dict) -> None:
        """Account one finished experiment (journal-record form)."""
        outcome = str(record.get("outcome", "?"))
        _RECORDS.inc(outcome=outcome)
        cost = record.get("cost") or {}
        emulated = (cost.get("locate_s", 0.0)
                    + cost.get("transfer_s", 0.0)
                    + cost.get("workload_s", 0.0)
                    + cost.get("overhead_s", 0.0))
        with self._lock:
            self.completed += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            if record.get("quarantined"):
                self.quarantined += 1
            self.emulated_s += emulated
        if self._progress is None:
            return
        remaining = self.total - self.skipped - self.completed
        if self.completed % self._interval == 0 or remaining <= 0:
            self._progress(self.snapshot())

    def add_retry(self, count: int = 1) -> None:
        self.retries += count

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                total=self.total,
                total_exact=self.total_exact,
                completed=self.completed,
                skipped=self.skipped,
                retries=self.retries,
                quarantined=self.quarantined,
                wall_s=self._clock() - self._started,
                emulated_s=self.emulated_s,
                phases=dict(self._phase_wall),
                outcomes=dict(self.outcomes),
            )

    def finish(self) -> MetricsSnapshot:
        """Final snapshot; fires the progress callback one last time."""
        snap = self.snapshot()
        if self._progress is not None:
            self._progress(snap)
        return snap
