"""Campaign orchestration: the experiment loop of the paper's figure 1.

Each experiment follows the figure exactly::

    reset system to initial state
    workload execution            (until the fault injection time)
    FPGA reconfiguration          (fault injection purposes)
    workload execution            (until the fault duration expires)
    FPGA reconfiguration          (fault removal purposes)
    workload execution            (until the experiment end time)
    observation -> analysis of results

:meth:`FadesCampaign.drive` is that loop, written once.  It owns the
reconfiguration half (injector, board log, ``reconfigure`` spans, cost) and
hands the workload-execution half to an executor: :class:`DeviceRun`
steps the reference device here, and :mod:`repro.emu.backend` schedules
the same hooks as operations on one bit-lane of a batch.  The observation
process records the primary outputs every cycle plus the final
architectural state; classification against the golden run follows
:mod:`repro.core.classify`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fpga.board import Board
from ..fpga.device import Device
from ..fpga.implement import Implementation
from ..fpga.jbits import JBits
from ..hdl.simulator import check_backend
from ..hdl.trace import Trace
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..synth.locmap import LocationMap
from .classify import Outcome, OutcomeCounts, classify
from .config import FaultLoadSpec, generate_faultload, pool_size
from .faults import Fault
from .injector import FadesInjector
from .timing_model import EmulationTimeModel, ExperimentCost, FadesTimingParams

_RECONFIG_SECONDS = obs_metrics.histogram(
    "reconfig_seconds",
    "Emulated reconfiguration seconds per experiment by Table 1 mechanism.",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0))
_EXPERIMENTS = obs_metrics.counter(
    "experiments_total", "Completed experiments by outcome.")


@dataclass
class ExperimentResult:
    """One fault-injection experiment's record."""

    fault: Fault
    outcome: Outcome
    cost: ExperimentCost
    first_divergence: Optional[int] = None
    #: Statically proven Silent by :mod:`repro.sfa`; never emulated.
    pruned: bool = False
    #: Faultload index of the equivalence-class representative whose
    #: emulation produced this outcome (fault collapsing), if any.
    collapsed_from: Optional[int] = None
    #: Excised by the runtime after exhausting retries and bisection
    #: (:class:`Outcome.QUARANTINED`); ``error`` carries the failure
    #: fingerprint that condemned it.
    quarantined: bool = False
    error: Optional[str] = None


@dataclass
class CampaignResult:
    """All experiments of one campaign (one experiment class)."""

    spec_label: str
    golden: Trace
    experiments: List[ExperimentResult] = field(default_factory=list)
    #: Stopping decision of an adaptive campaign (reason, achieved n,
    #: Wilson intervals — see :mod:`repro.faultload.sequential`); None
    #: for fixed-budget campaigns.
    stop: Optional[Dict] = None
    #: Per-stratum rate table of an adaptive campaign
    #: (:func:`repro.faultload.strata.summarize_strata`); None when the
    #: statistical planner was not engaged.
    strata: Optional[List[Dict]] = None

    def counts(self) -> OutcomeCounts:
        """Failure/Latent/Silent tally."""
        counts = OutcomeCounts()
        for experiment in self.experiments:
            counts.add(experiment.outcome)
        return counts

    def failure_percent(self) -> float:
        """Percentage of failures (the paper's headline metric)."""
        return self.counts().percent(Outcome.FAILURE)

    def pruned_count(self) -> int:
        """Experiments resolved statically instead of being emulated."""
        return sum(1 for experiment in self.experiments
                   if experiment.pruned)

    def collapsed_count(self) -> int:
        """Experiments attributed from an equivalence representative."""
        return sum(1 for experiment in self.experiments
                   if experiment.collapsed_from is not None)

    def emulated(self) -> List[ExperimentResult]:
        """Experiments that actually ran on the device, in fault order:
        not pruned, not collapsed onto a representative, not quarantined
        (those records carry zero cost — the board never completed
        them)."""
        return [experiment for experiment in self.experiments
                if not experiment.pruned and not experiment.quarantined
                and experiment.collapsed_from is None]

    def emulated_count(self) -> int:
        """Experiments that actually ran on the device."""
        return len(self.emulated())

    @property
    def total_emulation_s(self) -> float:
        """Emulated seconds of the experiments that ran."""
        return sum(experiment.cost.total_s
                   for experiment in self.emulated())

    @property
    def mean_emulation_s(self) -> float:
        """Mean emulated seconds per experiment that ran."""
        count = self.emulated_count()
        return self.total_emulation_s / count if count else 0.0


class DeviceRun:
    """Workload executor of the reference backend: steps the device.

    :meth:`FadesCampaign.drive` calls the hooks in figure-1 order —
    ``begin`` (the context the run executes in), ``advance`` to the
    injection instant, ``inject``, one ``tick`` per fault-window cycle,
    ``advance`` to the end, then ``observe`` — and this executor turns
    them into device steps recorded on :attr:`trace`.
    """

    def __init__(self, campaign: "FadesCampaign", cycles: int):
        self.campaign = campaign
        self.device = campaign.device
        self.cycles = cycles
        self.cycle = 0
        self.trace = Trace(tuple(self.device.mapped.outputs))

    def begin(self, start: int):
        """Reset, or fast-forward over the fault-free prefix when a golden
        checkpoint at or before the injection instant is available."""
        campaign = self.campaign
        key = campaign._golden_key(self.cycles)
        checkpoints = campaign._checkpoints.get(key) or {}
        golden = campaign._golden.get(key)
        usable = [c for c in checkpoints if c <= start]
        if usable and golden is not None and start > 0:
            self.cycle = max(usable)
            self.device.load_state(checkpoints[self.cycle])
            self.trace.samples = list(golden.samples[:self.cycle])
        else:
            self.device.reset_system()
        return span("run", cycles=self.cycles, first_cycle=self.cycle,
                    backend="reference")

    def advance(self, cycle: int) -> None:
        """Step the workload up to (not including) *cycle*."""
        step = self.device.step
        record = self.trace.record
        inputs = self.campaign.inputs
        for current in range(self.cycle, cycle):
            record(step(inputs if current == 0 else None))
        self.cycle = max(self.cycle, cycle)

    def inject(self, injection, start: int, active: range) -> None:
        """The injected configuration is live on the device already."""

    def tick(self, injection, cycle: int) -> None:
        """Step one fault-window cycle under the injected fault."""
        self.advance(cycle + 1)

    def observe(self) -> None:
        self.trace.final_state = self.device.state_snapshot()
        self.trace.cycles = self.cycles


class FadesCampaign:
    """Run fault-emulation campaigns on one implemented design."""

    def __init__(self, impl: Implementation, locmap: LocationMap,
                 board: Optional[Board] = None, seed: int = 0,
                 timing_params: FadesTimingParams = FadesTimingParams(),
                 full_download_delays: bool = True,
                 inputs: Optional[Dict[str, int]] = None,
                 checkpoint_interval: int = 0,
                 backend: str = "reference",
                 prune_silent: bool = False):
        self.impl = impl
        self.locmap = locmap
        self.inputs = dict(inputs or {})
        #: Static fault analysis (:mod:`repro.sfa`): resolve provably
        #: Silent faults without emulating them and collapse
        #: behaviourally identical faults onto one representative.
        self.prune_silent = prune_silent
        self._static: Dict[tuple, object] = {}
        #: Simulator backend: ``reference`` runs each experiment through
        #: the device simulator; ``compiled`` packs experiments into the
        #: bit-lanes of the :mod:`repro.emu` engine (golden in lane 0).
        self.backend = check_backend(backend)
        #: Fast-forward optimisation: with a positive interval, the golden
        #: run stores device snapshots every N cycles and experiments
        #: restore the nearest one at or before the injection instant
        #: instead of re-executing the fault-free prefix.  Purely a host
        #: optimisation — emulated time is unaffected (the real board
        #: would execute the prefix at full FPGA speed anyway).
        self.checkpoint_interval = checkpoint_interval
        self._checkpoints: Dict[tuple, Dict[int, object]] = {}
        self.device = Device(impl)
        locmap.attach_placement(impl.placement)
        self.board = board if board is not None else Board()
        self.jbits = JBits(self.device, self.board)
        self.rng = random.Random(seed)
        self.injector = FadesInjector(
            self.jbits, rng=random.Random(seed ^ 0xFADE5),
            full_download_delays=full_download_delays)
        self.injector.backend_label = self.backend
        self.time_model = EmulationTimeModel(self.board, timing_params)
        self._golden: Dict[tuple, Trace] = {}
        #: How many golden runs were actually *simulated* (as opposed to
        #: served from the cache) — multi-class reports should see 1.
        self.golden_simulations = 0

    # ------------------------------------------------------------------
    def _golden_key(self, cycles: int) -> tuple:
        """Cache key: the workload identity (the constant primary-input
        assignment), the experiment length and the simulator backend.
        Keying by workload means mutating ``self.inputs`` between
        campaigns can never serve a stale golden trace; keying by backend
        means switching ``--backend`` can never reuse the other backend's
        golden trace."""
        return (tuple(sorted(self.inputs.items())), cycles, self.backend)

    def golden_run(self, cycles: int) -> Trace:
        """Fault-free reference trace (cached per workload and length).

        Every campaign sharing this object — e.g. the experiment classes
        of a multi-class report — simulates the golden run exactly once.
        """
        key = self._golden_key(cycles)
        cached = self._golden.get(key)
        if cached is not None:
            return cached
        device = self.device
        if (self.backend == "compiled"
                and not device._violating and not device._broken_nets):
            from ..emu.backend import compiled_golden
            trace = compiled_golden(self, cycles)
            if trace is not None:
                self.golden_simulations += 1
                self._golden[key] = trace
                return trace
            # Compilation failed: the campaign has been degraded to the
            # reference backend — re-key the cache and simulate below.
            key = self._golden_key(cycles)
        device.reset_system()
        trace = Trace(tuple(device.mapped.outputs))
        interval = self.checkpoint_interval
        checkpoints: Dict[int, object] = {}
        for cycle in range(cycles):
            if interval and cycle % interval == 0:
                checkpoints[cycle] = device.save_state()
            trace.record(device.step(self.inputs if cycle == 0 else None))
        trace.final_state = device.state_snapshot()
        trace.cycles = cycles
        self.golden_simulations += 1
        self._golden[key] = trace
        if interval:
            self._checkpoints[key] = checkpoints
        return trace

    # ------------------------------------------------------------------
    def drive(self, fault: Fault, cycles: int, pool: int,
              run) -> ExperimentCost:
        """One experiment of figure 1 with *run* executing the workload.

        The reconfiguration half is the same for every executor: prepare
        the injection, inject at the (clamped) start cycle, tick every
        cycle of the fault window, remove a transient fault after it,
        price the board transactions, and restore the golden image.  The
        executor's hooks (see :class:`DeviceRun`) say what the workload
        does around those points.  Returns the experiment's cost; the
        device ends restored to golden.
        """
        board = self.board
        marker = board.snapshot()
        board.set_label(fault.model.value)
        injection = self.injector.prepare(fault)
        mechanism = injection.mechanism_label or fault.model.value
        if fault.duration_cycles >= 1.0:
            window = fault.whole_cycles
        else:
            window = 1 if fault.straddles_edge else 0
        start = min(fault.start_cycle, max(0, cycles - 1))
        active = range(start, min(start + window, cycles))
        transient = fault.model.transient

        with run.begin(start):
            run.advance(start)
            with span("reconfigure", mechanism=mechanism, op="inject"):
                injection.inject()
            run.inject(injection, start, active)
            if window == 0 and transient:
                with span("reconfigure", mechanism=mechanism, op="remove"):
                    injection.remove()
            for offset, cycle in enumerate(active):
                injection.tick(offset)
                run.tick(injection, cycle)
            if window and transient:
                with span("reconfigure", mechanism=mechanism, op="remove"):
                    injection.remove()
            run.advance(cycles)
        # Emulated board seconds this experiment spent on the link: every
        # injection/removal transaction since the marker (the host-side
        # golden restore below bypasses the board, so it never counts).
        cost = self.time_model.experiment_cost(marker, cycles, pool)
        _RECONFIG_SECONDS.observe(cost.transfer_s, mechanism=mechanism)
        with span("readback", mechanism=mechanism):
            run.observe()
            # Restore the golden image for persistent faults (bit-flips
            # and permanent models leave frames modified) *before* any
            # golden run can execute on this device.
            self._restore_configuration()
        return cost

    def faulty_run(self, fault: Fault, cycles: int,
                   pool: int = 0) -> Tuple[Trace, ExperimentCost]:
        """Figure 1 on the reference device, without classification:
        the faulty trace (outputs plus final state) and its cost."""
        run = DeviceRun(self, cycles)
        cost = self.drive(fault, cycles, pool, run)
        return run.trace, cost

    def run_experiment(self, fault: Fault, cycles: int, pool: int = 0,
                       index: Optional[int] = None) -> ExperimentResult:
        """One experiment of figure 1; device ends restored to golden.

        ``index`` is purely observability metadata: the runtime passes
        the fault's campaign index so worker trace spans stay keyed to
        the journal record they produced.
        """
        with span("experiment", index=index, model=fault.model.value,
                  target=fault.target.kind.value, backend="reference"):
            trace, cost = self.faulty_run(fault, cycles, pool)
            golden = self.golden_run(cycles)
            with span("classify", backend="reference"):
                outcome = classify(golden, trace)
                first_divergence = trace.first_divergence(golden)
            _EXPERIMENTS.inc(outcome=outcome.value)
            return ExperimentResult(
                fault=fault, outcome=outcome, cost=cost,
                first_divergence=first_divergence)

    def _restore_configuration(self) -> None:
        golden = self.impl.golden_bitstream
        config = self.device.config
        # Only frames written since the last restore can differ from
        # golden (the Bitstream.dirty invariant), so only those are diffed.
        for addr in config.diff_frames(golden, config.dirty_frames()):
            # Host-side cleanup between experiments; not part of the
            # emulated per-fault cost (the paper reloads state, not the
            # full file, between experiments).
            self.device.write_frame(addr, golden.get_frame(addr))
        config.dirty.clear()

    # ------------------------------------------------------------------
    def run(self, spec: FaultLoadSpec, seed: Optional[int] = None
            ) -> CampaignResult:
        """Generate and run a whole faultload; returns the aggregate."""
        faults = generate_faultload(
            spec, self.locmap, seed=self.rng.randrange(2**31)
            if seed is None else seed,
            routed_nets=self.impl.routing.is_routed)
        return self.run_faults(faults, spec.workload_cycles,
                               label=spec.label(),
                               pool=pool_size(spec, self.locmap))

    def run_batch(self, faults: Sequence[Fault], cycles: int, pool: int = 0,
                  indices: Optional[Sequence[int]] = None,
                  reseed: Optional[Callable[[int], None]] = None
                  ) -> List[ExperimentResult]:
        """Run a fault list through the selected backend, in fault order.

        ``indices`` carries each fault's campaign index (observability
        metadata and the ``reseed`` argument); ``reseed`` is the
        runtime's per-experiment injector re-seeding hook.  The reference
        backend runs one experiment per fault; the compiled backend packs
        supported faults into bit-lane batches.
        """
        if self.backend == "compiled":
            from ..emu import run_lane_batch
            batched = run_lane_batch(self, faults, cycles, pool=pool,
                                     indices=indices, reseed=reseed)
            if batched is not None:
                return batched
            # Compilation failed: the campaign is now on the reference
            # backend; run every fault below, in order.
        results: List[ExperimentResult] = []
        for position, fault in enumerate(faults):
            index = indices[position] if indices is not None else position
            if reseed is not None:
                reseed(index)
            results.append(
                self.run_experiment(fault, cycles, pool=pool, index=index))
        return results

    def static_plan(self, faults: Sequence[Fault], cycles: int,
                    restrict_rng_free: bool = False):
        """Static-analysis verdict over a faultload (:mod:`repro.sfa`).

        The analyses (structural graph, observability cones, workload
        profile) are cached per workload-and-length, like the golden
        trace; only the per-faultload planning repeats.  Imported
        lazily — :mod:`repro.sfa` depends on this package.
        """
        from ..sfa.prune import StaticFaultAnalysis
        key = (tuple(sorted(self.inputs.items())), cycles)
        sfa = self._static.get(key)
        if sfa is None:
            device = self.device
            sfa = StaticFaultAnalysis(
                self.locmap.mapped, cycles, inputs=self.inputs,
                timing=self.impl.timing,
                trusted=(not device._violating
                         and not device._broken_nets))
            self._static[key] = sfa
        return sfa.plan(faults, restrict_rng_free=restrict_rng_free)

    def _run_pruned(self, faults: Sequence[Fault], cycles: int,
                    pool: int) -> List[ExperimentResult]:
        """Emulate only what static analysis cannot resolve.

        Provably Silent faults are journalled directly (``pruned``);
        equivalence-class members inherit their representative's
        outcome (``collapsed_from``).  The serial campaign shares one
        injector RNG stream across experiments, so the plan is
        restricted to RNG-free faults — skipping an experiment must
        never shift a later experiment's draws.
        """
        plan = self.static_plan(faults, cycles, restrict_rng_free=True)
        survivors = plan.survivors()
        emulated = self.run_batch(
            [faults[index] for index in survivors], cycles, pool=pool,
            indices=survivors)
        by_index = dict(zip(survivors, emulated))
        collapsed = plan.collapsed
        results: List[ExperimentResult] = []
        for index, fault in enumerate(faults):
            if index in plan.pruned:
                results.append(ExperimentResult(
                    fault=fault, outcome=Outcome.SILENT,
                    cost=ExperimentCost(), pruned=True))
                continue
            representative = collapsed.get(index)
            if representative is not None:
                rep = by_index[representative]
                results.append(ExperimentResult(
                    fault=fault, outcome=rep.outcome,
                    cost=ExperimentCost(),
                    first_divergence=rep.first_divergence,
                    collapsed_from=representative))
                continue
            results.append(by_index[index])
        return results

    def run_faults(self, faults: Sequence[Fault], cycles: int,
                   label: str = "", pool: int = 0) -> CampaignResult:
        """Run a pre-generated fault list.

        With :attr:`prune_silent` the list first passes through
        :meth:`static_plan`.
        """
        golden = self.golden_run(cycles)
        result = CampaignResult(spec_label=label, golden=golden)
        if self.prune_silent:
            result.experiments = self._run_pruned(faults, cycles, pool)
        else:
            result.experiments = self.run_batch(faults, cycles, pool=pool)
        return result

    # ------------------------------------------------------------------
    def screen_sensitive_ffs(self, cycles: int, samples_per_ff: int = 2,
                             seed: Optional[int] = None) -> List[int]:
        """Pre-screening experiment of section 6.3: find the flip-flops
        "susceptible of causing a failure when executing the selected
        workload" — the paper found 81 of 637 eligible.

        ``seed`` randomises the per-FF injection instants; ``None`` keeps
        the historical default (7) for backward compatibility.
        """
        rng = random.Random(7 if seed is None else seed)
        sensitive: List[int] = []
        from .faults import FaultModel, Target, TargetKind
        for ff_index in range(len(self.locmap.mapped.ffs)):
            for _ in range(samples_per_ff):
                fault = Fault(
                    model=FaultModel.BITFLIP,
                    target=Target(TargetKind.FF, ff_index),
                    start_cycle=rng.randrange(cycles),
                )
                outcome = self.run_experiment(fault, cycles).outcome
                if outcome is Outcome.FAILURE:
                    sensitive.append(ff_index)
                    break
        return sensitive
