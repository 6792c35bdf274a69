"""Campaign orchestration: the experiment loop of the paper's figure 1.

Each experiment follows the figure exactly::

    reset system to initial state
    workload execution            (until the fault injection time)
    FPGA reconfiguration          (fault injection purposes)
    workload execution            (until the fault duration expires)
    FPGA reconfiguration          (fault removal purposes)
    workload execution            (until the experiment end time)
    observation -> analysis of results

The observation process records the primary outputs every cycle plus the
final architectural state; classification against the golden run follows
:mod:`repro.core.classify`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
    mean_emulation_s: float = 0.0
    total_emulation_s: float = 0.0
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

    def emulated_count(self) -> int:
        """Experiments that actually ran on the device."""
        return (len(self.experiments) - self.pruned_count()
                - self.collapsed_count())


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
    def run_experiment(self, fault: Fault, cycles: int, pool: int = 0,
                       index: Optional[int] = None) -> ExperimentResult:
        """One experiment of figure 1; device ends restored to golden.

        ``index`` is purely observability metadata: the runtime passes
        the fault's campaign index so worker trace spans stay keyed to
        the journal record they produced.
        """
        with span("experiment", index=index, model=fault.model.value,
                  target=fault.target.kind.value, backend="reference"):
            return self._run_experiment(fault, cycles, pool)

    def _run_experiment(self, fault: Fault, cycles: int,
                        pool: int) -> ExperimentResult:
        device = self.device
        marker = self.time_model.begin_experiment()
        board_marker = self.board.snapshot()
        self.board.set_label(fault.model.value)

        injection = self.injector.prepare(fault)
        mechanism = (getattr(injection, "mechanism_label", "")
                     or fault.model.value)
        if fault.duration_cycles >= 1.0:
            window = fault.whole_cycles
        else:
            window = 1 if fault.straddles_edge else 0
        start = min(fault.start_cycle, max(0, cycles - 1))

        # Fast-forward over the fault-free prefix when a golden checkpoint
        # at or before the injection instant is available.
        first_cycle = 0
        trace = Trace(tuple(device.mapped.outputs))
        checkpoints = self._checkpoints.get(self._golden_key(cycles))
        golden_cached = self._golden.get(self._golden_key(cycles))
        if checkpoints and golden_cached is not None and start > 0:
            usable = [c for c in checkpoints if c <= start]
            if usable:
                first_cycle = max(usable)
                device.load_state(checkpoints[first_cycle])
                trace.samples = list(golden_cached.samples[:first_cycle])
            else:
                device.reset_system()
        else:
            device.reset_system()

        removed = False
        injected = False
        with span("run", cycles=cycles, first_cycle=first_cycle,
                  backend="reference"):
            for cycle in range(first_cycle, cycles):
                if cycle == start:
                    with span("reconfigure", mechanism=mechanism,
                              op="inject"):
                        injection.inject()
                    injected = True
                    if window == 0 and fault.model.transient:
                        with span("reconfigure", mechanism=mechanism,
                                  op="remove"):
                            injection.remove()
                        removed = True
                if (injected and not removed
                        and start <= cycle < start + window):
                    injection.tick(cycle - start)
                trace.record(device.step(self.inputs if cycle == 0
                                         else None))
                if (injected and not removed and fault.model.transient
                        and cycle >= start + window - 1):
                    with span("reconfigure", mechanism=mechanism,
                              op="remove"):
                        injection.remove()
                    removed = True
            if injected and not removed and fault.model.transient:
                with span("reconfigure", mechanism=mechanism, op="remove"):
                    injection.remove()
        # Emulated board seconds this experiment spent on the link: every
        # injection/removal transaction since the marker (the host-side
        # golden restore below bypasses the board, so it never counts).
        _RECONFIG_SECONDS.observe(self.board.since(board_marker)[1],
                                  mechanism=mechanism)

        with span("readback", mechanism=mechanism):
            trace.final_state = device.state_snapshot()
            trace.cycles = cycles
            # Restore the golden image for persistent faults (bit-flips
            # and permanent models leave frames modified) *before* any
            # golden run can execute on this device.
            self._restore_configuration()

        golden = self.golden_run(cycles)
        cost = self.time_model.end_experiment(marker, cycles, pool)
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
            return run_lane_batch(self, faults, cycles, pool=pool,
                                  indices=indices, reseed=reseed)
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
        :meth:`static_plan`; mean emulation time is computed over the
        experiments that actually ran (pruned and collapsed records
        carry zero cost — the board never saw them).
        """
        golden = self.golden_run(cycles)
        result = CampaignResult(spec_label=label, golden=golden)
        start_index = len(self.time_model.costs)
        if self.prune_silent:
            result.experiments = self._run_pruned(faults, cycles, pool)
        else:
            result.experiments = self.run_batch(faults, cycles, pool=pool)
        costs = self.time_model.costs[start_index:]
        result.total_emulation_s = sum(cost.total_s for cost in costs)
        if costs:
            result.mean_emulation_s = result.total_emulation_s / len(costs)
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
