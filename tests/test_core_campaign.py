"""Tests for campaign orchestration, faultload generation and cost model."""

import pytest

from repro.core import (FaultLoadSpec, FaultModel, Outcome, generate_faultload,
                        pool_size)
from repro.core.faults import Fault, Target, TargetKind
from repro.errors import InjectionError, LocationError

from helpers import build_accumulator, build_counter
from test_core_injector import make_campaign


@pytest.fixture(scope="module")
def campaign():
    return make_campaign(build_counter(4), inputs={"en": 1})


@pytest.fixture(scope="module")
def accum():
    return make_campaign(build_accumulator(), inputs={"addr": 3, "load": 1})


class TestFaultloadGeneration:
    def test_counts_and_determinism(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=20,
                             workload_cycles=50)
        first = generate_faultload(spec, campaign.locmap, seed=5)
        second = generate_faultload(spec, campaign.locmap, seed=5)
        assert len(first) == 20
        assert first == second
        assert generate_faultload(spec, campaign.locmap, seed=6) != first

    def test_injection_instants_within_workload(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=50,
                             workload_cycles=80)
        for fault in generate_faultload(spec, campaign.locmap, seed=1):
            assert 0 <= fault.start_cycle < 80

    def test_durations_within_band(self, campaign):
        spec = FaultLoadSpec(FaultModel.PULSE, "luts", count=30,
                             workload_cycles=50, duration_range=(11, 20))
        for fault in generate_faultload(spec, campaign.locmap, seed=1):
            assert 11 <= fault.duration_cycles <= 20

    def test_memory_pool_respects_range(self, accum):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch", count=30,
                             workload_cycles=20, mem_addr_range=(4, 8))
        for fault in generate_faultload(spec, accum.locmap, seed=2):
            assert 4 <= fault.target.addr < 8

    def test_unit_pool(self, campaign):
        # The counter has no units, so a unit pool must be empty.
        spec = FaultLoadSpec(FaultModel.PULSE, "luts:ALU", count=3,
                             workload_cycles=20)
        with pytest.raises(LocationError):
            generate_faultload(spec, campaign.locmap, seed=0)

    def test_unknown_pool_rejected(self, campaign):
        spec = FaultLoadSpec(FaultModel.PULSE, "bogus", count=1,
                             workload_cycles=10)
        with pytest.raises(InjectionError):
            generate_faultload(spec, campaign.locmap, seed=0)

    def test_pool_size_matches_resources(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=1,
                             workload_cycles=10)
        assert pool_size(spec, campaign.locmap) == len(
            campaign.locmap.mapped.ffs)

    def test_indetermination_values_assigned(self, campaign):
        spec = FaultLoadSpec(FaultModel.INDETERMINATION, "ffs", count=20,
                             workload_cycles=30)
        values = {fault.value for fault in
                  generate_faultload(spec, campaign.locmap, seed=3)}
        assert values <= {0, 1}
        assert len(values) == 2  # both levels appear


class TestCampaignInvariants:
    def test_golden_run_cached(self, campaign):
        first = campaign.golden_run(30)
        second = campaign.golden_run(30)
        assert first is second

    def test_golden_run_reproducible_after_experiments(self, campaign):
        golden = campaign.golden_run(30)
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=5,
                             workload_cycles=30)
        campaign.run(spec, seed=4)
        campaign._golden.clear()
        again = campaign.golden_run(30)
        assert golden.samples == again.samples
        assert golden.final_state == again.final_state

    def test_configuration_restored_after_every_model(self, campaign):
        golden = campaign.impl.golden_bitstream
        for model, pool in [(FaultModel.BITFLIP, "ffs"),
                            (FaultModel.PULSE, "luts"),
                            (FaultModel.INDETERMINATION, "ffs"),
                            (FaultModel.DELAY, "nets:seq")]:
            spec = FaultLoadSpec(model, pool, count=3, workload_cycles=25,
                                 magnitude_range_ns=(5.0, 40.0))
            campaign.run(spec, seed=8)
            assert campaign.device.config.diff_frames(golden) == []

    def test_run_aggregates_costs(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=4,
                             workload_cycles=25)
        result = campaign.run(spec, seed=9)
        assert len(result.experiments) == 4
        assert result.total_emulation_s == pytest.approx(
            sum(e.cost.total_s for e in result.experiments))
        assert result.mean_emulation_s == pytest.approx(
            result.total_emulation_s / 4)

    def test_tally_covers_only_emulated_records(self):
        """Pruned and quarantined records carry no emulated time and do
        not count as emulated experiments."""
        from repro.core.campaign import CampaignResult, ExperimentResult
        from repro.core.timing_model import ExperimentCost
        from repro.hdl.trace import Trace

        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0),
                      start_cycle=1)
        ran = ExperimentCost(transfer_s=0.25, overhead_s=0.01)
        result = CampaignResult(spec_label="tally", golden=Trace(()))
        result.experiments = [
            ExperimentResult(fault, Outcome.SILENT, ExperimentCost(),
                             pruned=True),
            ExperimentResult(fault, Outcome.QUARANTINED, ExperimentCost(),
                             quarantined=True, error="poison"),
            ExperimentResult(fault, Outcome.FAILURE, ran),
        ]
        assert result.emulated_count() == 1
        assert result.total_emulation_s == ran.total_s
        assert result.mean_emulation_s == ran.total_s

    def test_late_start_cycle_clamped(self, campaign):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0),
                      start_cycle=10_000)
        result = campaign.run_experiment(fault, 20)
        assert result.cost.transactions == 3  # still injected at the end

    def test_locate_cost_scales_with_pool(self, campaign):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3)
        small = campaign.run_experiment(fault, 20, pool=10)
        large = campaign.run_experiment(fault, 20, pool=5000)
        assert large.cost.locate_s > small.cost.locate_s

    def test_screening_finds_sensitive_ffs(self, campaign):
        sensitive = campaign.screen_sensitive_ffs(25, samples_per_ff=2)
        # Counter bits feed the outputs directly: most FFs are sensitive.
        assert sensitive
        assert all(0 <= index < len(campaign.locmap.mapped.ffs)
                   for index in sensitive)


class TestOutcomeSanity:
    def test_memory_occupied_vs_unused(self, accum):
        used = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch", count=12,
                             workload_cycles=20, mem_addr_range=(0, 4))
        unused = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch",
                               count=12, workload_cycles=20,
                               mem_addr_range=(8, 16))
        used_result = accum.run(used, seed=3)
        unused_result = accum.run(unused, seed=3)
        assert used_result.failure_percent() > \
            unused_result.failure_percent()

    def test_failure_rate_grows_with_pulse_duration(self, campaign):
        pcts = []
        for band in [(0.05, 0.95), (11.0, 20.0)]:
            spec = FaultLoadSpec(FaultModel.PULSE, "luts", count=20,
                                 workload_cycles=40, duration_range=band)
            pcts.append(campaign.run(spec, seed=6).failure_percent())
        assert pcts[1] >= pcts[0]


class TestCheckpointing:
    """The fast-forward optimisation must be behaviourally invisible."""

    def _pair(self):
        from repro.fpga import Board, implement
        from repro.synth import synthesize
        from helpers import build_accumulator
        from repro.core.campaign import FadesCampaign
        campaigns = []
        for interval in (0, 8):
            result = synthesize(build_accumulator())
            impl = implement(result.mapped)
            campaigns.append(FadesCampaign(
                impl, result.locmap, board=Board(),
                inputs={"addr": 3, "load": 1},
                checkpoint_interval=interval))
        return campaigns

    def test_golden_runs_identical(self):
        plain, fast = self._pair()
        a = plain.golden_run(40)
        b = fast.golden_run(40)
        assert a.samples == b.samples
        assert a.final_state == b.final_state
        assert fast._checkpoints  # snapshots actually recorded

    def test_every_fault_model_identical(self):
        from repro.core import FaultLoadSpec, FaultModel, generate_faultload
        plain, fast = self._pair()
        cycles = 40
        for model, pool in [(FaultModel.BITFLIP, "ffs"),
                            (FaultModel.BITFLIP, "memory:scratch"),
                            (FaultModel.PULSE, "luts"),
                            (FaultModel.INDETERMINATION, "ffs"),
                            (FaultModel.DELAY, "nets:seq")]:
            spec = FaultLoadSpec(model, pool, count=6,
                                 workload_cycles=cycles,
                                 magnitude_range_ns=(5.0, 80.0))
            faults = generate_faultload(spec, plain.locmap, seed=11)
            a = plain.run_faults(faults, cycles)
            b = fast.run_faults(faults, cycles)
            for x, y in zip(a.experiments, b.experiments):
                assert x.outcome == y.outcome, (model, x.fault)
                assert x.first_divergence == y.first_divergence

    def test_emulated_costs_unchanged(self):
        # Fast-forwarding is host-side only: the emulated per-fault cost
        # must not depend on it.
        from repro.core.faults import Fault, FaultModel, Target, TargetKind
        plain, fast = self._pair()
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 30)
        plain.golden_run(40)
        fast.golden_run(40)
        a = plain.run_experiment(fault, 40)
        b = fast.run_experiment(fault, 40)
        assert a.cost.total_s == pytest.approx(b.cost.total_s)
