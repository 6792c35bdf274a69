#!/usr/bin/env python
"""Tour of the designs library: fault injection beyond the 8051.

Three vignettes:

1. **TMR counter** — the canonical masking structure: single-replica
   bit-flips are outvoted; the campaign quantifies the masking against a
   plain (unprotected) counter.
2. **FIR filter** — datapath faults: pulses in the MAC almost always reach
   the output (arithmetic has no redundancy to hide behind).
3. **UART transmitter** — a waveform-level look at one fault: the golden
   and faulty TXD lines are dumped as VCD files you can open in GTKWave.

Run:  python examples/designs_tour.py
"""

from contextlib import nullcontext

from repro.core import (Fault, FaultLoadSpec, FaultModel, FadesCampaign,
                        Target, TargetKind)
from repro.core.campaign import DeviceRun
from repro.designs import counter, fir_filter, tmr_counter, uart_tx
from repro.fpga import Board, implement
from repro.hdl.vcd import VcdWriter
from repro.synth import synthesize


def campaign_for(netlist, inputs):
    result = synthesize(netlist)
    impl = implement(result.mapped)
    return FadesCampaign(impl, result.locmap, board=Board(), inputs=inputs)


def tmr_vignette() -> None:
    print("1) TMR counter vs plain counter: bit-flips into flip-flops")
    spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=30,
                         workload_cycles=40)
    plain = campaign_for(counter(4), {"en": 1}).run(spec, seed=11)
    tmr = campaign_for(tmr_counter(4), {"en": 1}).run(spec, seed=11)
    print(f"   plain counter : {plain.counts()}")
    print(f"   TMR counter   : {tmr.counts()}")
    print("   -> the voter masks most single-replica corruption\n")


def fir_vignette() -> None:
    print("2) FIR filter: pulses in the MAC unit")
    fir = campaign_for(fir_filter((1, 3, 3, 1)),
                       {"sample": 0x37, "valid": 1})
    spec = FaultLoadSpec(FaultModel.PULSE, "luts:MAC", count=30,
                         workload_cycles=30, duration_range=(1, 5))
    result = fir.run(spec, seed=7)
    print(f"   MAC pulses    : {result.counts()}")
    print("   -> arithmetic faults propagate readily to the output\n")


class VcdRun(DeviceRun):
    """Figure-1 executor that samples the UART's signals every cycle.

    It always starts from reset: the waveform covers the whole run, so
    there is no fault-free prefix to fast-forward over.
    """

    def __init__(self, campaign, cycles):
        super().__init__(campaign, cycles)
        self.writer = VcdWriter(["txd", "busy", "state", "shifter"],
                                timescale="25 ns")

    def begin(self, start):
        self.device.reset_system()
        return nullcontext()

    def advance(self, cycle):
        while self.cycle < cycle:
            super().advance(self.cycle + 1)
            self.writer.sample(self.device)


def uart_vignette() -> None:
    print("3) UART TX: golden vs faulty frame as VCD waveforms")
    netlist = uart_tx(divider=3)
    campaign = campaign_for(netlist, {"data": 0x5A, "send": 1})
    cycles = 36

    def record(vcd_path, fault=None):
        run = VcdRun(campaign, cycles)
        if fault is None:
            with run.begin(0):
                run.advance(cycles)
        else:
            campaign.drive(fault, cycles, 0, run)
        run.writer.write(vcd_path)

    record("uart_golden.vcd")
    shifter_ff = campaign.locmap.signal("shifter").bits[0].index
    fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, shifter_ff),
                  start_cycle=8)
    record("uart_faulty.vcd", fault)
    print("   wrote uart_golden.vcd and uart_faulty.vcd "
          "(open both in GTKWave to see the corrupted data bit)\n")


if __name__ == "__main__":
    tmr_vignette()
    fir_vignette()
    uart_vignette()
