"""Bit-parallel autonomous-emulation backend (``repro.emu``).

The paper evaluates one fault per emulation pass; López-Ongil et al.'s
*autonomous emulation* line of work (PAPERS.md) shows the classic answer
to that bottleneck: pack many fault experiments into the bit-lanes of
machine words, keep the golden (fault-free) run in lane 0, and evaluate
the whole batch with one pass of bitwise logic.  Classification then
degenerates to lane-wise XOR against lane 0 — exactly the Failure /
Latent / Silent comparison of :mod:`repro.core.classify`.

The subsystem has three layers:

:mod:`repro.emu.compiler`
    Lowers a mapped LUT netlist into straight-line bitwise-integer
    Python (one expression per live LUT), compiled once per design via
    :func:`compile` and cached by source hash.

:mod:`repro.emu.lanes`
    The lane manager: packed flip-flop/memory state, a per-cycle fault
    schedule (lane-masked XOR/force/override operations), and the run
    loop that produces failure/latent masks plus the lane-0 trace.

:mod:`repro.emu.backend`
    The campaign adapter: a workload executor for the campaign's one
    figure-1 driver (:meth:`~repro.core.campaign.FadesCampaign.drive`)
    that turns the driver's hooks into lane operations instead of device
    steps.  The reconfiguration protocol itself is the driver's, shared
    with the reference backend — so emulated board costs, injector RNG
    consumption and timing-violation sets are the reference backend's by
    construction.
"""

from .backend import lane_width, run_lane_batch, supports_fault
from .compiler import CompiledDesign, CompiledSim, compile_design
from .lanes import BatchSchedule, LaneResult, run_lanes

__all__ = [
    "BatchSchedule",
    "CompiledDesign",
    "CompiledSim",
    "LaneResult",
    "compile_design",
    "lane_width",
    "run_lane_batch",
    "run_lanes",
    "supports_fault",
]
