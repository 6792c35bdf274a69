"""Emulation-time model for FADES experiments.

The paper's emulation time (section 6.2, figure 10, table 2) decomposes
into the parts this model accounts:

* **fault location analysis** — mapping the HDL-level location pool onto
  device resources; proportional to the number of candidate resources
  (this reproduces the paper's observation that combinational-delay
  experiments ran longer than sequential ones "since the selected model
  presents fewer sequential injection points");
* **reconfiguration transfers** — the dominant share; taken directly from
  the board's transaction log, so it reflects the *actual* frames each
  mechanism moved;
* **workload execution** — cycles divided by the emulation clock;
  negligible, as the paper notes in section 7.1.

All times are *emulated 2006-era* seconds; nothing sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fpga.board import Board


@dataclass(frozen=True)
class FadesTimingParams:
    """Cost constants outside the board's transfer model."""

    #: Fault-location analysis cost per candidate resource in the pool,
    #: paid once per experiment (model/configuration-file analysis).
    locate_seconds_per_candidate: float = 2.0e-5
    #: Fixed per-experiment software overhead (setup, trace comparison).
    experiment_overhead_s: float = 0.01


@dataclass
class ExperimentCost:
    """Time breakdown of one fault-injection experiment."""

    locate_s: float = 0.0
    transfer_s: float = 0.0
    workload_s: float = 0.0
    overhead_s: float = 0.0
    transactions: int = 0

    @property
    def total_s(self) -> float:
        return (self.locate_s + self.transfer_s + self.workload_s
                + self.overhead_s)


class EmulationTimeModel:
    """Prices one experiment from the board log and the cost constants."""

    def __init__(self, board: Board,
                 params: FadesTimingParams = FadesTimingParams()):
        self.board = board
        self.params = params

    def experiment_cost(self, marker, cycles: int,
                        pool_size: int) -> ExperimentCost:
        """Cost breakdown of the experiment begun at board *marker*
        (a :meth:`~repro.fpga.board.Board.snapshot`)."""
        transactions, transfer_s = self.board.since(marker)
        return ExperimentCost(
            locate_s=self.params.locate_seconds_per_candidate * pool_size,
            transfer_s=transfer_s,
            workload_s=self.board.workload_seconds(cycles),
            overhead_s=self.params.experiment_overhead_s,
            transactions=transactions,
        )
