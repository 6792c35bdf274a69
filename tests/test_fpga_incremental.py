"""Equivalence tests for the incremental device bookkeeping.

The per-fault replay keeps running board totals, restores only the
frames written since the last restore, and re-decodes only the CB rows a
frame write changed.  Each shortcut must agree with the whole-device
computation it replaces: a left fold over the board log, a full
``diff_frames`` against golden, and a fresh ``_decode_all``.
"""

import random
from functools import reduce

import pytest

from repro.core import Fault, FaultLoadSpec, FaultModel, Target, TargetKind
from repro.core import generate_faultload
from repro.core.config_seu import (config_seu_fault, occupied_frames,
                                   random_config_bit)
from repro.fpga import Board, BoardParams, FrameAddr
from repro.fpga.architecture import (CB_BYTES, CB_FLAG_INVERT_LSR,
                                     CB_FLAG_SRVAL, CB_FLAGS, PM_BYTES)
from repro.fpga.device import Device, _changed_words

from helpers import build_accumulator
from test_core_injector import make_campaign


def _left_fold(values):
    return reduce(lambda total, value: total + value, values, 0)


class TestBoardTotals:
    def test_totals_equal_a_fold_over_the_log(self):
        rng = random.Random(5)
        board = Board(BoardParams(latency_s=0.0137,
                                  bandwidth_bytes_per_s=3.3e6))
        markers = [board.snapshot()]
        for _ in range(400):
            board.transaction(rng.choice(("read", "write")), "cb",
                              rng.randrange(1, 5000))
            if rng.random() < 0.1:
                markers.append(board.snapshot())
        seconds = [t.seconds for t in board.transactions]
        # Bit-identical, not approximately equal: the running total is
        # the same left fold sum() performs over the log.
        assert board.total_seconds == _left_fold(seconds)
        assert board.total_seconds == sum(seconds)
        assert board.total_bytes == sum(t.nbytes
                                        for t in board.transactions)
        for count, at in markers:
            assert board.since((count, at)) == (
                len(board.transactions) - count,
                _left_fold(seconds) - _left_fold(seconds[:count]))

    def test_empty_and_cleared_board(self):
        board = Board()
        assert board.total_seconds == sum([]) and board.total_bytes == 0
        board.transaction("write", "cb", 100)
        board.clear()
        assert board.transactions == []
        assert board.total_seconds == 0 and board.total_bytes == 0
        assert board.snapshot() == (0, 0)
        board.transaction("read", "bram", 64)
        assert board.total_bytes == 64
        assert board.since((0, 0))[1] == board.transactions[0].seconds


@pytest.fixture()
def device():
    campaign = make_campaign(build_accumulator(),
                             inputs={"addr": 2, "load": 1})
    return campaign.device


class TestDirtyFrames:
    def test_setters_mark_their_frame(self, device):
        image = device.impl.golden_bitstream.copy()
        assert image.dirty == set()
        image.set_bit(FrameAddr("cb", 1), 0, 0, 1)
        assert image.dirty == set()  # the unmarked primitive
        image.set_cb(2, 3, image.get_cb(2, 3))
        image.set_pass_transistor(1, 4, 9, 1)
        image.set_bram_bit(1, 3, 2, 1)
        image.set_bram_word(2, 5, 0xA5)
        image.set_frame(FrameAddr("route", 0),
                        bytes(image.frames[FrameAddr("route", 0)]))
        assert image.dirty == {
            FrameAddr("cb", 3), FrameAddr("route", 4), FrameAddr("bram", 1),
            FrameAddr("bram", 2), FrameAddr("route", 0)}
        assert image.dirty_frames() == [
            FrameAddr("cb", 3), FrameAddr("route", 0),
            FrameAddr("route", 4), FrameAddr("bram", 1),
            FrameAddr("bram", 2)]
        assert image.get_bram_word(2, 5) == 0xA5

    def test_diff_frames_restricted_to_addrs(self, device):
        golden = device.impl.golden_bitstream
        image = golden.copy()
        for addr in (FrameAddr("cb", 1), FrameAddr("route", 2)):
            image.set_bit(addr, 0, 0, 1 - image.get_bit(addr, 0, 0))
        assert image.diff_frames(golden) == [FrameAddr("cb", 1),
                                             FrameAddr("route", 2)]
        assert image.diff_frames(golden, [FrameAddr("route", 2),
                                          FrameAddr("cb", 0)]) == [
            FrameAddr("route", 2)]
        assert image.diff_frames(golden, []) == []


class TestChangedWords:
    def test_matches_a_bytewise_scan(self):
        rng = random.Random(3)
        for _ in range(200):
            old = bytes(rng.randrange(256) for _ in range(CB_BYTES * 16))
            new = bytearray(old)
            for _ in range(rng.randrange(4)):
                new[rng.randrange(len(new))] = rng.randrange(256)
            expected = {index // CB_BYTES
                        for index, (a, b) in enumerate(zip(old, new))
                        if a != b}
            assert _changed_words(old, new, CB_BYTES) == expected


def _decoded(device):
    return (list(device._compiled), list(device._ff_srval),
            list(device._ff_lsr), list(device._ff_invert_d))


def _fresh_decode(device):
    fresh = Device(device.impl)
    fresh.config = device.config.copy()
    fresh._decode_all()
    return _decoded(fresh)


class TestChangeDrivenRecompile:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_writes_match_full_decode(self, device, seed):
        rng = random.Random(seed)
        arch = device.arch
        placement = device.impl.placement
        ff_sites = list(placement.site_of_ff.values())
        cb_cols = sorted({col for _row, col in placement.sites})
        blocks = sorted(placement.block_of_bram.values())
        for _ in range(60):
            action = rng.randrange(5)
            if action == 0:  # LSR assert ...
                row, col = rng.choice(ff_sites)
                addr = FrameAddr("cb", col)
                frame = bytearray(device.config.frames[addr])
                flags = row * CB_BYTES + CB_FLAGS
                frame[flags] |= 1 << CB_FLAG_INVERT_LSR
                frame[flags] ^= rng.randrange(2) << CB_FLAG_SRVAL
                device.write_frame(addr, bytes(frame))
                assert _decoded(device) == _fresh_decode(device)
                # ... then release, restoring the golden word.
                frame[row * CB_BYTES:(row + 1) * CB_BYTES] = \
                    device.impl.golden_bitstream.frames[addr][
                        row * CB_BYTES:(row + 1) * CB_BYTES]
                device.write_frame(addr, bytes(frame))
            elif action == 1:  # random CB bytes, possibly several rows
                addr = FrameAddr("cb", rng.choice(cb_cols))
                frame = bytearray(device.config.frames[addr])
                for _ in range(rng.randrange(4)):
                    frame[rng.randrange(len(frame))] = rng.randrange(256)
                device.write_frame(addr, bytes(frame))
            elif action == 2:  # a routing pass transistor
                addr = FrameAddr("route", rng.randrange(arch.cols))
                frame = bytearray(device.config.frames[addr])
                frame[rng.randrange(arch.rows * PM_BYTES)] ^= \
                    1 << rng.randrange(8)
                device.write_frame(addr, bytes(frame))
            elif action == 3:  # memory contents
                addr = FrameAddr("bram", rng.choice(blocks))
                frame = bytearray(device.config.frames[addr])
                frame[rng.randrange(len(frame))] = rng.randrange(256)
                device.write_frame(addr, bytes(frame))
            else:  # restore one CB column to golden
                addr = FrameAddr("cb", rng.choice(cb_cols))
                device.write_frame(
                    addr, device.impl.golden_bitstream.get_frame(addr))
            assert _decoded(device) == _fresh_decode(device)

    def test_state_readback_uses_column_index(self, device):
        device.run(6, {"addr": 2, "load": 1})
        placement = device.impl.placement
        for col in range(device.arch.cols):
            data = device.read_frame(FrameAddr("state", col))
            for ff_index, (row, ff_col) in placement.site_of_ff.items():
                if ff_col == col:
                    assert (data[row // 8] >> (row % 8)) & 1 == \
                        device.ff_state()[ff_index]


CYCLES = 24


def _mixed_faults(campaign):
    """Every mechanism family, including one the lane engine lacks."""
    locmap = campaign.locmap
    routed = campaign.impl.routing.is_routed
    specs = [
        FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=3),
        FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch", count=3),
        FaultLoadSpec(FaultModel.PULSE, "luts", count=3),
        FaultLoadSpec(FaultModel.DELAY, "nets:seq", count=2,
                      magnitude_range_ns=(1.0, 8.0)),
        FaultLoadSpec(FaultModel.INDETERMINATION, "ffs", count=3,
                      oscillate=True),
        FaultLoadSpec(FaultModel.INDETERMINATION, "luts", count=2),
    ]
    faults = []
    for number, spec in enumerate(specs):
        spec = FaultLoadSpec(**{**spec.__dict__,
                                "workload_cycles": CYCLES})
        faults += generate_faultload(spec, locmap, seed=40 + number,
                                     routed_nets=routed)
    rng = random.Random(9)
    frames = occupied_frames(campaign)
    for plane in ("cb", "route", "bram"):
        bit = random_config_bit(campaign.impl.arch, rng, planes=(plane,),
                                frames=frames)
        faults.append(config_seu_fault(bit, rng.randrange(CYCLES)))
    faults.append(Fault(FaultModel.STUCK_AT, Target(TargetKind.FF, 0),
                        start_cycle=4, value=1))
    rng.shuffle(faults)
    return faults


class TestRestoreInvariant:
    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_every_experiment_leaves_golden(self, backend):
        campaign = make_campaign(build_accumulator(),
                                 inputs={"addr": 2, "load": 1}, seed=3,
                                 backend=backend)
        faults = _mixed_faults(campaign)
        assert {fault.model for fault in faults} >= {
            FaultModel.BITFLIP, FaultModel.PULSE, FaultModel.DELAY,
            FaultModel.INDETERMINATION, FaultModel.CONFIG_SEU,
            FaultModel.STUCK_AT}
        golden = campaign.impl.golden_bitstream
        config = campaign.device.config
        campaign.golden_run(CYCLES)
        outcomes = []
        for index, fault in enumerate(faults):
            [result] = campaign.run_batch([fault], CYCLES,
                                          indices=[index])
            outcomes.append(result.outcome)
            assert config.dirty == set(), fault
            assert config.diff_frames(golden) == [], fault
        if backend == "compiled":
            reference = make_campaign(build_accumulator(),
                                      inputs={"addr": 2, "load": 1},
                                      seed=3)
            expected = [experiment.outcome for experiment in
                        reference.run_faults(faults, CYCLES).experiments]
            assert outcomes == expected
