"""Tests for the sealed-log format the journal and the ``.tsdb`` share.

Both writers follow one open rule: a final line that lacks its newline
or fails to verify is the crash signature, so reading drops it and
reopening cuts it before the next line can glue onto it.  The readers
differ only in their policy for interior damage: the journal refuses
it, the time series drops the bad line.
"""

import json

import pytest

from repro.core import FaultLoadSpec, FaultModel
from repro.errors import JournalError
from repro.obs.timeseries import read_tsdb
from repro.runtime import (CampaignJobSpec, JournalWriter, read_journal,
                           repair_journal, scan_journal)
from repro.sealedlog import SealedWriter, cut, line_crc, scan, seal_line

JOBSPEC = CampaignJobSpec(FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=4))


class Journal:
    """Entries are records keyed by fault index, after a header."""

    @staticmethod
    def writer(path):
        return JournalWriter(path, JOBSPEC)

    @staticmethod
    def append(writer, n):
        writer.append_record({"index": n, "outcome": "silent"})

    @staticmethod
    def read(path):
        state = read_journal(path)
        assert state.header is not None
        return sorted(state.records), state.dropped_lines


class Tsdb:
    """Entries are time-series samples."""

    writer = SealedWriter

    @staticmethod
    def append(writer, n):
        writer.append({"t": float(n), "n": n})

    @staticmethod
    def read(path):
        samples, dropped = read_tsdb(path)
        return [sample["n"] for sample in samples], dropped


@pytest.fixture(params=[Journal, Tsdb], ids=["journal", "tsdb"])
def fmt(request):
    return request.param


def write(fmt, path, numbers):
    with fmt.writer(path) as writer:
        for n in numbers:
            fmt.append(writer, n)


def rot_line(path, line_no):
    """Change one line's payload so its CRC no longer matches."""
    lines = open(path, encoding="utf-8").read().split("\n")
    entry = json.loads(lines[line_no])
    entry["n" if "n" in entry else "outcome"] = "rotten"
    lines[line_no] = json.dumps(entry, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def tear(path):
    """Crash mid-append: the final line is cut half way."""
    data = open(path, "rb").read()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    cut(path, start + (len(data) - start) // 2)


def lose_newline(path):
    """The final line is complete but its newline never landed."""
    cut(path, len(open(path, "rb").read()) - 1)


@pytest.mark.parametrize("damage", [
    tear, lose_newline, lambda path: rot_line(path, -2)],
    ids=["torn", "unterminated", "corrupt"])
def test_open_cuts_a_bad_final_line(fmt, damage, tmp_path):
    path = str(tmp_path / "log")
    write(fmt, path, [1, 2])
    damage(path)
    # Reading drops the crash signature, and says so.
    assert fmt.read(path) == ([1], 1)
    assert scan(path)[1].verdict() == "torn-tail"
    # Reopening cuts it, so the next line never glues onto it.
    write(fmt, path, [3, 4])
    assert fmt.read(path) == ([1, 3, 4], 0)
    assert scan(path)[1].verdict() == "clean"


def test_interior_damage_is_refused_by_the_journal(tmp_path):
    path = str(tmp_path / "log")
    write(Journal, path, [1, 2, 3])
    rot_line(path, 2)
    found = scan_journal(path)
    assert found.verdict() == "corrupt"
    assert [issue.kind for issue in found.interior] == ["corrupt"]
    with pytest.raises(JournalError, match="fsck"):
        Journal.read(path)
    # Repair truncates to the last verifiable prefix.
    _found, dropped = repair_journal(path)
    assert dropped > 0
    assert Journal.read(path) == ([1], 0)


def test_interior_damage_costs_the_tsdb_one_sample(tmp_path):
    path = str(tmp_path / "log")
    write(Tsdb, path, [0, 1, 2])
    rot_line(path, 1)
    assert scan(path)[1].verdict() == "corrupt"
    assert Tsdb.read(path) == ([0, 2], 1)


def test_payloads_come_back_without_their_crc(tmp_path):
    path = str(tmp_path / "log")
    entry = {"t": 0.5, "n": 1, "outcomes": {"latent": 1}}
    with SealedWriter(path) as writer:
        writer.append(entry)
    line = open(path, encoding="utf-8").read()
    assert line == seal_line(entry) + "\n"
    assert json.loads(line)["crc"] == line_crc(entry)
    entries, found = scan(path)
    assert entries == [entry]
    assert (found.checked, found.legacy, found.issues) == (1, 0, [])


def test_lines_without_a_crc_read_as_legacy(tmp_path):
    path = tmp_path / "log"
    path.write_text('{"n": 1}\n')
    entries, found = scan(str(path))
    assert entries == [{"n": 1}]
    assert (found.checked, found.legacy) == (0, 1)

