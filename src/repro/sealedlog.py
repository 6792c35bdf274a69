"""Line-sealed append-only logs: the campaign's one durable file format.

The result journal and its ``.tsdb`` time-series sidecar are both
sealed logs: one JSON object per line, carrying a CRC32 of its own
canonical JSON under a ``crc`` key that only this module knows.  A line
is committed once its newline is on disk, so a final line that lacks
it or fails to verify is a crash signature: :func:`scan` reports it,
and :class:`SealedWriter` cuts it before appending so the next line
cannot glue onto it.  Callers keep only their policy for damage: the
journal refuses a bad interior line until :func:`repair` truncates to
the last verifiable prefix; the ``.tsdb`` reader drops bad lines.  The
unsealed ``.trace`` sidecar shares :func:`cut` for its torn tails.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Key under which every sealed line carries its checksum.
CRC_KEY = "crc"


def line_crc(entry: Dict[str, Any]) -> str:
    """CRC32 (hex) of an entry's canonical JSON, minus the crc itself."""
    payload = {key: value for key, value in entry.items() if key != CRC_KEY}
    canonical = json.dumps(payload, sort_keys=True)
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def seal_line(entry: Dict[str, Any]) -> str:
    """Serialise one entry with its integrity checksum (no newline)."""
    sealed = dict(entry)
    sealed[CRC_KEY] = line_crc(entry)
    return json.dumps(sealed, sort_keys=True)


@dataclass(frozen=True)
class LineIssue:
    """One line that failed integrity checking."""

    line_no: int  # 1-based
    offset: int   # byte offset of the line start (truncation point)
    kind: str     # "torn" (unterminated or not JSON) | "corrupt" (CRC)
    detail: str


@dataclass
class LogScan:
    """Integrity verdict over every line of a sealed log."""

    path: str
    size: int = 0
    lines: int = 0
    checked: int = 0  # lines whose CRC was present and verified
    legacy: int = 0   # valid lines without a CRC (pre-integrity era)
    issues: List[LineIssue] = field(default_factory=list)

    @property
    def tail(self) -> Optional[LineIssue]:
        """The final line's issue, when the final line is bad."""
        if self.issues and self.issues[-1].line_no == self.lines:
            return self.issues[-1]
        return None

    @property
    def torn_tail(self) -> Optional[LineIssue]:
        """The file's final line, when it is the (only) bad one."""
        return self.tail if len(self.issues) == 1 else None

    @property
    def interior(self) -> List[LineIssue]:
        """Bad lines that verified data follows (not crash signatures)."""
        tail = self.torn_tail
        return [issue for issue in self.issues if issue is not tail]

    def verdict(self) -> str:
        if not self.issues:
            return "clean"
        if self.torn_tail is not None:
            return "torn-tail"
        return "corrupt"

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "verdict": self.verdict(),
                "size": self.size, "lines": self.lines,
                "checked": self.checked, "legacy": self.legacy,
                "issues": [{"line": issue.line_no,
                            "offset": issue.offset,
                            "kind": issue.kind,
                            "detail": issue.detail}
                           for issue in self.issues]}


def scan(path: str) -> Tuple[List[Dict[str, Any]], LogScan]:
    """Walk a sealed log byte-exactly: the payloads that verify (without
    their ``crc``) and the verdict.  A missing file scans as empty."""
    result = LogScan(path=path)
    entries: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return entries, result
    with open(path, "rb") as handle:
        data = handle.read()
    result.size = len(data)
    offset = 0
    for raw in data.split(b"\n"):
        line_start, offset = offset, offset + len(raw) + 1
        if not raw.strip():
            continue
        result.lines += 1
        try:
            if offset > len(data):
                raise ValueError("final line lacks its newline")
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("line is not an object")
        except (ValueError, UnicodeDecodeError) as error:
            result.issues.append(LineIssue(
                line_no=result.lines, offset=line_start, kind="torn",
                detail=f"not a sealed line: {error}"))
            continue
        if CRC_KEY in entry:
            recorded = entry.pop(CRC_KEY)
            expected = line_crc(entry)
            if recorded != expected:
                result.issues.append(LineIssue(
                    line_no=result.lines, offset=line_start,
                    kind="corrupt",
                    detail=f"CRC mismatch (recorded {recorded!r}, "
                           f"computed {expected!r})"))
                continue
            result.checked += 1
        else:
            result.legacy += 1
        entries.append(entry)
    return entries, result


def cut(path: str, offset: Optional[int] = None) -> int:
    """Truncate *path* to *offset* bytes and return the bytes dropped.

    Without an offset the cut drops only a final line that lacks its
    newline — the byte-level crash signature, for formats whose lines
    cannot be verified."""
    with open(path, "r+b") as handle:
        if offset is None:
            offset = handle.read().rfind(b"\n") + 1
        size = handle.seek(0, os.SEEK_END)
        if offset < size:
            handle.truncate(offset)
    return size - offset


def repair(path: str) -> Tuple[LogScan, int]:
    """Truncate a sealed log to its last verifiable prefix.

    Returns the pre-repair scan and the number of bytes dropped (zero
    when the log was already clean).
    """
    found = scan(path)[1]
    if not found.issues:
        return found, 0
    return found, cut(path, found.issues[0].offset)


class SealedWriter:
    """Appends sealed lines with per-append durability.

    Opening cuts a final line that lacks its newline or fails to
    verify, so a crash signature never glues onto the next line.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        tail = scan(path)[1].tail
        if tail is not None:
            cut(path, tail.offset)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, entry: Dict[str, Any]) -> None:
        """Seal *entry* and make its line durable."""
        self.write(seal_line(entry) + "\n")

    def write(self, text: str) -> None:
        """Write raw *text* and fsync it (fault injection writes torn or
        mis-sealed lines through here)."""
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SealedWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
