"""Write-ahead log for streaming condensation.

Every completed stream operation appends one JSON entry to the log.
An entry is a *statistics delta*: the post-update ``(Fs, Sc, n)``
aggregate of the touched group(s), never a raw record — the same
invariant the in-memory maintainer upholds (paper §2), extended to
disk.  Replaying the log therefore reconstructs group state by
re-setting aggregates, not by re-ingesting records.

On-disk format
--------------
The log is a directory of size-rotated segment files named
``wal-<segment>.log``.  Each line is::

    <crc32-hex-8> <json-entry>\\n

where the CRC covers the JSON text, and the group aggregates inside it
are exact binary arrays (:mod:`repro.durability.codec`).  A torn tail —
a truncated final line, or a line whose CRC does not match — marks the
durable frontier: replay stops at the first invalid or discontinuous
entry and everything after it is discarded, which is exactly the crash
semantics an ``fsync``-then-die process exhibits.

Durability knobs: ``fsync_every`` controls how many appends may ride on
the OS page cache between ``fsync`` calls (1 = every append is durable
before the call returns), and ``max_segment_bytes`` bounds segment size
so checkpoint-driven pruning can unlink whole files.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

from repro import telemetry
from repro.durability import codec
from repro.telemetry import DEFAULT_SECONDS_BUCKETS

#: Segment filename pattern: ``wal-<six-digit-segment>.log``.
_SEGMENT_PATTERN = re.compile(r"^wal-(\d{6})\.log$")

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 1 << 20


def _segment_name(index: int) -> str:
    """Filename of segment ``index``."""
    return f"wal-{index:06d}.log"


def encode_entry(entry: dict) -> str:
    """Render one entry as a CRC-framed log line (without newline).

    Parameters
    ----------
    entry:
        Entry mapping; numpy arrays inside it are stored bit-exactly
        in the array encoding of :mod:`repro.durability.codec`.

    Returns
    -------
    str
        ``"<crc32-hex-8> <json>"``.
    """
    return codec.frame(entry)


def decode_line(line: str) -> dict | None:
    """Parse one log line, returning ``None`` for torn/corrupt lines.

    Parameters
    ----------
    line:
        A line read from a segment file (trailing newline optional; a
        missing newline means the write was torn mid-line).

    Returns
    -------
    dict or None
        The decoded entry with its arrays restored, or ``None`` if the
        line fails framing, CRC, or JSON validation.
    """
    if not line.endswith("\n"):
        return None
    return codec.unframe(line[:-1])


def list_segments(directory) -> list:
    """Segment paths of a WAL directory, in log order, read-only.

    Parameters
    ----------
    directory:
        WAL directory (missing or empty directories yield ``[]``).

    Returns
    -------
    list of pathlib.Path
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.iterdir()
        if _SEGMENT_PATTERN.match(path.name)
    )


def inspect_frames(directory):
    """Describe every physical WAL frame without modifying the log.

    Unlike opening a :class:`WriteAheadLog` (which repairs torn tails
    in place), this walks the segment files read-only — the right tool
    for ``repro wal-inspect`` and recovery dry-runs.  Frames *after*
    the durable frontier are still reported (with a non-``ok``
    status), so an operator can see exactly what a repair would
    discard.

    Parameters
    ----------
    directory:
        WAL directory.

    Yields
    ------
    dict
        One descriptor per physical line: ``segment`` (file name),
        ``offset``/``length`` (byte position and size within the
        segment), ``crc_ok`` (frame validates), ``seq``/``kind`` (from
        the decoded entry, ``None`` when invalid), and ``status`` —
        ``"ok"`` for frames inside the durable prefix, ``"torn"`` for
        CRC/framing failures, ``"gap"`` for sequence discontinuities,
        and ``"orphaned"`` for structurally valid frames stranded
        beyond an earlier invalid one.
    """
    previous_seq = None
    broken = False
    for segment in list_segments(directory):
        offset = 0
        with open(segment, "rb") as handle:
            for raw in handle:
                entry = decode_line(raw.decode("utf-8", "replace"))
                seq = entry.get("seq") if entry else None
                frame = {
                    "segment": segment.name,
                    "offset": offset,
                    "length": len(raw),
                    "crc_ok": entry is not None,
                    "seq": seq if isinstance(seq, int) else None,
                    "kind": entry.get("kind") if entry else None,
                }
                if broken:
                    frame["status"] = "orphaned"
                elif entry is None or not isinstance(seq, int):
                    frame["status"] = "torn"
                    broken = True
                elif previous_seq is not None and seq != previous_seq + 1:
                    frame["status"] = "gap"
                    broken = True
                else:
                    frame["status"] = "ok"
                    previous_seq = seq
                yield frame
                offset += len(raw)


def replay_directory(directory, after_seq: int = 0):
    """Read-only replay: valid entries past the durable frontier check.

    The generator equivalent of :meth:`WriteAheadLog.replay`, but
    without constructing a log object — so nothing is repaired,
    truncated, or opened for append.  Used by ``repro recover
    --dry-run`` to prove what a recovery *would* rebuild while leaving
    the directory byte-identical.

    Parameters
    ----------
    directory:
        WAL directory.
    after_seq:
        Only entries strictly after this sequence number are yielded.

    Yields
    ------
    (int, dict)
        ``(seq, entry)`` pairs in increasing ``seq`` order, ending at
        the durable frontier.
    """
    previous_seq = None
    for segment in list_segments(directory):
        with open(segment, "r", newline="") as handle:
            for line in handle:
                entry = decode_line(line)
                if entry is None:
                    return
                seq = entry.get("seq")
                if not isinstance(seq, int):
                    return
                if previous_seq is not None and seq != previous_seq + 1:
                    return
                previous_seq = seq
                if seq > after_seq:
                    yield seq, entry


class WriteAheadLog:
    """Size-rotated, CRC-framed append log of statistics deltas.

    Parameters
    ----------
    directory:
        Directory holding the segment files (created if missing).
    max_segment_bytes:
        Rotation threshold: a segment that reaches this size is closed
        and a new one opened.
    fsync_every:
        ``fsync`` the active segment every this many appends (1 =
        every append; larger values trade durability of the newest
        entries for throughput).

    Notes
    -----
    Sequence numbers start at 1 and are assigned by :meth:`append`.
    Opening an existing directory resumes after the last valid entry.
    """

    def __init__(self, directory, max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync_every: int = 1):
        if max_segment_bytes < 1:
            raise ValueError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        if fsync_every < 1:
            raise ValueError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.fsync_every = int(fsync_every)
        self._handle = None
        self._appends_since_fsync = 0
        self._segment_index = 0
        # Closed segment index -> highest sequence number at or before
        # its end, so pruning never has to read a segment back.
        self._closed_last_seq: dict[int, int] = {}
        self.last_seq = 0
        self._repair()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, entry: dict) -> int:
        """Assign the next sequence number to ``entry`` and persist it.

        Parameters
        ----------
        entry:
            JSON-serializable entry; its ``"seq"`` key is overwritten
            with the assigned sequence number.

        Returns
        -------
        int
            The assigned sequence number.
        """
        seq = self.last_seq + 1
        entry = dict(entry)
        entry["seq"] = seq
        line = encode_entry(entry) + "\n"
        handle = self._active_handle()
        handle.write(line)
        self._appends_since_fsync += 1
        if self._appends_since_fsync >= self.fsync_every:
            started = time.perf_counter()
            handle.flush()
            os.fsync(handle.fileno())
            telemetry.histogram_observe(
                "durability.wal_fsync_seconds",
                time.perf_counter() - started,
                buckets=DEFAULT_SECONDS_BUCKETS,
            )
            self._appends_since_fsync = 0
        self.last_seq = seq
        telemetry.counter_inc("durability.wal_appends")
        if handle.tell() >= self.max_segment_bytes:
            self._rotate()
        return seq

    def sync(self) -> None:
        """Force any unsynced appends to stable storage."""
        if self._handle is not None and self._appends_since_fsync:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._appends_since_fsync = 0

    def close(self) -> None:
        """Flush, ``fsync`` and close the active segment, if any."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def segments(self) -> list:
        """Segment paths in log order.

        Returns
        -------
        list of pathlib.Path
        """
        return sorted(
            path for path in self.directory.iterdir()
            if _SEGMENT_PATTERN.match(path.name)
        )

    def replay(self, after_seq: int = 0):
        """Yield valid entries with ``seq > after_seq`` in log order.

        Replay stops at the durable frontier: the first torn/corrupt
        line or sequence discontinuity.  Entries beyond the frontier —
        even structurally valid ones — are discarded, because an entry
        whose predecessor is lost describes a state transition from an
        unknown state.

        Parameters
        ----------
        after_seq:
            Only entries strictly after this sequence number are
            yielded (entries at or below it are skipped but still
            validated for continuity).

        Yields
        ------
        (int, dict)
            ``(seq, entry)`` pairs in increasing ``seq`` order.
        """
        self.close()
        previous_seq = None
        for segment in self.segments():
            with open(segment, "r", newline="") as handle:
                for line in handle:
                    entry = decode_line(line)
                    if entry is None:
                        return
                    seq = entry.get("seq")
                    if not isinstance(seq, int):
                        return
                    if previous_seq is not None and seq != previous_seq + 1:
                        return
                    previous_seq = seq
                    if seq > after_seq:
                        yield seq, entry

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, upto_seq: int) -> int:
        """Unlink segments whose entries are all ``<= upto_seq``.

        Called after a checkpoint at ``upto_seq``: the snapshot now
        covers those entries, so the segments are dead weight.  The
        active segment is never pruned.

        Parameters
        ----------
        upto_seq:
            Highest sequence number covered by the latest checkpoint.

        Returns
        -------
        int
            Number of segments removed.
        """
        removed = 0
        for index in sorted(self._closed_last_seq):
            if self._closed_last_seq[index] > upto_seq:
                # Segments are ordered; once one survives, later ones
                # hold higher sequence numbers and survive too.
                break
            (self.directory / _segment_name(index)).unlink(missing_ok=True)
            del self._closed_last_seq[index]
            removed += 1
        if removed:
            telemetry.counter_inc("durability.wal_segments_pruned", removed)
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _repair(self) -> None:
        """Make the physical log match its logical (valid) prefix.

        Opening after a crash may find a torn final line, or — after
        external corruption — valid-looking lines beyond an invalid
        one.  Appending after either would interleave garbage with new
        entries, so the log is repaired on open exactly as a database
        WAL would be: the first invalid byte and everything after it
        (including later segments) is discarded.
        """
        previous_seq = None
        for segment in self.segments():
            valid_bytes = 0
            broken = False
            with open(segment, "rb") as handle:
                for raw in handle:
                    entry = decode_line(raw.decode("utf-8", "replace"))
                    seq = entry.get("seq") if entry else None
                    if not isinstance(seq, int) or (
                        previous_seq is not None
                        and seq != previous_seq + 1
                    ):
                        broken = True
                        break
                    previous_seq = seq
                    valid_bytes += len(raw)
            index = int(_SEGMENT_PATTERN.match(segment.name).group(1))
            if broken:
                if valid_bytes == 0:
                    segment.unlink()
                    self._segment_index = max(self._segment_index, index)
                else:
                    with open(segment, "rb+") as handle:
                        handle.truncate(valid_bytes)
                    self._segment_index = index
                for later in self.segments():
                    later_index = int(
                        _SEGMENT_PATTERN.match(later.name).group(1)
                    )
                    if later_index > index:
                        later.unlink()
                break
            self._segment_index = index
            self._closed_last_seq[index] = previous_seq or 0
        # The active segment is open for append, not closed.
        self._closed_last_seq.pop(self._segment_index, None)
        self.last_seq = previous_seq or 0

    def _active_handle(self):
        """The open handle of the active segment, creating it lazily."""
        if self._handle is None:
            path = self.directory / _segment_name(self._segment_index)
            self._handle = open(path, "a", newline="")
        return self._handle

    def _rotate(self) -> None:
        """Close the active segment and start the next one."""
        self.close()
        self._closed_last_seq[self._segment_index] = self.last_seq
        self._segment_index += 1
        telemetry.counter_inc("durability.wal_rotations")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(directory={str(self.directory)!r}, "
            f"last_seq={self.last_seq})"
        )
