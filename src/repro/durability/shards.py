"""Per-shard checkpoints for the sharded condensation engine.

A sharded run (:func:`repro.parallel.condense_sharded`) is a bag of
independent shard tasks whose results are additive group statistics.
That makes worker-level durability simple: as each shard completes, the
*coordinator* persists its result; when a run is retried after a crash
or pool failure, completed shards are reloaded instead of recomputed.

Two properties keep this safe:

* **Statistics only.**  A checkpoint holds the shard's ``(Fs, Sc, n)``
  groups and the group-to-record *index* lineage — the same content a
  condensed model's metadata exposes — never record values.
* **Keyed by fingerprint.**  Shard results are only valid for the exact
  ``(data, k, strategy, n_shards, seed)`` combination that produced
  them, so the store namespaces its files by a SHA-256 fingerprint of
  those inputs and ignores files written under any other fingerprint.
  Resumability therefore requires an integer seed: a bare generator's
  draw position cannot be fingerprinted across runs.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.durability import codec

#: Shard checkpoint filename pattern.
_SHARD_PATTERN = re.compile(r"^shard-(\d{5})\.json$")


def shard_fingerprint(
    data: np.ndarray, k: int, strategy_name: str, n_shards: int, seed: int
) -> str:
    """Fingerprint of one sharded-run configuration.

    Parameters
    ----------
    data:
        The database being condensed (hashed by content and shape).
    k:
        Indistinguishability level.
    strategy_name:
        Resolved strategy name.
    n_shards:
        Shard count (results depend on it, never on the worker count).
    seed:
        Integer root seed of the run.

    Returns
    -------
    str
        Hex SHA-256 digest identifying the run configuration.
    """
    data = np.ascontiguousarray(np.asarray(data, dtype=float))
    hasher = hashlib.sha256()
    hasher.update(
        f"shape={data.shape}|k={int(k)}|strategy={strategy_name}"
        f"|n_shards={int(n_shards)}|seed={int(seed)}|".encode("utf-8")
    )
    hasher.update(data.tobytes())
    return hasher.hexdigest()


class ShardCheckpointStore:
    """Crash-safe store of completed shard results for one run config.

    Files live under ``directory/<fingerprint-prefix>/`` so different
    run configurations sharing a checkpoint directory never collide.
    Each file uses the same CRC-framed format and array encoding as
    the snapshot writer (:mod:`repro.durability.codec`) and is written
    atomically (tmp + rename), so a crash during a store leaves at
    worst an ignorable partial tmp file.

    Parameters
    ----------
    directory:
        Root checkpoint directory (created if missing).
    fingerprint:
        Run fingerprint from :func:`shard_fingerprint`.
    """

    def __init__(self, directory, fingerprint: str):
        self.fingerprint = str(fingerprint)
        self.directory = Path(directory) / self.fingerprint[:16]
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, shard_index: int) -> Path:
        return self.directory / f"shard-{shard_index:05d}.json"

    def store(self, shard_index: int, result) -> None:
        """Persist one completed shard result atomically.

        Parameters
        ----------
        shard_index:
            Position of the shard in the run's shard plan.
        result:
            ``(groups, index_lineage)`` as returned by the shard worker:
            the shard's group statistics and, per group, the original
            database row indices it condensed.
        """
        shard_groups, lineage = result
        payload = {
            "fingerprint": self.fingerprint,
            "shard": int(shard_index),
            "groups": [group.to_state() for group in shard_groups],
            "lineage": [
                np.asarray(indices, dtype=np.int64) for indices in lineage
            ],
        }
        final = self._path(shard_index)
        temporary = final.with_suffix(".json.tmp")
        with open(temporary, "w") as handle:
            handle.write(codec.frame(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, final)
        telemetry.counter_inc("durability.shard_checkpoints")

    def load(self, shard_index: int):
        """Load one shard result, or ``None`` when absent or invalid.

        Parameters
        ----------
        shard_index:
            Position of the shard in the run's shard plan.

        Returns
        -------
        tuple or None
            The stored ``(groups, index_lineage)``, or ``None`` when the
            file is missing, torn, CRC-corrupt, or was written under a
            different run fingerprint.
        """
        from repro.core.statistics import GroupStatistics

        path = self._path(shard_index)
        try:
            document = path.read_text()
        except OSError:
            return None
        payload = codec.unframe(document)
        if (
            payload is None
            or payload.get("fingerprint") != self.fingerprint
            or payload.get("shard") != int(shard_index)
        ):
            return None
        shard_groups = [
            GroupStatistics.from_dict(entry) for entry in payload["groups"]
        ]
        lineage = [
            np.asarray(indices, dtype=np.int64)
            for indices in payload["lineage"]
        ]
        return shard_groups, lineage

    def clear(self) -> int:
        """Remove every checkpoint file of this fingerprint.

        Returns
        -------
        int
            Number of files removed.
        """
        removed = 0
        for path in sorted(self.directory.iterdir()):
            if _SHARD_PATTERN.match(path.name):
                path.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"ShardCheckpointStore(directory={str(self.directory)!r}, "
            f"fingerprint={self.fingerprint[:16]!r})"
        )
