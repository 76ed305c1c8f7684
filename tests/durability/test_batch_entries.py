"""Fault injection for the ``batch`` WAL entry kind.

Batched ingest journals one entry per absorbed block, so the durable
frontier only ever advances a whole block at a time.  The contract
under test: after a crash at any byte — including mid-way through a
``batch`` entry — recovery rebuilds group statistics bit-identical to
a completed block boundary, and re-feeding the stream from that
position with the same block size reproduces the uninterrupted final
state exactly.  ``repro wal-inspect`` must render the new kind.
"""

import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.core.condenser import DynamicCondenser
from repro.durability import inspect_frames, replay_directory

K = 4
DIMS = 3
BATCH = 16
N_BLOCKS = 25


def fingerprint(model):
    """Byte-exact signature of a model's group statistics, in order."""
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in model.groups
    ]


@pytest.fixture(scope="module")
def batch_reference(tmp_path_factory):
    """One durable batched run, crashed without close().

    ``states[p]`` is the fingerprint after ``p`` streamed records;
    every key is a block boundary (positions advance ``BATCH`` at a
    time), which is exactly where recovery is allowed to land.
    """
    directory = tmp_path_factory.mktemp("batch-ref")
    rng = np.random.default_rng(17)
    initial = rng.normal(size=(6 * K, DIMS))
    stream = rng.normal(size=(N_BLOCKS * BATCH, DIMS))
    condenser = DynamicCondenser(
        K, random_state=7, wal_dir=directory, checkpoint_every=10,
        batch_size=BATCH,
    )
    condenser.fit(initial)
    states = {0: fingerprint(condenser.model_)}
    for start in range(0, stream.shape[0], BATCH):
        condenser.partial_fit(stream[start:start + BATCH])
        states[condenser.position] = fingerprint(condenser.model_)
    return {
        "directory": directory,
        "stream": stream,
        "states": states,
        "final": states[stream.shape[0]],
    }


def recover_and_verify(reference, work):
    """Recover a corrupted copy, check the block-edge oracle, re-feed."""
    recovered = DynamicCondenser.recover(work, batch_size=BATCH)
    position = recovered.position
    assert position % BATCH == 0, (
        f"recovered position {position} is not a block boundary"
    )
    assert position in reference["states"]
    assert fingerprint(recovered.model_) == reference["states"][position]
    stream = reference["stream"]
    for start in range(position, stream.shape[0], BATCH):
        recovered.partial_fit(stream[start:start + BATCH])
    assert fingerprint(recovered.model_) == reference["final"]
    recovered.close()


class TestBatchEntryKillPoints:
    @pytest.mark.parametrize("trial", range(25))
    def test_truncated_wal(self, batch_reference, tmp_path, trial):
        work = tmp_path / "copy"
        shutil.copytree(batch_reference["directory"], work)
        rng = np.random.default_rng(5000 + trial)
        segments = sorted(work.glob("wal-*.log"))
        target = segments[int(rng.integers(len(segments)))]
        raw = target.read_bytes()
        target.write_bytes(raw[: int(rng.integers(0, len(raw) + 1))])
        recover_and_verify(batch_reference, work)

    @pytest.mark.parametrize("trial", range(15))
    def test_flipped_byte(self, batch_reference, tmp_path, trial):
        work = tmp_path / "copy"
        shutil.copytree(batch_reference["directory"], work)
        rng = np.random.default_rng(6000 + trial)
        segments = sorted(work.glob("wal-*.log"))
        target = segments[int(rng.integers(len(segments)))]
        raw = bytearray(target.read_bytes())
        raw[int(rng.integers(len(raw)))] ^= 0xFF
        target.write_bytes(bytes(raw))
        recover_and_verify(batch_reference, work)

    def test_torn_mid_block_entry(self, batch_reference, tmp_path):
        """Cut inside a ``batch`` entry's absorb sub-operations.

        The half-written block must be discarded wholesale: recovery
        lands on the previous block boundary, never on a partially
        absorbed block.
        """
        work = tmp_path / "copy"
        shutil.copytree(batch_reference["directory"], work)
        torn = False
        for segment in reversed(sorted(work.glob("wal-*.log"))):
            raw = segment.read_bytes()
            marker = raw.rfind(b'"op":"absorb"')
            if marker == -1:
                continue
            segment.write_bytes(raw[: marker + 8])
            torn = True
            break
        assert torn, "reference run produced no absorb sub-operation"
        recover_and_verify(batch_reference, work)

    def test_lost_last_block_entry(self, batch_reference, tmp_path):
        """Losing the newest complete entry rewinds exactly one block."""
        work = tmp_path / "copy"
        shutil.copytree(batch_reference["directory"], work)
        segment = sorted(work.glob("wal-*.log"))[-1]
        lines = segment.read_text().splitlines(keepends=True)
        segment.write_text("".join(lines[:-1]))
        recovered = DynamicCondenser.recover(work, batch_size=BATCH)
        stream_length = batch_reference["stream"].shape[0]
        assert recovered.position == stream_length - BATCH
        recovered.close()
        recover_and_verify(batch_reference, work)


class TestBatchEntryInspection:
    def test_frames_carry_the_batch_kind(self, batch_reference):
        frames = list(inspect_frames(batch_reference["directory"]))
        kinds = {frame["kind"] for frame in frames}
        assert "batch" in kinds
        batch_frames = [
            frame for frame in frames if frame["kind"] == "batch"
        ]
        assert all(frame["status"] == "ok" for frame in batch_frames)

    def test_wal_inspect_cli_renders_batch(self, batch_reference, capsys):
        exit_code = main(
            ["wal-inspect", str(batch_reference["directory"])]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch" in output

    def test_recover_cli_handles_batch_entries(
        self, batch_reference, tmp_path, capsys
    ):
        work = tmp_path / "copy"
        shutil.copytree(batch_reference["directory"], work)
        exit_code = main(["recover", str(work), "--dry-run"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resume the upstream feed from position" in output


class TestBatchPostStateCapture:
    def test_absorb_then_split_in_one_block(self, tmp_path):
        """A group absorbs in two rounds of one block, then splits.

        The block is journaled only after it completes, so each
        sub-operation must hold the group's state as of its emission —
        not a live array the next round keeps updating.  Geometry:
        groups G near the origin and H at x=10 (spread along y).  Round
        one: G absorbs two rows, H fills to ``2k`` and splits, and the
        row at x=5.2 overflows; after H's split it is nearest to G,
        which absorbs it in round two and splits.
        """
        initial = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0],
                            [10.0, 5.0], [10.0, -5.0], [10.0, 0.0]])
        block = np.array([[0.2, 0.0], [10.0, 6.0], [-0.2, 0.0],
                          [10.0, -6.0], [10.0, 0.5], [5.2, 0.0]])
        condenser = DynamicCondenser(
            3, random_state=0, wal_dir=tmp_path, batch_size=len(block)
        )
        condenser.fit(initial)
        condenser.partial_fit(block)

        batches = [
            entry for __, entry in replay_directory(tmp_path)
            if entry["kind"] == "batch"
        ]
        assert len(batches) == 1
        ops = batches[0]["ops"]
        absorb = next(op for op in ops if op["op"] == "absorb")
        target = absorb["target"]
        assert any(
            op["op"] == "split" and op["target"] == target
            and op["absorbed"] == 1
            for op in ops[ops.index(absorb) + 1:]
        )
        # The journaled absorb is G after round one: its three founding
        # rows plus the two absorbed, not the six it held at the split.
        round_one = np.vstack([initial[:3], block[[0, 2]]])
        assert absorb["group"]["count"] == 5
        np.testing.assert_allclose(
            absorb["group"]["first_order"], round_one.sum(axis=0),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            absorb["group"]["second_order"], round_one.T @ round_one,
            atol=1e-12,
        )

        recovered = DynamicCondenser.recover(tmp_path, batch_size=len(block))
        assert fingerprint(recovered.model_) == fingerprint(condenser.model_)
        assert recovered.model_.metadata == condenser.model_.metadata
        recovered.close()
        condenser.close()
