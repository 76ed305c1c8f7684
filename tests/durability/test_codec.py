"""The durability package's array encoding and CRC framing.

Group statistics travel through WAL entries, snapshots, and shard
checkpoints as tagged base64 float64 arrays.  The contract under test:
every float survives bit for bit (signed zeros, subnormals, values near
the float64 limit), integer lineage stays integral, malformed array
objects read as corrupt frames, and documents written before arrays
were tagged (plain lists of floats) still recover to the same model.
"""

import json
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.condenser import DynamicCondenser
from repro.core.statistics import GroupStatistics
from repro.durability import (
    decode_line,
    encode_entry,
    list_segments,
    list_snapshots,
    read_snapshot,
)
from repro.durability.codec import ARRAY_TAG, frame, unframe

#: Values a decimal-text encoding is most likely to get wrong.
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
    np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3.0,
]

edge_floats = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bits(array):
    """Exact identity of an array: dtype, shape, and bytes."""
    return array.dtype.str, array.shape, array.tobytes()


def statistics_entry(first_order, second_order, count):
    return {"kind": "op", "seq": 1, "pos": 1, "ops": [{
        "op": "ingest", "target": 0,
        "group": {"first_order": first_order,
                  "second_order": second_order, "count": count},
    }]}


class TestArrayRoundTrip:
    @pytest.mark.parametrize("d", [1, 34, 64])
    @given(data=st.data())
    def test_wal_entry_is_bit_exact(self, d, data):
        first_order = data.draw(
            arrays(np.float64, (d,), elements=edge_floats)
        )
        second_order = data.draw(arrays(
            np.float64, (d, d), elements=edge_floats, fill=edge_floats,
        ))
        line = encode_entry(statistics_entry(first_order, second_order, 7))
        decoded = decode_line(line + "\n")
        group = decoded["ops"][0]["group"]
        assert bits(group["first_order"]) == bits(first_order)
        assert bits(group["second_order"]) == bits(second_order)
        rebuilt = GroupStatistics.from_dict(group)
        assert bits(rebuilt.first_order) == bits(first_order)
        assert bits(rebuilt.second_order) == bits(second_order)

    def test_every_edge_value_survives(self):
        values = np.array(EDGE_VALUES)
        decoded = unframe(frame({"values": values}))["values"]
        assert bits(decoded) == bits(values)
        assert np.signbit(decoded[0])

    def test_decoded_arrays_are_writable(self):
        decoded = unframe(frame({"values": np.zeros(3)}))["values"]
        decoded += 1.0
        assert decoded.tolist() == [1.0, 1.0, 1.0]

    def test_integer_arrays_stay_integral(self):
        lineage = np.array([0, 7, 2**40], dtype=np.int64)
        decoded = unframe(frame({"lineage": lineage}))["lineage"]
        assert decoded.dtype == np.int64
        assert decoded.tolist() == lineage.tolist()

    def test_arrays_are_not_float_text(self):
        text = frame({"values": np.full(4, 0.1)})
        assert "0.1" not in text
        assert ARRAY_TAG in text

    def test_non_array_objects_still_fail_to_encode(self):
        with pytest.raises(TypeError):
            frame({"values": {1, 2}})


class TestMalformedArrays:
    @pytest.mark.parametrize("tagged", [
        {ARRAY_TAG: "<c16", "shape": [1], "data": "AAAAAAAAAAA="},
        {ARRAY_TAG: "<f8", "shape": [2], "data": "AAAAAAAAAAA="},
        {ARRAY_TAG: "<f8", "shape": [1], "data": "not base64!"},
        {ARRAY_TAG: "<f8", "shape": [1]},
    ])
    def test_crc_valid_but_malformed_array_reads_as_corrupt(self, tagged):
        assert unframe(frame({"values": tagged})) is None


def legacy_line(document):
    """Frame a document exactly as the list-of-floats writer did."""
    body = json.dumps(to_lists(document), separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}"


def to_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: to_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [to_lists(item) for item in value]
    return value


def fingerprint(model):
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in model.groups
    ]


class TestLegacyListFormat:
    def test_list_of_floats_directory_recovers_the_same_model(
        self, tmp_path
    ):
        rng = np.random.default_rng(23)
        current = tmp_path / "current"
        condenser = DynamicCondenser(
            4, random_state=5, wal_dir=current, checkpoint_every=20,
        )
        condenser.fit(rng.normal(size=(24, 5)))
        condenser.partial_fit(rng.normal(size=(50, 5)))
        condenser.generate()
        condenser.partial_fit(rng.normal(size=(7, 5)))
        condenser.close()
        assert list_snapshots(current)

        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for segment in list_segments(current):
            lines = [
                legacy_line(decode_line(line)) + "\n"
                for line in segment.read_text().splitlines(keepends=True)
            ]
            (legacy / segment.name).write_text("".join(lines))
        for path in list_snapshots(current):
            info = read_snapshot(path)
            (legacy / path.name).write_text(legacy_line({
                "format_version": 1, "seq": info.seq, "state": info.state,
            }))
        assert ARRAY_TAG not in "".join(
            path.read_text() for path in legacy.iterdir()
        )

        expected = DynamicCondenser.recover(shutil.copytree(
            current, tmp_path / "current-copy"
        ))
        recovered = DynamicCondenser.recover(legacy)
        assert recovered.position == expected.position == 57
        assert fingerprint(recovered.model_) == fingerprint(expected.model_)
        assert fingerprint(recovered.model_) == fingerprint(
            condenser.model_
        )
        np.testing.assert_array_equal(
            recovered.generate(), expected.generate()
        )
        recovered.close()
        expected.close()
