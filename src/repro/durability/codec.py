"""The one on-disk encoding of the durability package.

Every durable document — WAL entries, snapshots, shard checkpoints —
is a single CRC-framed JSON text::

    <crc32-hex-8> <json>

where the CRC covers the JSON text.  Inside the JSON, every numpy array
travels as a tagged object carrying its exact bytes and its shape::

    {"data": "<base64>", "__ndarray__": "<f8", "shape": [34, 34]}

``data`` is the base64 of the array's little-endian bytes, so a round
trip is bit-exact (``-0.0``, subnormals and ``±1e308`` included) and
costs one ``tobytes`` plus one ``b64encode`` instead of rendering every
float as decimal text.  Float arrays are stored as ``<f8`` and integer
arrays (shard lineage) as ``<i8``; readers accept nothing else.

Documents written before arrays were tagged hold plain lists of floats
in the same places; they still decode (as lists), and every consumer —
:meth:`~repro.core.statistics.GroupStatistics.from_dict`, the shard
lineage loader — accepts either form.
"""

from __future__ import annotations

import base64
import json
import zlib

import numpy as np

#: Key marking a JSON object as an encoded array; its value is the
#: stored dtype.
ARRAY_TAG = "__ndarray__"

#: Stored dtype per numpy dtype kind.
_STORED_DTYPES = {"f": "<f8", "i": "<i8"}

#: How :func:`frame` first renders a tagged array: an empty ``data``
#: slot, filled in afterwards so the base64 text skips JSON's
#: per-character string escaping (base64 needs none).
_EMPTY_SLOT = '{"data":"","%s":' % ARRAY_TAG


def _array_slot(value, blobs: list) -> dict:
    """Tagged object for ``value`` with its base64 text set aside."""
    if isinstance(value, np.ndarray):
        stored = _STORED_DTYPES.get(value.dtype.kind)
        if stored is not None:
            raw = np.ascontiguousarray(value, dtype=stored).tobytes()
            blobs.append(base64.b64encode(raw).decode("ascii"))
            return {"data": "", ARRAY_TAG: stored,
                    "shape": list(value.shape)}
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _decode_array(document: dict):
    """``json.loads`` object hook: restore tagged arrays, pass the rest."""
    if ARRAY_TAG not in document:
        return document
    stored = document[ARRAY_TAG]
    if stored not in _STORED_DTYPES.values():
        raise ValueError(f"unsupported array dtype {stored!r}")
    try:
        raw = base64.b64decode(document["data"], validate=True)
        return np.frombuffer(raw, dtype=stored).reshape(
            document["shape"]
        ).copy()
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed array object: {error}") from None


def frame(document: dict) -> str:
    """Render ``document`` as one CRC-framed text (no newline).

    Parameters
    ----------
    document:
        JSON-serializable mapping; numpy float and integer arrays
        anywhere inside it are encoded as tagged binary objects.

    Returns
    -------
    str
        ``"<crc32-hex-8> <json>"``.
    """
    blobs: list = []
    body = json.dumps(document, separators=(",", ":"),
                      default=lambda value: _array_slot(value, blobs))
    if blobs:
        # The encoder emits arrays in document order, so the n-th empty
        # slot belongs to the n-th array.
        head, *tails = body.split(_EMPTY_SLOT)
        body = head + "".join(
            f'{{"data":"{blob}","{ARRAY_TAG}":{tail}'
            for blob, tail in zip(blobs, tails, strict=True)
        )
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def unframe(text: str) -> dict | None:
    """Validate and decode one CRC-framed text.

    Parameters
    ----------
    text:
        ``"<crc32-hex-8> <json>"`` without a trailing newline.

    Returns
    -------
    dict or None
        The decoded mapping with its arrays restored, or ``None`` when
        the framing, the CRC, the JSON, or an array object is invalid,
        or the document is not a mapping.
    """
    if len(text) < 10 or text[8] != " ":
        return None
    checksum, body = text[:8], text[9:]
    try:
        expected = int(checksum, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        document = json.loads(body, object_hook=_decode_array)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None
