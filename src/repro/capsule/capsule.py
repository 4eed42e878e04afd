"""Capsules: the fine-grained compressed storage unit (paper §4.2, §5.2).

A Capsule stores one column of values — a sub-variable vector, an outlier
vector, a dictionary vector or an index vector — compressed independently
with LZMA (the paper's Packer uses LZMA for its high ratio).

Two payload layouts exist:

* **fixed** — every value padded with NUL to the Capsule's width.  This is
  the paper's design: the row of a hit is ``position // width`` (O(1)), hit
  rows can be checked directly in a second Capsule, and a pattern region of
  a dictionary can be reached by the Σ count·width jump.
* **variable** — values separated by NUL.  This exists only for the
  ``w/o fixed`` ablation (§6.3) and for LogGrep-SP; recovering a hit's row
  means counting separators, which is what the paper's padding avoids.

Values must not contain NUL; log lines are text, so the packer enforces it.
"""

from __future__ import annotations

import lzma
import zlib
from itertools import chain, repeat
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..common.binio import BinaryReader, BinaryWriter
from ..common.errors import CompressionError, FormatError
from ..obs import ledger as ledger_channel
from .stamp import CapsuleStamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..blockstore.blobsource import BlobSource

PAD = b"\x00"

#: Payload layouts.
LAYOUT_FIXED = 0
LAYOUT_VARIABLE = 1
LAYOUT_REGION = 2  # per-pattern regions of differing widths (dictionaries)

#: Codecs.  RAW is chosen automatically when compression does not pay off
#: (tiny Capsules), which both shrinks archives and speeds up queries.
#: ZLIB is the speed-tier choice: picked (opt-in) when LZMA's ratio edge
#: over zlib is below :data:`ZLIB_MARGIN`, trading a sliver of ratio for
#: much faster decompression on the query path.
CODEC_RAW = 0
CODEC_LZMA = 1
CODEC_ZLIB = 2

#: Speed-tier threshold: choose zlib when ``len(lzma) >= ZLIB_MARGIN *
#: len(zlib)`` — i.e. LZMA shrinks the payload less than 10% beyond zlib.
ZLIB_MARGIN = 0.9

_LZMA_FILTERS_BY_PRESET = {
    preset: [{"id": lzma.FILTER_LZMA2, "preset": preset}] for preset in range(10)
}

#: Smallest dictionary a fitted encoder gets.  liblzma sizes the match
#: finder's hash table from the dictionary, and a smaller table collides
#: more often, so a payload can come out a few bytes different from the
#: full-preset encoding.  At this floor that is rare (about 1 Capsule in
#: 400 at preset 1, none at preset 9, on the benchmark's logs); at 4 KiB
#: it is about 1 in 27.
_MIN_FITTED_DICT = 512 * 1024


def _preset_dict_size(preset: int) -> int:
    """The LZMA2 dictionary size liblzma's *preset* selects."""
    props = lzma._encode_filter_properties(  # type: ignore[attr-defined]
        {"id": lzma.FILTER_LZMA2, "preset": preset}
    )
    decoded = lzma._decode_filter_properties(  # type: ignore[attr-defined]
        lzma.FILTER_LZMA2, props
    )
    return int(decoded["dict_size"])


_PRESET_DICT_SIZE = {preset: _preset_dict_size(preset) for preset in range(10)}


def _lzma_filters_for(size: int, preset: int) -> List[dict]:
    """The encoder chain for a *size*-byte buffer at *preset*.

    Encoder setup allocates and clears the whole dictionary (64 MiB at
    preset 9) no matter how small the input, so the dictionary is cut to
    the next power of two that holds the buffer, floored at
    :data:`_MIN_FITTED_DICT` and capped at the preset's own.  Only the
    encoder changes: the stored ``preset`` byte still names the decoder
    chain, whose larger dictionary decodes any stream a smaller one wrote.
    """
    fitted = max(_MIN_FITTED_DICT, 1 << max(size - 1, 0).bit_length())
    dict_size = min(_PRESET_DICT_SIZE[preset], fitted)
    return [{"id": lzma.FILTER_LZMA2, "preset": preset, "dict_size": dict_size}]


def _lzma_compress(data: bytes, preset: int) -> bytes:
    # Raw streams avoid the ~60-byte .xz container per Capsule, which
    # matters because a CapsuleBox holds many small Capsules.
    return lzma.compress(
        data, format=lzma.FORMAT_RAW, filters=_lzma_filters_for(len(data), preset)
    )


def _lzma_decompress(data: bytes, preset: int) -> bytes:
    return lzma.decompress(
        data, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS_BY_PRESET[preset]
    )


class Capsule:
    """A compressed column of values plus its stamp.

    The payload is **lazy**: a capsule deserialized from a stored box
    holds only its byte extent and a :class:`BlobSource`; the compressed
    bytes are fetched on first access to :attr:`payload` (or in a batched
    prefetch, see ``CapsuleBox.prefetch``).  Capsules built by the packer
    hold their bytes directly and behave exactly as before.
    """

    __slots__ = (
        "layout", "width", "count", "stamp", "codec", "preset",
        "expected_crc", "_payload", "_source", "_extent", "_plain",
        "_offsets", "__weakref__",
    )

    def __init__(
        self,
        layout: int,
        width: int,  # padded value width (fixed layout); 0 for variable
        count: int,  # number of values
        stamp: CapsuleStamp,
        codec: int,
        preset: int,
        payload: Optional[bytes] = None,
        *,
        source: Optional["BlobSource"] = None,
        extent: Optional[Tuple[int, int]] = None,
    ):
        if payload is None and (source is None or extent is None):
            raise ValueError("capsule needs a payload or a (source, extent)")
        self.layout = layout
        self.width = width
        self.count = count
        self.stamp = stamp
        self.codec = codec
        self.preset = preset
        #: CRC32 recorded at serialization time (None for in-memory
        #: capsules); checked by :meth:`verify_payload`, not on the hot
        #: read path.
        self.expected_crc: Optional[int] = None
        self._payload: Optional[bytes] = payload
        self._source: Optional["BlobSource"] = source
        self._extent: Optional[Tuple[int, int]] = extent
        self._plain: Optional[bytes] = None
        self._offsets: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # lazy payload
    # ------------------------------------------------------------------
    @property
    def payload(self) -> bytes:
        """The compressed bytes, fetched from the source on first access."""
        if self._payload is None:
            assert self._source is not None and self._extent is not None
            offset, length = self._extent
            self._payload = self._source.read(offset, length)
            ledger_channel.charge_capsule_fetch(length)
        return self._payload

    @property
    def is_fetched(self) -> bool:
        """True once the compressed bytes are resident in memory."""
        return self._payload is not None

    @property
    def payload_extent(self) -> Optional[Tuple[int, int]]:
        """(offset, length) of the payload within its blob, if stored."""
        return self._extent

    def pin_payload(self, data: bytes) -> None:
        """Install prefetched payload bytes (batched ranged read)."""
        if self._extent is not None and len(data) != self._extent[1]:
            raise FormatError(
                f"prefetched payload is {len(data)} byte(s), "
                f"expected {self._extent[1]}"
            )
        if self._payload is None:
            self._payload = data
            ledger_channel.charge_capsule_fetch(len(data))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capsule):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.width == other.width
            and self.count == other.count
            and self.stamp == other.stamp
            and self.codec == other.codec
            and self.preset == other.preset
            and self.payload == other.payload
        )

    def __repr__(self) -> str:
        where = (
            f"payload={len(self._payload)}B"
            if self._payload is not None
            else f"extent={self._extent!r}"
        )
        return (
            f"Capsule(layout={self.layout}, width={self.width}, "
            f"count={self.count}, stamp={self.stamp!r}, "
            f"codec={self.codec}, preset={self.preset}, {where})"
        )

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def pack_fixed(
        cls,
        values: Sequence[str],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        width: Optional[int] = None,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack *values* NUL-padded to a common width (§5.2)."""
        encoded = _encode_values(values)
        if width is None:
            width = max(map(len, encoded), default=0)
        buf = _pad_join(encoded, width)
        stamp = stamp or CapsuleStamp.of_values(values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_FIXED, width, len(values), stamp, codec, preset, payload)

    @classmethod
    def pack_variable(
        cls,
        values: Sequence[str],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack *values* NUL-separated (the w/o-fixed ablation layout)."""
        buf = PAD.join(_encode_values(values))
        stamp = stamp or CapsuleStamp.of_values(values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_VARIABLE, 0, len(values), stamp, codec, preset, payload)

    @classmethod
    def pack_regions(
        cls,
        regions: Sequence[Sequence[str]],
        widths: Sequence[int],
        preset: int = 1,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack a dictionary vector: concatenated per-pattern padded regions.

        Each region's values are padded to that region's own width, so the
        start byte of region *j* is ``Σ_{i<j} count_i · width_i`` — exactly
        the direct-locating formula of §5.2.
        """
        all_values = list(chain.from_iterable(regions))
        encoded = _encode_values(all_values)
        parts: List[bytes] = []
        start = 0
        for region, width in zip(regions, widths):
            chunk = encoded[start : start + len(region)]
            start += len(region)
            if chunk and max(map(len, chunk)) > width:
                value = next(v for v, e in zip(region, chunk) if len(e) > width)
                raise CompressionError(
                    f"value {value!r} longer than its region width {width}"
                )
            parts.append(_pad_join(chunk, width))
        buf = b"".join(parts)
        stamp = CapsuleStamp.of_values(all_values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_REGION, 0, len(all_values), stamp, codec, preset, payload)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def plain(self) -> bytes:
        """The decompressed payload (cached after the first call).

        Corrupt payloads raise :class:`FormatError` — codec-specific
        exceptions never escape the storage layer.
        """
        if self._plain is None:
            try:
                if self.codec == CODEC_RAW:
                    self._plain = self.payload
                elif self.codec == CODEC_LZMA:
                    self._plain = _lzma_decompress(self.payload, self.preset)
                elif self.codec == CODEC_ZLIB:
                    self._plain = zlib.decompress(self.payload)
                else:
                    raise FormatError(f"unknown codec {self.codec}")
            except (lzma.LZMAError, zlib.error) as exc:
                raise FormatError(f"corrupt capsule payload: {exc}") from exc
        return self._plain

    def value_at(self, row: int) -> str:
        """Fetch one value; O(1) for the fixed layout."""
        if not 0 <= row < self.count:
            raise IndexError(f"row {row} out of range 0..{self.count - 1}")
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region offsets to fetch values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return ""
            start = row * self.width
            return plain[start : start + self.width].rstrip(PAD).decode("utf-8")
        offsets = self._variable_offsets()
        start = offsets[row]
        end = offsets[row + 1] - 1 if row + 1 < self.count else len(plain)
        return plain[start:end].decode("utf-8")

    def values(self) -> List[str]:
        """All values, decoded."""
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region metadata to list values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return [""] * self.count
            return [
                plain[i * self.width : (i + 1) * self.width].rstrip(PAD).decode("utf-8")
                for i in range(self.count)
            ]
        return [part.decode("utf-8") for part in self._variable_parts()]

    def values_bytes(self) -> List[bytes]:
        """All values as raw (unpadded) bytes — no UTF-8 decode.

        The byte-level scan paths use this to test rendered values without
        materializing strings; only surviving rows are ever decoded.
        """
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region metadata to list values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return [b""] * self.count
            return [
                plain[i * self.width : (i + 1) * self.width].rstrip(PAD)
                for i in range(self.count)
            ]
        return self._variable_parts()

    def _variable_parts(self) -> List[bytes]:
        """Split a NUL-separated payload, validating the value count.

        A truncated payload that still passed (or bypassed) the CRC check
        would otherwise silently yield the wrong number of rows; the count
        is part of the (separately checksummed) metadata, so a mismatch is
        definitive corruption.
        """
        plain = self.plain()
        if not self.count:
            return []
        parts = plain.split(PAD)
        if len(parts) != self.count:
            raise FormatError(
                f"variable capsule payload holds {len(parts)} value(s), "
                f"expected {self.count}"
            )
        return parts

    def region_value(self, offset_bytes: int, width: int) -> str:
        """Fetch one value of a region-packed dictionary Capsule."""
        plain = self.plain()
        return plain[offset_bytes : offset_bytes + width].rstrip(PAD).decode("utf-8")

    def _variable_offsets(self) -> List[int]:
        if self._offsets is None:
            plain = self.plain()
            offsets = [0]
            pos = plain.find(PAD)
            while pos != -1:
                offsets.append(pos + 1)
                pos = plain.find(PAD, pos + 1)
            self._offsets = offsets
        return self._offsets

    @property
    def compressed_bytes(self) -> int:
        # Stored size is known from the extent even before the bytes are
        # fetched — statistics must not force a payload read.
        if self._payload is None and self._extent is not None:
            return self._extent[1]
        return len(self.payload)

    @property
    def is_decompressed(self) -> bool:
        """True once :meth:`plain` has inflated (and cached) the payload."""
        return self._plain is not None

    def verify_payload(self) -> bool:
        """Check the payload against its recorded CRC32.

        True when no checksum was recorded (in-memory capsule) or the
        checksum matches; False signals on-disk corruption.
        """
        if self.expected_crc is None:
            return True
        return zlib.crc32(self.payload) == self.expected_crc

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def write(self, writer: BinaryWriter) -> None:
        writer.write_u8(self.layout)
        writer.write_varint(self.width)
        writer.write_varint(self.count)
        self.stamp.write(writer)
        writer.write_u8(self.codec)
        writer.write_u8(self.preset)
        writer.write_bytes(self.payload)

    @classmethod
    def read(cls, reader: BinaryReader) -> "Capsule":
        layout = reader.read_u8()
        width = reader.read_varint()
        count = reader.read_varint()
        stamp = CapsuleStamp.read(reader)
        codec = reader.read_u8()
        preset = reader.read_u8()
        payload = reader.read_bytes()
        return cls(layout, width, count, stamp, codec, preset, payload)


def _encode_values(values: Sequence[str]) -> List[bytes]:
    """UTF-8 encode *values* in one pass: NUL-join, encode, split.

    A value holding a NUL would add a separator, so one length check on
    the split catches it for the whole vector.
    """
    if not values:
        return []
    encoded = "\0".join(values).encode("utf-8").split(PAD)
    if len(encoded) != len(values):
        raise CompressionError("log values must not contain NUL bytes")
    return encoded


def _pad_join(encoded: Sequence[bytes], width: int) -> bytes:
    """Concatenate *encoded* values, each NUL-padded to *width*."""
    n = len(encoded)
    return b"".join(map(bytes.ljust, encoded, repeat(width, n), repeat(PAD, n)))


def _choose_codec(
    buf: bytes, preset: int, speed_tier: bool = False
) -> Tuple[int, bytes]:
    """Pick a codec for *buf*: LZMA unless the payload is tiny or
    incompressible.

    With ``speed_tier`` (config ``codec_speed_tier``, off by default so
    existing archives are byte-identical), zlib is preferred whenever
    LZMA's ratio edge over it is under :data:`ZLIB_MARGIN` — zlib inflates
    several times faster, which the query path pays on every Capsule the
    Locator could not filter.
    """
    if len(buf) < 32:
        return CODEC_RAW, buf
    if speed_tier and preset == 0:
        # Preset 0 on the speed tier means the caller wants the bytes
        # queryable *now* (the hot tail): paying an LZMA probe just to
        # discard it would roughly double the encode latency.
        payload = zlib.compress(buf, 1)
        if len(payload) >= len(buf):
            return CODEC_RAW, buf
        return CODEC_ZLIB, payload
    lzma_payload = _lzma_compress(buf, preset)
    codec, payload = CODEC_LZMA, lzma_payload
    if speed_tier:
        zlib_payload = zlib.compress(buf, 6)
        if len(lzma_payload) >= ZLIB_MARGIN * len(zlib_payload):
            codec, payload = CODEC_ZLIB, zlib_payload
    if len(payload) >= len(buf):
        return CODEC_RAW, buf
    return codec, payload
