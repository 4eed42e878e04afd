"""Query-time views over encoded variable vectors.

A reader answers two questions about one variable vector of one group:

* ``search(fragment, mode)`` — which group rows could contain the
  fragment?  (Locator → stamp filter → fixed-length matching.)
* ``value_at(row)`` — the exact original value (for reconstruction).

Readers translate between *capsule row space* (rows stored in a Capsule,
excluding outliers) and *group row space* (entry rows of the group).

Candidate filtering runs on payload **bytes** (``settings.scan_kernel ==
"bytes"``, the default): the scan kernels of :mod:`repro.capsule.scan`
match fragments directly against the padded buffers, dictionary regions
are scanned in place with the §5.2 Σ count·width jump, and index Capsules
are compared slot-by-slot as raw byte cells.  Only rows that survive
matching are ever decoded, and those decoded columns are retained in the
bounded :class:`~repro.query.cache.CapsuleValueCache` so wildcard
verification, reconstruction and dictionary reads never re-decode the
same Capsule across queries.

Each reader also answers ``capsules_for(keyword, mode)`` — the stored
Capsules a search may read, as its stamps locate them — so the engine
can fetch a whole search term's payloads in one coalesced pass before
matching.  ``locate`` results are memoized per reader on ``(fragment,
mode)``: the pre-pass and the search share one enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..capsule import scan
from ..obs import ledger as ledger_channel
from ..capsule.assembler import (
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
)
from ..capsule.capsule import LAYOUT_FIXED, LAYOUT_REGION, Capsule
from ..capsule.stamp import CapsuleStamp
from ..common.rowset import RowSet
from ..common.textalgo import find_all
from ..runtime.pattern import Const, RuntimePattern
from .cache import get_value_cache
from .locator import TOO_COMPLEX, locate
from .matcher import search_capsule
from .modes import MatchMode, value_matches
from .stats import QueryStats, touch_capsule

from dataclasses import dataclass


@dataclass
class QuerySettings:
    """Per-query execution switches (see §6.3 ablations)."""

    use_stamps: bool = True
    engine: str = "native"
    #: "bytes" = direct byte-level kernels (repro.capsule.scan);
    #: "python" = the original per-position path over textalgo engines.
    scan_kernel: str = "bytes"


#: Memo miss marker (``locate`` may itself return None: TOO_COMPLEX).
_UNSET = object()


def _literal_runs(keyword) -> List[str]:
    """The case-sensitive literal runs a wildcard keyword narrows with
    (none under ``-i``: stamps and byte scans are case-sensitive)."""
    if getattr(keyword, "ignore_case", False):
        return []
    return [run for run in keyword.literals() if run]


def _cached_values(capsule: Capsule) -> List[str]:
    """Decoded values of *capsule* via the process-wide value cache."""
    return get_value_cache().get(capsule)


def _cached_value_at(capsule: Capsule, row: int) -> str:
    """One decoded value: cached column when present, O(1) fetch otherwise."""
    return get_value_cache().value_at(capsule, row)


class RealVectorReader:
    """Reader over a real variable vector (sub-variable Capsules)."""

    def __init__(
        self,
        encoded: RealEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows
        self._stamps: List[CapsuleStamp] = [
            capsule.stamp for capsule in encoded.subvar_capsules
        ]
        self._outlier_set = set(encoded.outlier_rows)
        self._matched_map: Optional[List[int]] = None  # capsule row → group row
        self._located: Dict[Tuple[str, MatchMode], object] = {}

    # ------------------------------------------------------------------
    def _locate(self, fragment: str, mode: MatchMode):
        """``locate`` over the runtime pattern, once per (fragment, mode)."""
        key = (fragment, mode)
        candidates = self._located.get(key, _UNSET)
        if candidates is _UNSET:
            candidates = self._located[key] = locate(
                self.encoded.pattern,
                self._stamps,
                fragment,
                mode,
                use_stamps=self.settings.use_stamps,
            )
        return candidates

    def capsules_for(self, keyword, mode: MatchMode) -> List[Capsule]:
        """The Capsules a search for *keyword* may read: the sub-variable
        Capsules its located candidates name (all of them when locating
        gave up) plus the outliers, which every search scans.  A wildcard
        reads every sub-variable Capsule to verify its candidates, unless
        the stamps prove one of its literal runs absent."""
        encoded = self.encoded
        out: List[Capsule] = []
        if encoded.outlier_capsule is not None:
            out.append(encoded.outlier_capsule)
        if not self._num_matched:
            return out
        if keyword.needs_regex:
            if all(
                self._locate(run, MatchMode.SUBSTRING) != []
                for run in _literal_runs(keyword)
            ):
                out.extend(encoded.subvar_capsules)
            return out
        candidates = self._locate(keyword.text, mode)
        if candidates is TOO_COMPLEX:
            out.extend(encoded.subvar_capsules)
            return out
        for candidate in candidates:  # type: ignore[attr-defined]
            if not candidate:
                break
            out.extend(encoded.subvar_capsules[subvar] for subvar, _, _ in candidate)
        return out

    def _matched_rows(self) -> List[int]:
        if self._matched_map is None:
            if not self._outlier_set:
                self._matched_map = list(range(self.num_rows))
            else:
                self._matched_map = [
                    row for row in range(self.num_rows) if row not in self._outlier_set
                ]
        return self._matched_map

    @property
    def _num_matched(self) -> int:
        return self.num_rows - len(self.encoded.outlier_rows)

    def _search_one(
        self,
        capsule: Capsule,
        fragment: str,
        mode: MatchMode,
        rows_hint: Optional[Sequence[int]] = None,
    ) -> RowSet:
        return search_capsule(
            capsule,
            fragment,
            mode,
            self.settings.engine,
            rows_hint=rows_hint,
            kernel=self.settings.scan_kernel,
        )

    # ------------------------------------------------------------------
    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        result = RowSet.empty(self.num_rows)
        self._search_matched(fragment, mode, result)
        self._search_outliers_plain(fragment, mode, result)
        return result

    def _search_matched(self, fragment: str, mode: MatchMode, result: RowSet) -> None:
        num_matched = self._num_matched
        if num_matched == 0:
            return
        encoded = self.encoded
        candidates = self._locate(fragment, mode)
        if candidates is TOO_COMPLEX:
            self.stats.fallback_scans += 1
            self._scan_matched(fragment, mode, result)
            return
        capsule_rows = RowSet.empty(num_matched)
        for candidate in candidates:
            self.stats.candidates_evaluated += 1
            if not candidate:
                capsule_rows = RowSet.full(num_matched)
                break
            current: Optional[RowSet] = None
            for subvar, frag, frag_mode in candidate:
                capsule = encoded.subvar_capsules[subvar]
                self.stats.capsules_considered += 1
                hint = None
                if (
                    current is not None
                    and capsule.layout == LAYOUT_FIXED
                    and len(current) <= 64
                ):
                    # §5.2 direct checking: probe only candidate rows.
                    hint = current.rows()
                touch_capsule(capsule, self.stats)
                rows = self._search_one(capsule, frag, frag_mode, rows_hint=hint)
                current = rows if current is None else current & rows
                if not current:
                    break
            if current:
                capsule_rows = capsule_rows | current
        if capsule_rows:
            mapping = self._matched_rows()
            for crow in capsule_rows:
                result.add(mapping[crow])

    def _scan_matched(self, fragment: str, mode: MatchMode, result: RowSet) -> None:
        """Correct-but-slow fallback: reconstruct and test every value.

        The bytes kernel renders and matches raw byte values — no UTF-8
        decode, no string materialization beyond one ``bytes`` join per
        row; the python kernel keeps the original string path.
        """
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        mapping = self._matched_rows()
        if self.settings.scan_kernel == "bytes":
            columns_b = [
                capsule.values_bytes() for capsule in encoded.subvar_capsules
            ]
            render_b = _byte_renderer(encoded.pattern, columns_b)
            needle = fragment.encode("utf-8")
            for crow in range(self._num_matched):
                if value_matches(render_b(crow), needle, mode):
                    result.add(mapping[crow])
            return
        columns = [_cached_values(capsule) for capsule in encoded.subvar_capsules]
        for crow in range(self._num_matched):
            value = encoded.pattern.render([col[crow] for col in columns])
            if value_matches(value, fragment, mode):
                result.add(mapping[crow])

    def _search_outliers_plain(
        self, fragment: str, mode: MatchMode, result: RowSet
    ) -> None:
        encoded = self.encoded
        if encoded.outlier_capsule is None:
            return
        # Outliers escaped the pattern, so every query must scan them.
        touch_capsule(encoded.outlier_capsule, self.stats)
        rows = self._search_one(encoded.outlier_capsule, fragment, mode)
        for orow in rows:
            result.add(encoded.outlier_rows[orow])

    # ------------------------------------------------------------------
    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        """Wildcard search: literal runs narrow the candidate rows through
        the normal pattern/stamp machinery (byte-level under the bytes
        kernel), then only those rows are decoded and regex-verified —
        the structured analogue of index-assisted wildcard matching."""
        result = RowSet.empty(self.num_rows)
        encoded = self.encoded
        regex = keyword.regex_for(mode)
        candidates = self._wildcard_candidates(keyword)
        if candidates is None:
            # No usable literal run: verify every matched row.
            if self._num_matched:
                mapping = self._matched_rows()
                for crow, value in enumerate(self._matched_values()):
                    if regex.search(value):
                        result.add(mapping[crow])
        elif candidates:
            for row in candidates:
                if regex.search(self.value_at(row)):
                    result.add(row)
        if encoded.outlier_capsule is not None:
            touch_capsule(encoded.outlier_capsule, self.stats)
            for orow, value in enumerate(_cached_values(encoded.outlier_capsule)):
                if regex.search(value):
                    result.add(encoded.outlier_rows[orow])
        return result

    def _wildcard_candidates(self, keyword) -> Optional[RowSet]:
        """Rows that contain every (case-sensitive) literal run of the
        keyword; None when no run is checkable."""
        literals = _literal_runs(keyword)
        if not literals:
            return None
        candidates: Optional[RowSet] = None
        result_space = RowSet.empty(self.num_rows)
        for run in literals:
            rows = RowSet.empty(self.num_rows)
            self._search_matched(run, MatchMode.SUBSTRING, rows)
            candidates = rows if candidates is None else candidates & rows
            if not candidates:
                self.stats.capsules_filtered += len(
                    self.encoded.subvar_capsules
                )
                return result_space
        return candidates

    def _matched_values(self) -> List[str]:
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        columns = [_cached_values(capsule) for capsule in encoded.subvar_capsules]
        render = encoded.pattern.render
        if not columns:
            return [render(())] * self._num_matched
        return [render(parts) for parts in zip(*columns)]

    # ------------------------------------------------------------------
    def value_at(self, row: int) -> str:
        encoded = self.encoded
        if row in self._outlier_set:
            pos = bisect_left(encoded.outlier_rows, row)
            return _cached_value_at(encoded.outlier_capsule, pos)
        crow = row - bisect_left(encoded.outlier_rows, row)
        subvalues = [
            _cached_value_at(capsule, crow) for capsule in encoded.subvar_capsules
        ]
        return encoded.pattern.render(subvalues)

    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None).

        Real vectors have no dictionary, so counting renders each row's
        sub-variable parts — this is the documented slow path of the
        Aggregate operator (its fast path is nominal index-cell
        counting).
        """
        if rows is None or rows.is_full():
            return Counter(self.values_list())
        return Counter(self.value_at(row) for row in rows)

    def values_list(self) -> List[str]:
        """Every value of the vector, decoded in bulk.

        Reconstruction of many rows amortizes one ``values()`` pass per
        Capsule instead of per-row fetches, and the decoded columns stay
        in the value cache for subsequent queries.
        """
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        columns = [_cached_values(capsule) for capsule in encoded.subvar_capsules]
        render = encoded.pattern.render
        matched = iter(zip(*columns)) if columns else iter(())
        if not self._outlier_set:
            if not columns:
                constant = render(())
                return [constant] * self.num_rows
            return [render(parts) for parts in matched]
        outliers = _cached_values(encoded.outlier_capsule)
        out: List[str] = []
        opos = 0
        for row in range(self.num_rows):
            if row in self._outlier_set:
                out.append(outliers[opos])
                opos += 1
            elif columns:
                out.append(render(next(matched)))
            else:
                out.append(render(()))
        return out


def _byte_renderer(
    pattern: RuntimePattern, columns: List[List[bytes]]
) -> Callable[[int], bytes]:
    """Row → rendered raw-bytes value, constants encoded exactly once."""
    pieces: List[Union[bytes, List[bytes]]] = [
        el.text.encode("utf-8") if isinstance(el, Const) else columns[el.index]
        for el in pattern.elements
    ]

    def render(crow: int) -> bytes:
        return b"".join(
            piece if isinstance(piece, bytes) else piece[crow]
            for piece in pieces
        )

    return render


class NominalVectorReader:
    """Reader over a nominal variable vector (dictionary + index)."""

    def __init__(
        self,
        encoded: NominalEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows
        self._region_slots: List[int] = []  # first slot of each pattern region
        slot = 0
        for dp in encoded.dict_patterns:
            self._region_slots.append(slot)
            slot += dp.count
        self._located: Dict[Tuple[str, MatchMode], List[object]] = {}

    # ------------------------------------------------------------------
    def _pattern_stamps(self, dp) -> List[CapsuleStamp]:
        return [
            CapsuleStamp(mask, maxlen)
            for mask, maxlen in zip(dp.subvar_masks, dp.subvar_maxlens)
        ]

    def _locate(self, fragment: str, mode: MatchMode) -> List[object]:
        """Per dictionary pattern, ``locate`` of the fragment — once per
        (fragment, mode)."""
        key = (fragment, mode)
        located = self._located.get(key)
        if located is None:
            located = self._located[key] = [
                locate(
                    dp.pattern,
                    self._pattern_stamps(dp),
                    fragment,
                    mode,
                    use_stamps=self.settings.use_stamps,
                )
                for dp in self.encoded.dict_patterns
            ]
        return located

    def capsules_for(self, keyword, mode: MatchMode) -> List[Capsule]:
        """The dictionary and index Capsules, unless no dictionary pattern
        can produce the keyword (then the search reads neither)."""
        encoded = self.encoded
        if not keyword.needs_regex and not any(
            candidates is TOO_COMPLEX or candidates
            for candidates in self._locate(keyword.text, mode)
        ):
            return []
        return [encoded.dict_capsule, encoded.index_capsule]

    def _decode_dict(self) -> List[str]:
        """Decode the whole dictionary (region metadata aware)."""
        encoded = self.encoded
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            return encoded.dict_capsule.values()
        values: List[str] = []
        byte = 0
        for dp in encoded.dict_patterns:
            for _ in range(dp.count):
                values.append(encoded.dict_capsule.region_value(byte, dp.width))
                byte += dp.width
        return values

    def _dict_values(self) -> List[str]:
        """The decoded dictionary, via the bounded CapsuleValueCache.

        This generalizes the per-reader dictionary memo that used to live
        here: the cache is shared across readers and queries and its
        entries die with the Capsule (BoxCache eviction).
        """
        encoded = self.encoded
        touch_capsule(encoded.dict_capsule, self.stats)
        return get_value_cache().get(encoded.dict_capsule, self._decode_dict)

    def _region_values(self, pattern_idx: int) -> List[str]:
        """Values of one pattern's region — a direct Σ count·width jump."""
        encoded = self.encoded
        dp = encoded.dict_patterns[pattern_idx]
        start = self._region_slots[pattern_idx]
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            return self._dict_values()[start : start + dp.count]
        cached = get_value_cache().peek(encoded.dict_capsule)
        if cached is not None:
            return cached[start : start + dp.count]
        touch_capsule(encoded.dict_capsule, self.stats)
        byte = encoded.region_start_byte(pattern_idx)
        out = []
        for _ in range(dp.count):
            out.append(encoded.dict_capsule.region_value(byte, dp.width))
            byte += dp.width
        return out

    # ------------------------------------------------------------------
    def matching_slots(self, fragment: str, mode: MatchMode) -> List[int]:
        """Dictionary slots whose value matches the fragment.

        Under the bytes kernel, each surviving pattern's region is scanned
        in place on the dictionary payload (§5.2 direct locating) — no
        dictionary entry is decoded at all.
        """
        encoded = self.encoded
        use_bytes = (
            self.settings.scan_kernel == "bytes"
            and encoded.dict_capsule.layout == LAYOUT_REGION
        )
        needle = fragment.encode("utf-8") if use_bytes else b""
        slots: List[int] = []
        located = self._locate(fragment, mode)
        for pattern_idx, dp in enumerate(encoded.dict_patterns):
            candidates = located[pattern_idx]
            if candidates is not TOO_COMPLEX and not candidates:
                self.stats.capsules_filtered += 1
                continue  # the pattern cannot produce the fragment
            base = self._region_slots[pattern_idx]
            if use_bytes:
                touch_capsule(encoded.dict_capsule, self.stats)
                plain = encoded.dict_capsule.plain()
                for local in scan.scan_region(
                    plain,
                    encoded.region_start_byte(pattern_idx),
                    dp.width,
                    dp.count,
                    needle,
                    mode.value,
                ):
                    slots.append(base + local)
                continue
            for local, value in enumerate(self._region_values(pattern_idx)):
                if value_matches(value, fragment, mode):
                    slots.append(base + local)
        return slots

    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        slots = self.matching_slots(fragment, mode)
        return self._rows_for_slots(slots)

    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        regex = keyword.regex_for(mode)
        slots = [
            slot
            for slot, value in enumerate(self._dict_values())
            if regex.search(value)
        ]
        return self._rows_for_slots(slots)

    def _rows_for_slots(self, slots: Sequence[int]) -> RowSet:
        encoded = self.encoded
        result = RowSet.empty(self.num_rows)
        if not slots:
            # The index Capsule is never decompressed — the dictionary
            # proved the keyword absent (§5.1).
            self.stats.capsules_filtered += 1
            return result
        touch_capsule(encoded.index_capsule, self.stats)
        width = encoded.index_width
        capsule = encoded.index_capsule
        use_bytes = self.settings.scan_kernel == "bytes"
        if capsule.layout == LAYOUT_FIXED and width > 0:
            buf = capsule.plain()
            if len(slots) <= 4:
                # Selective dictionary hit: search each index number (§5.1).
                for slot in slots:
                    target = str(slot).zfill(width).encode("utf-8")
                    if use_bytes:
                        for row in scan.scan_fixed(
                            buf, width, self.num_rows, target, scan.MODE_EXACT
                        ):
                            result.add(row)
                    else:
                        for pos in find_all(buf, target, self.settings.engine):
                            if pos % width == 0:
                                result.add(pos // width)
            else:
                # Unselective keyword: one row-wise membership pass beats
                # a separate scan per matching dictionary entry.
                targets = {
                    str(slot).zfill(width).encode("utf-8") for slot in slots
                }
                for row in range(self.num_rows):
                    if buf[row * width : (row + 1) * width] in targets:
                        result.add(row)
        elif use_bytes:
            # Variable-layout index (w/o-fixed ablation): compare raw byte
            # cells against the wanted (zero-filled) slot numbers, no decode.
            targets = {str(slot).zfill(width).encode("utf-8") for slot in slots}
            buf = capsule.plain()
            view = memoryview(buf)
            offsets = capsule._variable_offsets()
            n = capsule.count
            for row in range(n):
                start = offsets[row]
                end = offsets[row + 1] - 1 if row + 1 < n else len(buf)
                if view[start:end] in targets:
                    result.add(row)
        else:
            wanted = set(slots)
            for row, text in enumerate(capsule.values()):
                if int(text) in wanted:
                    result.add(row)
        return result

    # ------------------------------------------------------------------
    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None), counted
        on raw index cells — the §2 "dictionary is the group-by index"
        fast path.

        The index Capsule is tallied cell-by-cell on its raw payload (no
        per-row value is ever decoded), then only the dictionary slots
        that actually occur are resolved to their values — for a region
        dictionary via direct Σ count·width jumps, so payload decoding is
        proportional to the number of *distinct* values, not rows.
        """
        encoded = self.encoded
        capsule = encoded.index_capsule
        touch_capsule(capsule, self.stats)
        width = encoded.index_width
        buf = capsule.plain()
        cell_counts: "Counter[bytes]" = Counter()
        if capsule.layout == LAYOUT_FIXED and width > 0:
            if rows is None or rows.is_full():
                cell_counts.update(
                    buf[i : i + width]
                    for i in range(0, self.num_rows * width, width)
                )
            else:
                cell_counts.update(
                    buf[row * width : (row + 1) * width] for row in rows
                )
        else:
            # Variable-layout index (w/o-fixed ablation): slice raw cells
            # at the separator offsets, still without decoding.
            offsets = capsule._variable_offsets()
            n = capsule.count

            def cell(row: int) -> bytes:
                end = offsets[row + 1] - 1 if row + 1 < n else len(buf)
                return buf[offsets[row] : end]

            iter_rows: Sequence[int] = (
                range(n) if rows is None or rows.is_full() else list(rows)
            )
            cell_counts.update(cell(row) for row in iter_rows)
        counted = sum(cell_counts.values())
        ledger_channel.charge_rows_scanned(counted)
        out: "Counter[str]" = Counter()
        cached_dict = get_value_cache().peek(encoded.dict_capsule)
        for cell_bytes, n in cell_counts.items():
            slot = int(cell_bytes)
            value = (
                cached_dict[slot]
                if cached_dict is not None
                else self._slot_value(slot)
            )
            out[value] += n
        return out

    def _slot_value(self, slot: int) -> str:
        """Decode one dictionary slot without decoding the whole dict.

        Region dictionaries jump straight to the slot's fixed-width cell
        (§5.2); other layouts go through the value cache.
        """
        encoded = self.encoded
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            touch_capsule(encoded.dict_capsule, self.stats)
            return _cached_value_at(encoded.dict_capsule, slot)
        pattern_idx = bisect_right(self._region_slots, slot) - 1
        dp = encoded.dict_patterns[pattern_idx]
        local = slot - self._region_slots[pattern_idx]
        touch_capsule(encoded.dict_capsule, self.stats)
        byte = encoded.region_start_byte(pattern_idx) + local * dp.width
        return encoded.dict_capsule.region_value(byte, dp.width)

    def value_at(self, row: int) -> str:
        encoded = self.encoded
        touch_capsule(encoded.index_capsule, self.stats)
        slot = int(_cached_value_at(encoded.index_capsule, row))
        return self._dict_values()[slot]

    def values_list(self) -> List[str]:
        """Bulk decode: one dictionary pass + one index pass."""
        encoded = self.encoded
        touch_capsule(encoded.index_capsule, self.stats)
        dictionary = self._dict_values()
        return [
            dictionary[int(text)]
            for text in _cached_values(encoded.index_capsule)
        ]


class PlainVectorReader:
    """Reader over a whole-vector Capsule (§2.2's first attempt)."""

    def __init__(
        self,
        encoded: PlainEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows

    def capsules_for(self, keyword, mode: MatchMode) -> List[Capsule]:
        """The one Capsule, unless its stamp rules the keyword out."""
        capsule = self.encoded.capsule
        texts = _literal_runs(keyword) if keyword.needs_regex else [keyword.text]
        if self.settings.use_stamps and not all(map(capsule.stamp.admits, texts)):
            return []
        return [capsule]

    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        capsule = self.encoded.capsule
        self.stats.capsules_considered += 1
        if self.settings.use_stamps and not capsule.stamp.admits(fragment):
            self.stats.capsules_filtered += 1
            return RowSet.empty(self.num_rows)
        touch_capsule(capsule, self.stats)
        return search_capsule(
            capsule,
            fragment,
            mode,
            self.settings.engine,
            kernel=self.settings.scan_kernel,
        )

    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        capsule = self.encoded.capsule
        regex = keyword.regex_for(mode)
        result = RowSet.empty(self.num_rows)
        literals = _literal_runs(keyword)
        if literals and self.settings.use_stamps:
            if any(not capsule.stamp.admits(run) for run in literals):
                self.stats.capsules_filtered += 1
                return result
        touch_capsule(capsule, self.stats)
        if literals:
            # Narrow with the literal runs, verify only candidate rows.
            candidates: Optional[RowSet] = None
            for run in literals:
                rows = search_capsule(
                    capsule,
                    run,
                    MatchMode.SUBSTRING,
                    self.settings.engine,
                    kernel=self.settings.scan_kernel,
                )
                candidates = rows if candidates is None else candidates & rows
                if not candidates:
                    return result
            for row in candidates:
                if regex.search(_cached_value_at(capsule, row)):
                    result.add(row)
            return result
        for row, value in enumerate(_cached_values(capsule)):
            if regex.search(value):
                result.add(row)
        return result

    def value_at(self, row: int) -> str:
        return _cached_value_at(self.encoded.capsule, row)

    def values_list(self) -> List[str]:
        touch_capsule(self.encoded.capsule, self.stats)
        return _cached_values(self.encoded.capsule)

    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None).

        Plain vectors store the column verbatim, so counting decodes it
        (once, via the value cache) — no index cells to exploit.
        """
        if rows is None or rows.is_full():
            return Counter(self.values_list())
        return Counter(self.value_at(row) for row in rows)


def make_reader(encoded, settings: QuerySettings, stats: QueryStats):
    """Reader factory over the three encodings."""
    if isinstance(encoded, RealEncodedVector):
        return RealVectorReader(encoded, settings, stats)
    if isinstance(encoded, NominalEncodedVector):
        return NominalVectorReader(encoded, settings, stats)
    if isinstance(encoded, PlainEncodedVector):
        return PlainVectorReader(encoded, settings, stats)
    raise TypeError(f"unknown encoded vector {type(encoded)!r}")
