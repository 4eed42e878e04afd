"""Property tests for the whole-vector ingest kernels.

Each kernel is checked against the per-value loop it replaced; those
loops are kept here, verbatim in behaviour, as the oracles:

* compiled :meth:`RuntimePattern.match` against the greedy
  first-occurrence loop;
* :func:`type_mask_of_values` against the per-value fold;
* :meth:`Capsule.pack_fixed` against ``b"".join(e.ljust(w, PAD))``;
* :class:`TemplateMatcher` against the max-score scan.

The codec tests pin the compatibility contract of the fitted LZMA
dictionary: old payloads decode, new payloads decode with the unchanged
per-preset decoder chain, and the dictionary really is cut.
"""

from __future__ import annotations

import lzma
import random
from functools import reduce
from operator import or_
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule.capsule import (
    CODEC_LZMA,
    LAYOUT_FIXED,
    PAD,
    Capsule,
    _LZMA_FILTERS_BY_PRESET,
    _lzma_compress,
    _lzma_filters_for,
)
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.errors import CompressionError
from repro.runtime.pattern import Const, Element, RuntimePattern, SubVar
from repro.staticparse.template import Template, TemplateMatcher

# A small alphabet makes repeated constants and accidental occurrences
# common; "\n" and non-ASCII characters cover what ``.`` and byte
# offsets could get wrong.
ALPHABET = "ab/.-\né€"
texts = st.text(alphabet=ALPHABET, max_size=8)


# ----------------------------------------------------------------------
# oracles: the per-value loops the kernels replaced
# ----------------------------------------------------------------------
def greedy_match(elements: Sequence[Element], value: str) -> Optional[List[str]]:
    n = len(elements)
    subvalues: List[str] = []
    pos = 0
    pending_subvar = False
    for i, el in enumerate(elements):
        if isinstance(el, SubVar):
            if pending_subvar:
                subvalues.append("")
            pending_subvar = True
            continue
        text = el.text
        if i == 0:
            if not value.startswith(text):
                return None
            pos = len(text)
        elif i == n - 1:
            if not value.endswith(text) or len(value) - len(text) < pos:
                return None
            if pending_subvar:
                subvalues.append(value[pos : len(value) - len(text)])
                pending_subvar = False
            pos = len(value)
        else:
            found = value.find(text, pos)
            if found == -1:
                return None
            if pending_subvar:
                subvalues.append(value[pos:found])
                pending_subvar = False
            pos = found + len(text)
    if pending_subvar:
        subvalues.append(value[pos:])
        pos = len(value)
    if pos != len(value):
        return None
    return subvalues


def folded_type_mask(values: Sequence[str]) -> int:
    return reduce(or_, map(chartypes.type_mask, values), 0)


def max_score_match(
    candidates: Sequence[Template], tokens: Sequence[str]
) -> Optional[Template]:
    best = None
    best_score = -1
    for template in candidates:
        if not template.matches(tokens):
            continue
        score = sum(1 for tok in template.tokens if tok is not None)
        if score > best_score:
            best, best_score = template, score
    return best


# ----------------------------------------------------------------------
# runtime patterns
# ----------------------------------------------------------------------
elements_st = st.lists(
    st.one_of(texts.map(Const), st.just(SubVar(0))), max_size=6
)


def unnormalized(elements: Sequence[Element]) -> RuntimePattern:
    """A pattern holding *elements* as given (adjacent or empty constants
    included), the way :meth:`RuntimePattern.read` would load it."""
    writer = BinaryWriter()
    writer.write_varint(len(elements))
    for el in elements:
        if isinstance(el, Const):
            writer.write_u8(0)
            writer.write_str(el.text)
        else:
            writer.write_u8(1)
            writer.write_varint(el.index)
    return RuntimePattern.read(BinaryReader(writer.getvalue()))


@st.composite
def pattern_and_value(draw):
    pattern = RuntimePattern(draw(elements_st))
    if draw(st.booleans()):
        # Render the pattern so most values fit; sub-values drawn from the
        # same alphabet repeat the constants and move the first occurrence.
        value = pattern.render(
            [draw(texts) for _ in range(pattern.num_subvars)]
        )
    else:
        value = draw(st.text(alphabet=ALPHABET, max_size=16))
    return pattern, value


class TestCompiledPatternMatch:
    @settings(max_examples=600, deadline=None)
    @given(pattern_and_value())
    def test_matches_greedy_loop(self, case):
        pattern, value = case
        assert pattern.match(value) == greedy_match(pattern.elements, value)

    @settings(max_examples=300, deadline=None)
    @given(elements_st, st.text(alphabet=ALPHABET, max_size=16))
    def test_unnormalized_elements_match_greedy_loop(self, elements, value):
        pattern = unnormalized(elements)
        assert pattern.match(value) == greedy_match(elements, value)

    def test_interior_constant_binds_first_occurrence(self):
        p = RuntimePattern([SubVar(0), Const("."), SubVar(1), Const(".log")])
        assert p.match("a.b.c.log") == ["a", "b.c"]
        assert greedy_match(p.elements, "a.b.c.log") == ["a", "b.c"]

    def test_adjacent_subvars_give_empty_first(self):
        p = RuntimePattern([Const("x"), SubVar(0), SubVar(1), Const("-"), SubVar(2)])
        assert p.match("xab-\né") == ["", "ab", "\né"]

    def test_newline_and_non_ascii_values(self):
        p = RuntimePattern([Const("€"), SubVar(0), Const("\n"), SubVar(1)])
        assert p.match("€a\nb\nc") == ["a", "b\nc"]
        assert p.match("a\nb") is None

    def test_suffix_may_not_overlap_prefix(self):
        p = RuntimePattern([Const("ab"), SubVar(0), Const("ba")])
        assert p.match("aba") is None
        assert p.match("abba") == [""]

    def test_constant_only_pattern(self):
        p = RuntimePattern([Const("abc")])
        assert p.match("abc") == []
        assert p.match("abcd") is None

    def test_read_pattern_matches_like_built(self):
        p = RuntimePattern([SubVar(0), Const("/"), SubVar(1)])
        writer = BinaryWriter()
        p.write(writer)
        loaded = RuntimePattern.read(BinaryReader(writer.getvalue()))
        assert loaded.match("a/b/c") == p.match("a/b/c") == ["a", "b/c"]


# ----------------------------------------------------------------------
# stamps
# ----------------------------------------------------------------------
class TestTypeMaskOfValues:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.text(max_size=12), max_size=10))
    def test_matches_per_value_fold(self, values):
        assert chartypes.type_mask_of_values(values) == folded_type_mask(values)

    @given(st.lists(st.text(max_size=12), max_size=10))
    def test_stamp_of_values(self, values):
        stamp = CapsuleStamp.of_values(values)
        assert stamp.type_mask == folded_type_mask(values)
        assert stamp.max_len == max((len(v) for v in values), default=0)


# ----------------------------------------------------------------------
# fixed-width packing
# ----------------------------------------------------------------------
class TestPackFixed:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(max_size=10).filter(lambda v: "\0" not in v), max_size=12))
    def test_payload_and_width_match_per_value_padding(self, values):
        encoded = [v.encode("utf-8") for v in values]
        width = max((len(e) for e in encoded), default=0)
        capsule = Capsule.pack_fixed(values)
        assert capsule.width == width
        assert capsule.count == len(values)
        assert capsule.plain() == b"".join(e.ljust(width, PAD) for e in encoded)
        assert capsule.values() == list(values)

    @given(st.lists(texts, min_size=1, max_size=8), st.integers(0, 4))
    def test_explicit_width(self, values, extra):
        encoded = [v.encode("utf-8") for v in values]
        width = max(len(e) for e in encoded) + extra
        capsule = Capsule.pack_fixed(values, width=width)
        assert capsule.width == width
        assert capsule.plain() == b"".join(e.ljust(width, PAD) for e in encoded)

    @pytest.mark.parametrize(
        "values", [["a\0b"], ["ok", "\0"], ["x", "y", "é\0"], ["\0\0"]]
    )
    def test_nul_value_raises(self, values):
        with pytest.raises(CompressionError):
            Capsule.pack_fixed(values)
        with pytest.raises(CompressionError):
            Capsule.pack_variable(values)

    def test_empty_vector(self):
        capsule = Capsule.pack_fixed([])
        assert (capsule.width, capsule.count, capsule.plain()) == (0, 0, b"")

    def test_regions_pad_each_to_its_width(self):
        capsule = Capsule.pack_regions([["é", "ab"], ["xyz"]], [2, 4])
        assert capsule.plain() == b"\xc3\xa9ab" + b"xyz\0"
        with pytest.raises(CompressionError):
            Capsule.pack_regions([["abc"]], [2])


# ----------------------------------------------------------------------
# template assignment
# ----------------------------------------------------------------------
tokens_st = st.sampled_from(["a", "b", "c"])
template_tokens_st = st.lists(st.one_of(tokens_st, st.none()), min_size=1, max_size=4)


class TestTemplateMatcher:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(template_tokens_st, max_size=12),
        st.lists(st.lists(tokens_st, min_size=1, max_size=4), min_size=1, max_size=8),
        st.integers(0, 12),
    )
    def test_matches_max_score_scan(self, shapes, lines, split):
        # Duplicate shapes and equal constant counts make ties common; the
        # scan keeps the earliest, and so must the ranking.  Templates
        # added after construction rank exactly as if listed up front.
        templates = [Template(i, list(t)) for i, t in enumerate(shapes)]
        matcher = TemplateMatcher(templates[:split])
        for template in templates[split:]:
            matcher.add(template)
        for tokens in lines:
            expected = max_score_match(
                [t for t in templates if t.num_tokens == len(tokens)], tokens
            )
            assert matcher.match(tokens) is expected

    def test_equal_scores_keep_first(self):
        first = Template(0, ["a", None])
        second = Template(1, [None, "b"])
        matcher = TemplateMatcher([first, second])
        assert matcher.match(["a", "b"]) is first


# ----------------------------------------------------------------------
# codec compatibility
# ----------------------------------------------------------------------
def _log_buffer(size: int, seed: int = 7) -> bytes:
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        out += f"blk_{rng.randrange(10**6):06d}.{rng.choice(['SUC', 'ERR'])}\0".encode()
    return bytes(out[:size])


def _capsule(payload: bytes, preset: int, plain_len: int) -> Capsule:
    return Capsule(
        LAYOUT_FIXED, 1, plain_len, CapsuleStamp.permissive(), CODEC_LZMA,
        preset, payload,
    )


class TestFittedCodec:
    @pytest.mark.parametrize("preset", [0, 1, 6, 9])
    def test_full_preset_payload_decodes(self, preset):
        buf = _log_buffer(20_000)
        old = lzma.compress(
            buf, format=lzma.FORMAT_RAW,
            filters=[{"id": lzma.FILTER_LZMA2, "preset": preset}],
        )
        assert _capsule(old, preset, len(buf)).plain() == buf

    @pytest.mark.parametrize(
        "preset, size", [(0, 5_000), (1, 5_000), (6, 40_000), (9, 1_000), (9, 700_000)]
    )
    def test_fitted_payload_decodes_with_preset_chain(self, preset, size):
        buf = _log_buffer(size)
        payload = _lzma_compress(buf, preset)
        assert lzma.decompress(
            payload, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS_BY_PRESET[preset]
        ) == buf
        assert _capsule(payload, preset, len(buf)).plain() == buf

    def test_small_buffer_dictionary_is_cut(self):
        (chain,) = _lzma_filters_for(1024, 9)
        assert chain["dict_size"] <= 512 * 1024
        assert chain["preset"] == 9

    def test_dictionary_never_exceeds_preset(self):
        assert _lzma_filters_for(1024, 0)[0]["dict_size"] == 256 * 1024
        assert _lzma_filters_for(3 << 20, 1)[0]["dict_size"] == 1 << 20
        assert _lzma_filters_for(600_000, 9)[0]["dict_size"] == 1 << 20
