"""Runtime-pattern model.

A *runtime pattern* (paper §2.3) is structure that appears within one
variable vector at run time — e.g. every value of a ``filepath`` variable
in a block matching ``/tmp/1FF8<*>.log``.  A pattern is a sequence of
constant fragments and **sub-variables**; all values of the same
sub-variable across the vector form a *sub-variable vector*, which becomes
its own Capsule (§4.2).

:meth:`RuntimePattern.match` splits a concrete value into its sub-values,
anchoring each constant at its first occurrence left-to-right — the same
greedy rule the tree-expanding extractor uses, so values the extractor
would have split are matched consistently.  The rule is compiled once per
pattern into an atomic regular expression, so matching a value is a
single C-level ``fullmatch``.  Values that do not match go to the outlier
Capsule; accuracy affects performance, never correctness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..common.binio import BinaryReader, BinaryWriter


@dataclass(frozen=True)
class Const:
    """A literal fragment of a runtime pattern."""

    text: str


@dataclass(frozen=True)
class SubVar:
    """A variable part of a runtime pattern (one ``<*>``).

    ``index`` is the sub-variable's ordinal within its pattern; it names the
    Capsule holding the corresponding sub-variable vector.
    """

    index: int


Element = Union[Const, SubVar]


class RuntimePattern:
    """An ordered mix of :class:`Const` and :class:`SubVar` elements."""

    __slots__ = ("elements", "_regex")

    def __init__(self, elements: Sequence[Element]):
        self.elements = list(_normalize(elements))
        self._regex: Optional["re.Pattern[str]"] = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_subvars(self) -> int:
        return sum(1 for el in self.elements if isinstance(el, SubVar))

    @property
    def is_trivial(self) -> bool:
        """True when the pattern is a single bare sub-variable (no structure
        was found — equivalent to the static-pattern-only encoding)."""
        return len(self.elements) == 1 and isinstance(self.elements[0], SubVar)

    @property
    def is_constant(self) -> bool:
        """True when the pattern has no sub-variables at all."""
        return self.num_subvars == 0

    def constant_text(self) -> str:
        """Concatenated constant fragments (for keyword-in-constant checks)."""
        return "".join(el.text for el in self.elements if isinstance(el, Const))

    def display(self) -> str:
        parts = []
        for el in self.elements:
            parts.append(el.text if isinstance(el, Const) else "<*>")
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RuntimePattern) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(tuple(self.elements))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RuntimePattern({self.display()!r})"

    # ------------------------------------------------------------------
    # value matching
    # ------------------------------------------------------------------
    def match(self, value: str) -> Optional[List[str]]:
        """Split *value* into sub-values, or None when it doesn't fit.

        Constants anchor greedily: a leading constant must be a prefix, a
        trailing constant a suffix, and interior constants bind to their
        first occurrence after the previous element.
        """
        regex = self._regex
        if regex is None:
            regex = self._regex = _compile(self.elements)
        found = regex.fullmatch(value)
        return None if found is None else list(found.groups())

    def render(self, subvalues: Sequence[str]) -> str:
        """Inverse of :meth:`match`."""
        out = []
        for el in self.elements:
            if isinstance(el, Const):
                out.append(el.text)
            else:
                out.append(subvalues[el.index])
        return "".join(out)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def write(self, writer: BinaryWriter) -> None:
        writer.write_varint(len(self.elements))
        for el in self.elements:
            if isinstance(el, Const):
                writer.write_u8(0)
                writer.write_str(el.text)
            else:
                writer.write_u8(1)
                writer.write_varint(el.index)

    @classmethod
    def read(cls, reader: BinaryReader) -> "RuntimePattern":
        count = reader.read_varint()
        elements: List[Element] = []
        for _ in range(count):
            kind = reader.read_u8()
            if kind == 0:
                elements.append(Const(reader.read_str()))
            else:
                elements.append(SubVar(reader.read_varint()))
        pattern = cls.__new__(cls)
        pattern.elements = elements
        pattern._regex = None
        return pattern


def _compile(elements: Sequence[Element]) -> "re.Pattern[str]":
    """Compile the greedy first-occurrence rule of :meth:`RuntimePattern.match`.

    A leading constant is a literal prefix and a trailing one a suffix
    (``(.*)C`` under ``fullmatch``).  An interior constant binds to its
    first occurrence after the previous element: ``(?>(.*?)C)`` takes the
    shortest run before it and the atomic group forbids backtracking to a
    later occurrence.  Of two adjacent sub-variables the first is empty,
    ``()``; a sub-variable left pending at the end takes the rest.
    """
    parts: List[str] = []
    last = len(elements) - 1
    pending = False  # a SubVar is waiting for its right boundary
    for i, el in enumerate(elements):
        if isinstance(el, SubVar):
            if pending:
                parts.append("()")
            pending = True
            continue
        text = re.escape(el.text)
        if i == 0:
            parts.append(text)
        elif i == last:
            parts.append(("(.*)" if pending else ".*") + text)
        else:
            parts.append("(?>" + ("(.*?)" if pending else ".*?") + text + ")")
        pending = False
    if pending:
        parts.append("(.*)")
    return re.compile("".join(parts), re.DOTALL)


def _normalize(elements: Sequence[Element]):
    """Merge adjacent constants, drop empty ones, renumber sub-variables."""
    merged: List[Element] = []
    next_index = 0
    for el in elements:
        if isinstance(el, Const):
            if not el.text:
                continue
            if merged and isinstance(merged[-1], Const):
                merged[-1] = Const(merged[-1].text + el.text)
            else:
                merged.append(el)
        else:
            merged.append(SubVar(next_index))
            next_index += 1
    return merged


def pattern_from_fragments(fragments: Sequence[Optional[str]]) -> RuntimePattern:
    """Build a pattern from a fragment list where ``None`` marks a sub-variable."""
    elements: List[Element] = []
    idx = 0
    for frag in fragments:
        if frag is None:
            elements.append(SubVar(idx))
            idx += 1
        else:
            elements.append(Const(frag))
    return RuntimePattern(elements)
