"""Seeded query families and the oracle that checks every answer.

Queries come per class from a dataset's own tokens, mirroring the bands
of :mod:`repro.workloads.queries` (template-hit, nominal, rare-id,
wildcard, numeric, negation, miss) but several per class, so latency
percentiles rest on many distinct queries rather than one per class.

Expected results come from :func:`repro.baselines.evalutil.line_matches`
over the generated lines.  A line can only match if every literal run of
some disjunct's positive keywords occurs in it, so that cheap substring
test picks the candidates ``line_matches`` then decides.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.evalutil import line_matches
from repro.query.language import parse_query

_RESERVED = frozenset(("and", "or", "not"))
_SPECIAL = frozenset("*?()\"'")

#: count-by fields per dataset and the regex that extracts each from a line.
FIELDS: Dict[str, Dict[str, "re.Pattern[str]"]] = {
    "Log A": {"state": re.compile(r"(?:^| )state:(\S+)")},
    "Log T": {"op": re.compile(r"(?:^| )op:(\S+)")},
}


@dataclass(frozen=True)
class Query:
    """One timed operation: a grep (``field`` None) or a count-by."""

    label: str
    command: str
    field: Optional[str] = None


def _usable(token: str) -> bool:
    return bool(token) and token.lower() not in _RESERVED and not (_SPECIAL & set(token))


def _token_counts(lines: Sequence[str]) -> Counter:
    counts: Counter = Counter()
    for line in lines:
        counts.update(line.split(" "))
    return counts


def _band(counts: Counter, n: int, lo: float, hi: float, predicate) -> List[str]:
    return sorted(
        token
        for token, count in counts.items()
        if lo * n <= count < hi * n and _usable(token) and predicate(token)
    )


def _draw(rng: random.Random, pool: Sequence[str], k: int) -> List[str]:
    """*k* picks from *pool*: distinct while the pool lasts, then cycling."""
    if not pool:
        return []
    picks = rng.sample(list(pool), min(k, len(pool)))
    while len(picks) < k:
        picks.append(picks[len(picks) % len(pool)])
    return picks


def _has_digit_and_alpha(token: str) -> bool:
    return any(c.isdigit() for c in token) and any(c.isalpha() for c in token)


def _all(pool: Sequence[str], k: int) -> List[str]:
    """Every token of a small band (the most frequent bands hold only a
    handful), cycled to *k* entries, so the mix does not hinge on the seed."""
    return [pool[i % len(pool)] for i in range(k)] if pool else []


def draw_queries(
    lines: Sequence[str], rng: random.Random, per_class: int, draws: Optional[int] = None
) -> List[Query]:
    """Grep commands of every class, from *lines*.

    The template-hit and nominal bands hold a few tokens, so every one of
    them is used (cycled to *per_class*, negation pairs likewise).  The
    rare-id, wildcard, numeric and miss classes have thousands of
    candidates, so they come from *rng*: *per_class* wildcards and
    *draws* (default *per_class*) of each of the cheap selective classes.
    More cheap queries than costly ones keep the median inside one
    latency cluster rather than on the gap between two.
    """
    draws = per_class if draws is None else draws
    counts = _token_counts(lines)
    n = len(lines)
    template = _band(counts, n, 0.3, 1.1, str.isalpha)
    nominal = _band(counts, n, 0.01, 0.2, str.isalpha)
    rare = _band(counts, n, 0, 2 / max(n, 1), _has_digit_and_alpha)
    numeric = _band(counts, n, 0, 0.01, str.isdigit)
    long_rare = [token for token in rare if len(token) >= 6]
    out: List[Query] = []
    out += [Query("template-hit", t) for t in _all(template, per_class)]
    out += [Query("nominal", t) for t in _all(nominal, per_class)]
    out += [Query("rare-id", t) for t in _draw(rng, rare, draws)]
    out += [
        Query("wildcard", t[:2] + "*" + t[-2:])
        for t in _draw(rng, long_rare, per_class)
    ]
    out += [Query("numeric", t) for t in _draw(rng, numeric, draws)]
    if template and nominal:
        out += [
            Query("negation", f"{t} not {m}")
            for t, m in zip(_all(template, per_class), _all(nominal[::-1], per_class))
        ]
    out += [
        Query("miss", f"zqx{rng.randrange(16 ** 8):08x}qxz")
        for _ in range(draws)
    ]
    return out


def draw_count_by(dataset: str, lines: Sequence[str], k: int) -> List[Query]:
    """*k* count-by aggregates over *dataset*'s fields, WHERE cycling
    through its nominal band (one in four unfiltered)."""
    fields = sorted(FIELDS.get(dataset, {}))
    if not fields:
        return []
    counts = _token_counts(lines)
    wheres = _all(_band(counts, len(lines), 0.01, 0.6, str.isalpha), k)
    return [
        Query("count-by", "" if i % 4 == 0 or not wheres else wheres[i], fields[i % len(fields)])
        for i in range(k)
    ]


class Oracle:
    """Expected answers over one dataset's generated lines."""

    def __init__(self, dataset: str, lines: Sequence[str]):
        self.dataset = dataset
        self.lines = lines
        self._ids: Dict[str, List[int]] = {}

    def ids(self, command: str) -> List[int]:
        """Ids of every line *command* matches (memoized per command)."""
        cached = self._ids.get(command)
        if cached is not None:
            return cached
        parsed = parse_query(command)
        candidates: Optional[set] = set()
        for disjunct in parsed.disjuncts:
            literals = [
                literal
                for term in disjunct
                if not term.negated
                for keyword in term.search.keywords
                for literal in keyword.literals()
            ]
            if not literals:
                candidates = None
                break
            candidates.update(
                i for i, line in enumerate(self.lines) if all(lit in line for lit in literals)
            )
        scan = range(len(self.lines)) if candidates is None else sorted(candidates)
        lines = self.lines
        ids = [i for i in scan if line_matches(parsed, lines[i])]
        self._ids[command] = ids
        return ids

    def count_by(self, field: str, where: str, limit: int) -> Counter:
        """``GROUP BY field COUNT(*)`` over the first *limit* lines."""
        pattern = FIELDS[self.dataset][field]
        rows = range(limit) if not where else self.ids(where)[: bisect_left(self.ids(where), limit)]
        counts: Counter = Counter()
        for i in rows:
            match = pattern.search(self.lines[i])
            if match:
                counts[match.group(1)] += 1
        return counts

    def check_grep(self, command: str, line_ids: Sequence[int], lines: Sequence[str], limit: Optional[int] = None) -> bool:
        """Does a grep answer equal the oracle's (over the first *limit* lines)?"""
        expected = self.ids(command)
        if limit is not None:
            expected = expected[: bisect_left(expected, limit)]
        if list(line_ids) != expected:
            return False
        source = self.lines
        return all(source[i] == text for i, text in zip(expected, lines))
