"""Per-block query execution.

The engine evaluates a parsed query command over one CapsuleBox.  For each
group (static pattern) it matches every search string at the token level:

* a single-keyword search string matches an entry when the keyword occurs
  as a substring of *any* token (constants checked directly, variables via
  their vector readers);
* a multi-keyword search string must match a window of *consecutive*
  tokens: the first keyword as a token suffix, interior keywords exactly,
  the last as a token prefix — i.e. plain grep substring semantics lifted
  onto the token model.

Results are row sets per group, combined with the query's logical
operators, and finally handed to the Reconstructor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..capsule.box import CapsuleBox, GroupBox
from ..common.rowset import RowSet
from .language import Keyword, QueryCommand, SearchString
from .modes import MatchMode
from .plan import QueryPlan, build_plan
from .stats import QueryStats
from .vectors import QuerySettings, make_reader

#: Block-level result: group index → matching entry rows.
GroupRows = Dict[int, RowSet]

#: One variable test: (variable ordinal, keyword, match mode).
VarCheck = Tuple[int, Keyword, MatchMode]

#: Resolver hook used for the query cache: maps a search string to its
#: block-level result (the engine's ``search_string_rows`` by default).
Resolver = Callable[[SearchString], GroupRows]


class BlockEngine:
    """Query executor bound to one deserialized CapsuleBox."""

    def __init__(
        self,
        box: CapsuleBox,
        settings: Optional[QuerySettings] = None,
        stats: Optional[QueryStats] = None,
    ):
        self.box = box
        self.settings = settings or QuerySettings()
        self.stats = stats if stats is not None else QueryStats()
        self._readers: Dict[Tuple[int, int], object] = {}
        # token position → variable ordinal, per group
        self._var_ordinals: List[Dict[int, int]] = [
            {pos: k for k, pos in enumerate(group.template.var_positions)}
            for group in box.groups
        ]

    # ------------------------------------------------------------------
    @property
    def readers(self) -> Dict[Tuple[int, int], object]:
        """The (group, var) → vector-reader cache.

        Shared with the Reconstructor so Capsules decompressed during
        matching are reused for reconstruction.
        """
        return self._readers

    def reader(self, group_idx: int, var_idx: int):
        key = (group_idx, var_idx)
        reader = self._readers.get(key)
        if reader is None:
            encoded = self.box.groups[group_idx].vectors[var_idx]
            reader = make_reader(encoded, self.settings, self.stats)
            self._readers[key] = reader
        return reader

    # ------------------------------------------------------------------
    def execute(
        self,
        command: Union[QueryCommand, QueryPlan],
        resolver: Optional[Resolver] = None,
    ) -> GroupRows:
        """Evaluate a planned command; returns matching rows per group.

        A raw :class:`QueryCommand` is planned on the spot; callers that
        run one plan over many blocks (the executor, the cluster) build
        the :class:`QueryPlan` once and pass it directly, so term ordering
        is decided a single time per query.
        """
        plan = command if isinstance(command, QueryPlan) else build_plan(command)
        resolve = resolver or self.search_string_rows
        total: GroupRows = {}
        for disjunct in plan.disjuncts:
            acc = self.full_rows()
            for term in disjunct.terms:
                rows = resolve(term.search)
                if term.negated:
                    acc = _difference(acc, rows)
                else:
                    acc = _intersect(acc, rows)
                if not acc:
                    break
            total = _union(total, acc)
        return {g: rs for g, rs in total.items() if rs}

    def full_rows(self) -> GroupRows:
        """Every row of every non-empty group — the identity of the
        row-set algebra, and the row source for unfiltered aggregates
        (``agg count-by`` with no WHERE)."""
        return {
            g: RowSet.full(group.num_entries)
            for g, group in enumerate(self.box.groups)
            if group.num_entries
        }

    # ------------------------------------------------------------------
    def search_string_rows(self, search: SearchString) -> GroupRows:
        """Block-level match of one search string, in three steps: the
        free constant tests reduce every group to alternative windows of
        variable checks; the Capsules those checks locate by stamp are
        fetched in one coalesced pass (on a box read through ranged
        reads — a store request per Capsule otherwise); then the checks
        run, with the usual early exits."""
        windows = [
            self._windows(group_idx, group, search)
            for group_idx, group in enumerate(self.box.groups)
        ]
        if self.box.fetches_lazily:
            self.box.fetch(
                capsule
                for group_idx, group_windows in enumerate(windows)
                for checks in group_windows
                for var_idx, keyword, mode in checks
                for capsule in self.reader(group_idx, var_idx).capsules_for(
                    keyword, mode
                )
            )
        out: GroupRows = {}
        for group_idx, group_windows in enumerate(windows):
            rows = self._match_windows(group_idx, group_windows)
            if rows:
                out[group_idx] = rows
        return out

    def _windows(
        self, group_idx: int, group: GroupBox, search: SearchString
    ) -> List[List[VarCheck]]:
        """The group's matching alternatives after the constant tests:
        each window is the list of variable checks that must all hold
        (an empty window matches every row).

        A single keyword matches any token by substring, so one constant
        hit makes the window ``[]`` and every variable is its own
        alternative.  A multi-keyword string matches *consecutive*
        tokens — first as a suffix, interior exactly, last as a prefix —
        and a window survives only if all its constants match.
        """
        keywords = search.keywords
        tokens = group.template.tokens
        ordinals = self._var_ordinals[group_idx]
        k = len(keywords)
        if k == 1:
            keyword = keywords[0]
            singles: List[List[VarCheck]] = []
            for pos, token in enumerate(tokens):
                if token is None:
                    singles.append([(ordinals[pos], keyword, MatchMode.SUBSTRING)])
                elif _const_matches(token, keyword, MatchMode.SUBSTRING):
                    return [[]]
            return singles
        windows: List[List[VarCheck]] = []
        for start in range(0, len(tokens) - k + 1):
            checks: List[VarCheck] = []
            for j, keyword in enumerate(keywords):
                mode = _mode_for(j, k)
                token = tokens[start + j]
                if token is None:
                    checks.append((ordinals[start + j], keyword, mode))
                elif not _const_matches(token, keyword, mode):
                    break
            else:
                windows.append(checks)
        return windows

    def _match_windows(
        self, group_idx: int, windows: List[List[VarCheck]]
    ) -> RowSet:
        """OR over the windows of the AND of each window's checks."""
        n = self.box.groups[group_idx].num_entries
        result = RowSet.empty(n)
        for checks in windows:
            acc = RowSet.full(n)
            for var_idx, keyword, mode in checks:
                acc = acc & self._search_var(group_idx, var_idx, keyword, mode)
                if not acc:
                    break
            if acc:
                result = result | acc
                if result.is_full():
                    break
        return result

    def _search_var(
        self, group_idx: int, var_idx: int, keyword: Keyword, mode: MatchMode
    ) -> RowSet:
        reader = self.reader(group_idx, var_idx)
        if keyword.needs_regex:
            return reader.search_wildcard(keyword, mode)
        return reader.search(keyword.text, mode)


def _mode_for(j: int, k: int) -> MatchMode:
    if k == 1:
        return MatchMode.SUBSTRING
    if j == 0:
        return MatchMode.SUFFIX
    if j == k - 1:
        return MatchMode.PREFIX
    return MatchMode.EXACT


def _const_matches(token: str, keyword: Keyword, mode: MatchMode) -> bool:
    if keyword.needs_regex:
        return keyword.regex_for(mode).search(token) is not None
    text = keyword.text
    if mode is MatchMode.EXACT:
        return token == text
    if mode is MatchMode.PREFIX:
        return token.startswith(text)
    if mode is MatchMode.SUFFIX:
        return token.endswith(text)
    return text in token


# ----------------------------------------------------------------------
# group-rows algebra
# ----------------------------------------------------------------------
def _intersect(a: GroupRows, b: GroupRows) -> GroupRows:
    return {g: a[g] & b[g] for g in a.keys() & b.keys() if a[g] & b[g]}


def _union(a: GroupRows, b: GroupRows) -> GroupRows:
    out = dict(a)
    for g, rows in b.items():
        out[g] = (out[g] | rows) if g in out else rows
    return {g: rs for g, rs in out.items() if rs}


def _difference(a: GroupRows, b: GroupRows) -> GroupRows:
    out = {}
    for g, rows in a.items():
        remainder = rows - b[g] if g in b else rows
        if remainder:
            out[g] = remainder
    return out
