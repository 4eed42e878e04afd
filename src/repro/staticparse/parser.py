"""Block parser: raw lines → groups of variable vectors.

After templates are mined on a sample (:mod:`repro.staticparse.miner`), the
parser assigns *every* line of the block to a template and collects, per
template, the values of each variable slot into a **variable vector** — the
fine-grained partition the whole LogGrep design is built on (paper §2.2).
All variable vectors of the same static pattern form a **group**; a group
also remembers each entry's global line id so reconstruction can restore
the total order across groups (the paper merges on timestamps; line ids
give the identical order).

Lines that match no mined template are mined in a second pass, so parsing
always covers 100% of the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..common.sampling import DEFAULT_SAMPLE_RATE, sample
from ..common.tokenizer import tokenize
from ..obs.trace import get_tracer
from .cache import TemplateCache, TemplateKey, template_key
from .miner import DEFAULT_SIMILARITY, TemplateMiner
from .template import Template, TemplateMatcher

#: Default fraction of unmatched lines above which a warm-started parse
#: distrusts the cache and re-mines the whole block (drift guard).
DEFAULT_DRIFT_THRESHOLD = 0.3


@dataclass
class Group:
    """All entries of one static pattern within a block.

    ``variable_vectors[k][r]`` is the value of variable slot ``k`` in the
    group's ``r``-th entry; ``line_ids[r]`` is that entry's index within the
    block (0-based), which doubles as the logical timestamp.
    """

    template: Template
    line_ids: List[int] = field(default_factory=list)
    variable_vectors: List[List[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.variable_vectors:
            self.variable_vectors = [[] for _ in range(self.template.num_variables)]

    @property
    def num_entries(self) -> int:
        return len(self.line_ids)

    def append(self, line_id: int, values: Sequence[str]) -> None:
        self.line_ids.append(line_id)
        for vector, value in zip(self.variable_vectors, values):
            vector.append(value)

    def render_entry(self, row: int) -> str:
        """Rebuild the original text of the group's *row*-th entry."""
        values = [vector[row] for vector in self.variable_vectors]
        return self.template.render(values)


@dataclass
class ParsedBlock:
    """The result of parsing one log block."""

    templates: List[Template]
    groups: List[Group]
    num_lines: int

    def group_for(self, template_id: int) -> Group:
        for group in self.groups:
            if group.template.template_id == template_id:
                return group
        raise KeyError(f"no group for template {template_id}")

    def all_variable_vectors(self) -> List[List[str]]:
        out: List[List[str]] = []
        for group in self.groups:
            out.extend(group.variable_vectors)
        return out


@dataclass
class ParseOutcome:
    """What the template warm-start contributed to one block's parse."""

    total_lines: int
    cache_hits: int  # lines assigned to a cached template
    cache_misses: int  # lines that fell through to fallback mining
    remined: bool  # drift guard tripped: the whole block was re-mined
    new_templates: int  # templates this block added to the cache

    @property
    def hit_rate(self) -> float:
        if not self.total_lines:
            return 0.0
        return self.cache_hits / self.total_lines


class BlockParser:
    """Two-pass parser: sample-mined templates, then full assignment.

    ``miner`` selects the template-mining family: ``"drain"`` (the
    default, Drain-style similarity clustering — LogReducer's behaviour)
    or ``"slct"`` (SLCT-style frequent-token mining).  Parser choice only
    shifts compression/query performance; reconstruction stays exact.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        similarity: float = DEFAULT_SIMILARITY,
        seed: int = 0,
        miner: str = "drain",
    ):
        if miner not in ("drain", "slct"):
            raise ValueError(f"unknown miner {miner!r}; pick 'drain' or 'slct'")
        self.sample_rate = sample_rate
        self.similarity = similarity
        self.seed = seed
        self.miner = miner

    def _make_miner(self):
        if self.miner == "slct":
            from .slct import SlctMiner

            return SlctMiner()
        return TemplateMiner(self.similarity)

    def parse(self, lines: Sequence[str]) -> ParsedBlock:
        """Parse every line of a block into groups."""
        token_lines = [tokenize(line) for line in lines]

        miner = self._make_miner()
        for tokens in sample(token_lines, self.sample_rate, self.seed):
            miner.observe(tokens)
        templates = miner.templates()
        matcher = TemplateMatcher(templates)

        assignments: List[int] = [-1] * len(token_lines)
        unmatched: List[int] = []
        for line_id, tokens in enumerate(token_lines):
            template = matcher.match(tokens)
            if template is None:
                unmatched.append(line_id)
            else:
                assignments[line_id] = template.template_id

        if unmatched:
            # The sample missed these shapes entirely: mine them separately.
            extra_miner = self._make_miner()
            for line_id in unmatched:
                extra_miner.observe(token_lines[line_id])
            extras = extra_miner.templates(first_id=len(templates))
            for template in extras:
                matcher.add(template)
            templates.extend(extras)
            still: List[int] = []
            for line_id in unmatched:
                tokens = token_lines[line_id]
                template = matcher.match(tokens)
                if template is None:
                    still.append(line_id)
                else:
                    assignments[line_id] = template.template_id
            for line_id in still:
                # Last resort: an all-variable template of the right width.
                tokens = token_lines[line_id]
                catch_all = Template(len(templates), [None] * len(tokens))
                templates.append(catch_all)
                matcher.add(catch_all)
                assignments[line_id] = catch_all.template_id

        groups: Dict[int, Group] = {}
        for line_id, tokens in enumerate(token_lines):
            template = templates[assignments[line_id]]
            group = groups.get(template.template_id)
            if group is None:
                group = Group(template)
                groups[template.template_id] = group
            group.append(line_id, template.extract(tokens))

        ordered = [groups[tid] for tid in sorted(groups)]
        used_templates = [group.template for group in ordered]
        return ParsedBlock(used_templates, ordered, len(lines))

    def parse_cached(
        self,
        lines: Sequence[str],
        cache: TemplateCache,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> Tuple[ParsedBlock, ParseOutcome]:
        """Warm-started parse: assign against *cache*, mine only the rest.

        Lines are first matched against the cached templates (mined from
        earlier blocks of the stream); only lines no cached template
        matches are mined, exactly like :meth:`parse`'s second pass.  A
        drift guard distrusts the cache when the unmatched fraction
        exceeds *drift_threshold* and re-mines the whole block from
        scratch (log format changed, or the cache is cold).  Newly mined
        templates are merged back into the cache either way.

        Determinism: the result depends only on *lines* and the cache
        contents — callers that mutate the cache in block order (the
        compression scheduler's ordered parse stage) get byte-identical
        archives for any worker count.
        """
        tracer = get_tracer()
        token_lines = [tokenize(line) for line in lines]
        snapshot = cache.snapshot()
        templates = [Template(i, list(key)) for i, key in enumerate(snapshot)]
        matcher = TemplateMatcher(templates)

        assignments: List[int] = [-1] * len(token_lines)
        unmatched: List[int] = []
        with tracer.span("parse_cached", cached_templates=len(templates)) as wspan:
            for line_id, tokens in enumerate(token_lines):
                template = matcher.match(tokens)
                if template is None:
                    unmatched.append(line_id)
                else:
                    assignments[line_id] = template.template_id
            hits = len(token_lines) - len(unmatched)
            wspan.set("hits", hits).set("misses", len(unmatched))

        if token_lines and len(unmatched) / len(token_lines) > drift_threshold:
            # Drift guard: the cache no longer describes this stream (or
            # is cold) — fall back to a full sample-mined parse.
            with tracer.span("mine_fallback", lines=len(token_lines), remine=True):
                parsed = self.parse(lines)
            added = cache.merge(template_key(t) for t in parsed.templates)
            cache.record(0, len(token_lines), True)
            return parsed, ParseOutcome(
                len(token_lines), 0, len(token_lines), True, added
            )

        new_keys: List[TemplateKey] = []
        if unmatched:
            # The cache missed these shapes: mine them separately (the
            # same second pass a cold parse runs for sample misses).
            with tracer.span("mine_fallback", lines=len(unmatched), remine=False):
                extra_miner = self._make_miner()
                for line_id in unmatched:
                    extra_miner.observe(token_lines[line_id])
                extras = extra_miner.templates(first_id=len(templates))
                for template in extras:
                    matcher.add(template)
                templates.extend(extras)
                new_keys.extend(template_key(t) for t in extras)
                still: List[int] = []
                for line_id in unmatched:
                    tokens = token_lines[line_id]
                    template = matcher.match(tokens)
                    if template is None:
                        still.append(line_id)
                    else:
                        assignments[line_id] = template.template_id
                for line_id in still:
                    # Last resort: an all-variable template of the right
                    # width (never cached — see TemplateCache.merge).
                    tokens = token_lines[line_id]
                    catch_all = Template(len(templates), [None] * len(tokens))
                    templates.append(catch_all)
                    matcher.add(catch_all)
                    assignments[line_id] = catch_all.template_id

        # Renumber the used templates into block-local ids by order of
        # first appearance (cache ids are stream-global and unstable).
        local_ids: Dict[int, int] = {}
        local_templates: List[Template] = []
        groups: List[Group] = []
        for line_id, tokens in enumerate(token_lines):
            provisional = assignments[line_id]
            local_id = local_ids.get(provisional)
            if local_id is None:
                local_id = len(local_templates)
                local_ids[provisional] = local_id
                local = Template(local_id, list(templates[provisional].tokens))
                local_templates.append(local)
                groups.append(Group(local))
            groups[local_id].append(
                line_id, local_templates[local_id].extract(tokens)
            )
        added = cache.merge(new_keys)
        cache.record(hits, len(unmatched), False)
        parsed = ParsedBlock(local_templates, groups, len(lines))
        return parsed, ParseOutcome(
            len(token_lines), hits, len(unmatched), False, added
        )

