"""Preprocessing-variant engine and dataset statistics.

The same raw corpus yields materially different datasets depending on
preprocessing choices: whether multi-token triggers survive, whether
time/value/pronoun mentions count as argument candidates, and whether
mentions are kept full or reduced to head words. This module makes those
choices an explicit configuration, applies them as a pure transformation,
and reports what was silently dropped so runs stay comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

from .core import Corpus, Document, EntityMention, EventAnnotation, Span
from .errors import ConfigError
from .standardize import CandidatePolicy, TriggerCandidates

MENTION_MODE_HEAD = "head"
MENTION_MODE_FULL = "full"
MULTI_TOKEN_FIRST = "first_token"
MULTI_TOKEN_DROP = "drop_event"

_KIND_FLAGS = {"time": "include_time", "value": "include_value", "pronoun": "include_pronoun"}
# each choice field's allowed values, its default first
VARIANT_CHOICES = {
    "entity_mention_mode": (MENTION_MODE_FULL, MENTION_MODE_HEAD),
    "multi_token_policy": (MULTI_TOKEN_FIRST, MULTI_TOKEN_DROP),
}


@dataclass(frozen=True)
class VariantConfig:
    multi_token_triggers: bool = True
    include_time: bool = True
    include_value: bool = True
    include_pronoun: bool = True
    entity_mention_mode: str = MENTION_MODE_FULL
    # applies only when multi_token_triggers is false
    multi_token_policy: str = MULTI_TOKEN_FIRST

    def __post_init__(self):
        for key, allowed in VARIANT_CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}")
        if self.multi_token_triggers:  # the policy never applies: one dataset, one fingerprint
            object.__setattr__(self, "multi_token_policy", MULTI_TOKEN_FIRST)

    def as_dict(self) -> dict:
        return asdict(self)


class VariantReport(NamedTuple):
    """What the transformation removed or rewrote."""

    removed_arguments: int = 0
    reduced_triggers: int = 0


class DatasetStats(NamedTuple):
    token_count: int
    trigger_count: int
    argument_count: int
    event_type_count: int
    role_count: int
    trigger_candidate_count: int
    argument_candidate_count: int


def _mention_kept(mention: EntityMention, cfg: VariantConfig) -> bool:
    flag = _KIND_FLAGS.get(mention.kind)
    return flag is None or getattr(cfg, flag)


def _apply_document(doc: Document, cfg: VariantConfig) -> tuple[Document, int, int]:
    removed_ids = {m.id for m in doc.entities if not _mention_kept(m, cfg)}
    entities = []
    for m in doc.entities:
        if m.id in removed_ids:
            continue
        if cfg.entity_mention_mode == MENTION_MODE_HEAD:
            m = m._replace(span=m.head_span)
        entities.append(m)

    events: list[EventAnnotation] = []
    removed_arguments = 0
    reduced_triggers = 0
    for ev in doc.events:
        trigger = ev.trigger
        if not cfg.multi_token_triggers and trigger.length > 1:
            reduced_triggers += 1
            if cfg.multi_token_policy == MULTI_TOKEN_DROP:
                removed_arguments += len(ev.arguments)
                continue
            trigger = Span(trigger.start, trigger.start + 1)
        kept_args = tuple(a for a in ev.arguments if a.entity_id not in removed_ids)
        removed_arguments += len(ev.arguments) - len(kept_args)
        events.append(ev._replace(trigger=trigger, arguments=kept_args))

    new_doc = Document(
        id=doc.id,
        tokens=doc.tokens,
        sentences=doc.sentences,
        entities=tuple(entities),
        events=tuple(events),
    )
    return new_doc, removed_arguments, reduced_triggers


def apply_variant(corpus: Corpus, cfg: VariantConfig) -> tuple[Corpus, VariantReport]:
    """Pure transformation; idempotent, and the identity configuration
    returns the corpus itself. Trigger-only events are legal and kept."""
    if cfg == VariantConfig():
        return corpus, VariantReport()
    docs = []
    removed_arguments = 0
    reduced_triggers = 0
    for doc in corpus:
        new_doc, removed, reduced = _apply_document(doc, cfg)
        docs.append(new_doc)
        removed_arguments += removed
        reduced_triggers += reduced
    return (
        Corpus(documents=tuple(docs)),
        VariantReport(removed_arguments=removed_arguments, reduced_triggers=reduced_triggers),
    )


def compute_stats(corpus: Corpus, policy: CandidatePolicy = CandidatePolicy()) -> DatasetStats:
    """Corpus statistics. Type/role counts are labels actually in use, not
    a declared schema; candidate counts follow the candidate policy."""
    tokens = sum(len(d.tokens) for d in corpus)
    triggers = sum(len(d.events) for d in corpus)
    arguments = sum(len(e.arguments) for d in corpus for e in d.events)
    event_types = {e.event_type for d in corpus for e in d.events}
    roles = {a.role for d in corpus for e in d.events for a in e.arguments}
    trigger_candidates = sum(len(TriggerCandidates(d, policy)) for d in corpus)
    argument_candidates = sum(len(d.entities) for d in corpus)
    return DatasetStats(
        token_count=tokens,
        trigger_count=triggers,
        argument_count=arguments,
        event_type_count=len(event_types),
        role_count=len(roles),
        trigger_candidate_count=trigger_candidates,
        argument_candidate_count=argument_candidates,
    )


def parse_variant_config(text: str) -> VariantConfig:
    """Parses a flat `key = value` config; `#` starts a comment. Unknown
    keys are errors; missing keys default to the identity configuration.
    Lines end at "\n" only, as in every other input file."""
    kinds = {f.name: type(f.default) for f in fields(VariantConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"variant config line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in values:
            raise ConfigError(f"variant config line {lineno}: duplicate key {key!r}")
        if key not in kinds:
            raise ConfigError(f"variant config line {lineno}: unknown key {key!r}")
        if kinds[key] is bool:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ConfigError(
                    f"variant config line {lineno}: {key} must be true or false, got {value!r}"
                )
            value = lowered == "true"
        try:  # the config refuses a value outside its choices
            VariantConfig(**{key: value})
        except ConfigError as exc:
            raise ConfigError(f"variant config line {lineno}: {exc}") from None
        values[key] = value
    return VariantConfig(**values)


def load_variant_config(path) -> VariantConfig:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"variant config is not valid UTF-8: {exc}") from None
    return parse_variant_config(text)
