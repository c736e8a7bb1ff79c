"""What a score measures: the evaluation protocol and its whole vocabulary.
Imports only `errors` and `jsonio`, so reading a protocol loads no data path."""

from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import ConfigError
from .jsonio import canonical_line

MODE_GOLD_TRIGGER = "gold_trigger"
MODE_PIPELINE = "pipeline"

CONVENTION_MODERN = "modern"
CONVENTION_LEGACY = "legacy"

EAE_MATCH_BY_TYPE = "by_event_type"
EAE_MATCH_BY_TRIGGER = "by_trigger_span"

TRIGGER_POLICY_EVERY_TOKEN = "every_token"
TRIGGER_POLICY_SPANS_UP_TO_K = "every_span_up_to_k"

STRAY_I_OPEN = "open_span"
STRAY_I_DISCARD = "discard"

PARADIGM_CLS = "CLS"
PARADIGM_SL = "SL"
PARADIGM_SP = "SP"
PARADIGM_CG = "CG"
PARADIGMS = (PARADIGM_CLS, PARADIGM_SL, PARADIGM_SP, PARADIGM_CG)

# each protocol field's allowed values, its default first; `k` is an int >= 1 and `standardize` a bool
PROTOCOL_CHOICES = {
    "mode": (MODE_GOLD_TRIGGER, MODE_PIPELINE),
    "convention": (CONVENTION_MODERN, CONVENTION_LEGACY),
    "eae_match": (EAE_MATCH_BY_TYPE, EAE_MATCH_BY_TRIGGER),
    "trigger_policy": (TRIGGER_POLICY_EVERY_TOKEN, TRIGGER_POLICY_SPANS_UP_TO_K),
    "stray_i": (STRAY_I_OPEN, STRAY_I_DISCARD),
    "ed_paradigm": (None, *PARADIGMS),
    "eae_paradigm": (None, *PARADIGMS),
}


class CandidatePolicy(NamedTuple):
    """How trigger candidates are enumerated: every span of at most `k` tokens
    inside one sentence. Argument candidates are always the entity mentions
    of the (variant-filtered) document. Built by `Protocol.policy`."""

    trigger_policy: str = TRIGGER_POLICY_EVERY_TOKEN
    k: int = 1


class StandardizeOptions(NamedTuple):
    """How predictions are decoded. Built by `Protocol.options`."""

    stray_i: str = STRAY_I_OPEN


@dataclass(frozen=True)
class Protocol:
    """The settings that decide what a score measures, with the CLI's
    defaults: two scores can be read side by side only under one protocol.
    One candidate space has one spelling: spans up to 1 token are
    `every_token`, whose `k` is 1.

    >>> Protocol(trigger_policy="every_span_up_to_k", k=1).policy
    CandidatePolicy(trigger_policy='every_token', k=1)
    """

    mode: str = MODE_GOLD_TRIGGER
    convention: str = CONVENTION_MODERN
    eae_match: str = EAE_MATCH_BY_TYPE
    trigger_policy: str = TRIGGER_POLICY_EVERY_TOKEN
    k: int = 1
    stray_i: str = STRAY_I_OPEN
    standardize: bool = True
    ed_paradigm: str | None = None
    eae_paradigm: str | None = None

    def __post_init__(self):
        # a refused value is shown as JSON, as a report spells it (repr for what JSON cannot hold)
        for name, allowed in PROTOCOL_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {canonical_line(getattr(self, name), repr)}")
        if type(self.standardize) is not bool or type(self.k) is not int:
            raise ConfigError(
                "standardize must be a bool and k an int, "
                f"not {canonical_line(self.standardize, repr)} and {canonical_line(self.k, repr)}"
            )
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k == 1 or self.trigger_policy == TRIGGER_POLICY_EVERY_TOKEN:
            object.__setattr__(self, "trigger_policy", TRIGGER_POLICY_EVERY_TOKEN)
            object.__setattr__(self, "k", 1)
        if not self.standardize and PARADIGM_CG in (self.ed_paradigm, self.eae_paradigm):
            raise ConfigError(
                "generation predictions cannot be scored without --standardize "
                "(their mentions carry no positions)"
            )

    @property
    def policy(self) -> CandidatePolicy:
        return CandidatePolicy(self.trigger_policy, self.k)

    @property
    def options(self) -> StandardizeOptions:
        return StandardizeOptions(self.stray_i)


def protocol_keys(config: dict | None = None) -> tuple[str, ...]:
    """The report-config keys that `compare` checks: every `Protocol` field,
    but each paradigm has its own native output space, so the paradigms
    only count when `config` was scored without standardization."""
    native = config is None or config["standardize"] is not True
    return tuple(f.name for f in fields(Protocol) if native or not f.name.endswith("_paradigm"))


def is_score(value) -> bool:
    """True for a JSON number in [0, 1], so not for a bool, NaN or infinity."""
    return type(value) in (int, float) and 0 <= value <= 1
