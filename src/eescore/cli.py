"""Command-line interface.

Subcommands: stats, score, standardize, compare, trigger-store {put,get,list}.
Exit codes are stable: 0 success, 1 evaluation-time error, 2
configuration/validation error. Every run is deterministic: no sampling
happens anywhere, report files embed the resolved configuration and the
corpus/variant fingerprint, and repeated runs produce byte-identical
outputs regardless of --jobs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from stat import S_ISDIR

from .core import TASK_ARGUMENT, TASK_TRIGGER, TriggerContext
from .errors import ConfigError, ContextError, ToolkitError, naming
from .ingest import load_corpus, load_predictions, load_trigger_file, parse_trigger_file, serialize_trigger_context
from .jsonio import canonical_line, format_report, read_json, write_atomic
from .metrics import EvalReport
from .pipeline import TriggerStore, corpus_fingerprint, evaluate
from .protocol import (
    MODE_GOLD_TRIGGER, MODE_PIPELINE, PROTOCOL_CHOICES, TRIGGER_POLICY_SPANS_UP_TO_K, Protocol, is_score, protocol_keys,
)
from .standardize import serialize_discards, serialize_standardized, standardize_predictions
from .variants import VARIANT_CHOICES, VariantConfig, apply_variant, compute_stats, load_variant_config


def _err(message) -> None:
    if sys.stderr is not None:  # without one, print would write to stdout
        print(f"eescore: error: {message}", file=sys.stderr)


def _read(path, what: str, load, *args, refuse=None):
    """`load(path, *args)`, once `path` names a regular file: a directory or a FIFO is refused before it is
    opened. `naming` names every fault, and an OSError exits 2."""
    with naming(what, path, (ToolkitError, OSError), refuse):
        if not os.path.isfile(path):
            raise IsADirectoryError if os.path.exists(path) else FileNotFoundError
        return load(path, *args)


def _store(args, create: bool = False) -> TriggerStore:
    """The trigger store `--store` names; only `put` may create it, where no file is in the way."""
    with naming("trigger store", args.store, OSError, ConfigError):
        try:
            if not S_ISDIR(os.stat(args.store).st_mode):
                raise NotADirectoryError
        except FileNotFoundError:
            if not create:
                raise
    return TriggerStore(args.store)


# ---------------------------------------------------------------------------
# shared flags


class _HelpFormatter(argparse.HelpFormatter):
    """Shows an option's argument once, after all of its spellings: `--a-b, --a_b {x,y}`."""

    def _format_action_invocation(self, action) -> str:
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        return f"{', '.join(action.option_strings)} {self._format_args(action, action.dest.upper())}"


_parser = partial(argparse.ArgumentParser, formatter_class=_HelpFormatter)


def _flag(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Declares `flag` once under both spellings, `--a-b` and `--a_b`; the
    spelling given first names the dest. A flag named after a protocol
    field defaults to the protocol's value."""
    name = flag[2:].replace("-", "_")
    p.add_argument(*dict.fromkeys((flag, "--" + name, "--" + name.replace("_", "-"))),
                   default=getattr(Protocol, name, None), **kwargs)


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus JSONL file")
    p.add_argument("--variant", help="preprocessing-variant config file (default: keep everything)")
    _flag(p, "--multi_token_policy", choices=VARIANT_CHOICES["multi_token_policy"],
          help="override the variant's multi-token trigger handling")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--trigger-policy", choices=PROTOCOL_CHOICES["trigger_policy"], help="trigger candidate enumeration")
    p.add_argument("--k", type=int, help="max span length for every_span_up_to_k")


def _add_standardize_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--stray_i", choices=PROTOCOL_CHOICES["stray_i"], help="how to decode a stray I tag")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: scoring runs in one thread")


def _load_inputs(args):
    """The variant config that the flags select, and the corpus as read, before the variant is
    applied. A fault in either is data the run cannot even start from, so it is a ConfigError."""
    cfg = VariantConfig()
    if args.variant:
        cfg = _read(args.variant, "variant config", load_variant_config, refuse=ConfigError)
    if args.multi_token_policy:
        cfg = replace(cfg, multi_token_policy=args.multi_token_policy)
    return cfg, _read(args.corpus, "corpus", load_corpus, refuse=ConfigError)


def _store_entry(args, fingerprint: str):
    """The store's entry and trigger bytes for the corpus under `fingerprint`,
    by `--producer` when one is given."""
    found = _store(args).get(Path(args.corpus).name, fingerprint, args.producer)
    if found is None:
        by = "" if args.producer is None else f" by producer {args.producer!r}"
        raise ToolkitError(
            f"no trigger-store entry{by} for corpus {Path(args.corpus).name!r} and the "
            f"current variant fingerprint {fingerprint[:12]}... (stale or missing entry)"
        )
    return found


def _protocol(args, **fixed) -> Protocol:
    """The protocol that the flags in `args` select; `fixed` gives what the
    subcommand does not take as a flag. The --k checks that name flags
    come after the protocol's own, which bound k; they read the flag, as
    the protocol spells spans up to 1 token as `every_token`."""
    flags = {f.name: getattr(args, f.name) for f in fields(Protocol) if f.name != "k" and hasattr(args, f.name)}
    protocol = Protocol(**flags, **fixed)
    if args.trigger_policy == TRIGGER_POLICY_SPANS_UP_TO_K:
        if args.k is None:
            raise ConfigError("--k is required with --trigger-policy every_span_up_to_k")
        return Protocol(**flags, k=args.k, **fixed)
    if args.k is not None:
        raise ConfigError("--k only applies to --trigger-policy every_span_up_to_k")
    return protocol


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    policy = _protocol(args).policy
    cfg, corpus = _load_inputs(args)
    applied, report = apply_variant(corpus, cfg)
    stats = compute_stats(applied, policy)
    payload = stats._asdict()
    payload["removed_arguments"] = report.removed_arguments
    payload["reduced_triggers"] = report.reduced_triggers
    text = format_report(payload)
    if args.output:
        write_atomic(args.output, text.encode("utf-8"))
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# score


def _resolved_config(args, cfg: VariantConfig, protocol: Protocol) -> dict:
    return {
        "subcommand": args.command,
        "corpus": args.corpus,
        "variant": cfg.as_dict(),
        "ed_predictions": args.ed_predictions,
        "eae_predictions": args.eae_predictions,
        "triggers": args.triggers,
        "store": args.store,
        "producer": args.producer,
        **asdict(protocol),
    }


def _format_table(ed: EvalReport | None, eae: EvalReport | None) -> str:
    lines = [f"{'Task':<6}{'P':>8}{'R':>8}{'F1':>8}"]
    for name, rep in (("ED", ed), ("EAE", eae)):
        if rep is not None:
            lines.append(
                f"{name:<6}{rep.precision * 100:>8.1f}{rep.recall * 100:>8.1f}{rep.f1 * 100:>8.1f}"
            )
    return "\n".join(lines) + "\n"


def _validate_score_flags(args) -> None:
    if not args.ed_predictions and not args.eae_predictions:
        raise ConfigError("provide --ed-predictions and/or --eae-predictions")
    if bool(args.ed_predictions) != bool(args.ed_paradigm):
        raise ConfigError("--ed-predictions and --ed-paradigm must be given together")
    if bool(args.eae_predictions) != bool(args.eae_paradigm):
        raise ConfigError("--eae-predictions and --eae-paradigm must be given together")
    if args.triggers and args.store:
        raise ConfigError("--triggers and --store are mutually exclusive")
    if args.mode == MODE_GOLD_TRIGGER and (args.triggers or args.store):
        raise ConfigError("--triggers/--store only apply to --mode pipeline")
    if args.mode == MODE_PIPELINE and args.eae_predictions and not (
        args.ed_predictions or args.triggers or args.store
    ):
        raise ConfigError(
            "pipeline mode requires predicted triggers: provide --ed-predictions, --triggers or --store"
        )


def _pipeline_context(args, corpus, fingerprint: str) -> TriggerContext | None:
    if args.triggers:
        return _read(args.triggers, "trigger file", load_trigger_file, corpus)
    if args.store:
        entry, payload = _store_entry(args, fingerprint)
        with naming("trigger store entry", Path(args.store, entry.file)):
            return parse_trigger_file(payload, corpus, source=f"store:{entry.producer}")
    return None


def cmd_score(args) -> int:
    _validate_score_flags(args)
    protocol = _protocol(args)
    cfg, corpus = _load_inputs(args)
    fingerprint = corpus_fingerprint(corpus, cfg)
    corpus, _ = apply_variant(corpus, cfg)  # the unvaried corpus is not kept alive
    ed_pred = eae_pred = None
    if args.ed_predictions:
        ed_pred = _read(args.ed_predictions, "ED prediction file", load_predictions, args.ed_paradigm, corpus,
                        TASK_TRIGGER)
    if args.eae_predictions:
        eae_pred = _read(args.eae_predictions, "EAE prediction file", load_predictions, args.eae_paradigm, corpus,
                         TASK_ARGUMENT)
    trigger_context = _pipeline_context(args, corpus, fingerprint) if args.mode == MODE_PIPELINE else None
    with naming("EAE prediction file", args.eae_predictions, ContextError):  # an anchor outside the context
        result = evaluate(corpus, protocol, ed_pred=ed_pred, eae_pred=eae_pred, trigger_context=trigger_context)

    payload = {
        "config": _resolved_config(args, cfg, protocol),
        "fingerprint": fingerprint,
        "ed": result.ed_report.as_dict() if result.ed_report else None,
        "eae": result.eae_report.as_dict() if result.eae_report else None,
    }
    report_text = format_report(payload)
    write_atomic(args.output, report_text.encode("utf-8"))

    table = _format_table(result.ed_report, result.eae_report)
    print(table, end="")
    if args.table:
        write_atomic(args.table, table.encode("utf-8"))

    if args.dump_discards:
        write_atomic(args.dump_discards, serialize_discards(result.ed_standardized, result.eae_standardized))
    return 0


# ---------------------------------------------------------------------------
# standardize


def cmd_standardize(args) -> int:
    protocol = _protocol(args)
    cfg, corpus = _load_inputs(args)
    corpus, _ = apply_variant(corpus, cfg)
    predictions = _read(args.predictions, "prediction file", load_predictions, args.paradigm, corpus)
    standardized = standardize_predictions(predictions, corpus, protocol.policy, protocol.options)
    write_atomic(args.output, serialize_standardized(standardized))
    return 0


# ---------------------------------------------------------------------------
# compare


_SCORES = ("precision", "recall", "f1")


def _load_report(path) -> tuple[dict, Protocol]:
    """A score report whose fingerprint is a string, whose config holds
    every protocol key, and whose "ed" and "eae" are each null or carry
    precision, recall and f1 as numbers in [0, 1]; with the protocol that
    its config spells."""
    obj = read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("fingerprint"), str):
        raise ConfigError("not a score report (missing fingerprint)")
    config = obj.get("config")
    if not isinstance(config, dict):
        raise ConfigError("not a score report (missing config)")
    for key in protocol_keys():
        if key not in config:
            raise ConfigError(f"config lacks {key!r}")
    protocol = Protocol(**{key: config[key] for key in protocol_keys()})
    for task in ("ed", "eae"):
        scores = obj.get(task)
        if scores is not None and not (
            isinstance(scores, dict) and all(is_score(scores.get(m)) for m in _SCORES)
        ):
            raise ConfigError(f"{task!r} lacks {', '.join(_SCORES)} as numbers in [0, 1]")
    return obj, protocol


def cmd_compare(args) -> int:
    a, protocol_a = _read(args.report_a, "report", _load_report, refuse=ConfigError)
    b, protocol_b = _read(args.report_b, "report", _load_report, refuse=ConfigError)
    if a["fingerprint"] != b["fingerprint"]:
        raise ConfigError(
            "reports were produced from different corpus/variant fingerprints: "
            f"{a['fingerprint'][:12]}... vs {b['fingerprint'][:12]}..."
        )
    # prediction paths, the store and the producer are provenance; the corpus and the
    # variant are bound by the fingerprint; a protocol is compared as `Protocol` spells it
    for key in protocol_keys(a["config"]):
        va, vb = canonical_line(getattr(protocol_a, key)), canonical_line(getattr(protocol_b, key))
        if va != vb:
            raise ConfigError(f"reports were produced under different protocols: {key} is {va} vs {vb}")
    rows = []
    for task_key, task_name in (("ed", "ED"), ("eae", "EAE")):
        ra, rb = a.get(task_key), b.get(task_key)
        if ra is None or rb is None:
            continue
        deltas = [(rb[metric] - ra[metric]) * 100 for metric in _SCORES]
        rows.append((task_name, deltas))
    if not rows:
        raise ConfigError("the two reports share no task to compare")
    lines = [f"{'Task':<6}{'ΔP':>8}{'ΔR':>8}{'ΔF1':>8}"]
    for task_name, (dp, dr, df) in rows:
        lines.append(f"{task_name:<6}{dp:>+8.1f}{dr:>+8.1f}{df:>+8.1f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.output:
        write_atomic(args.output, text.encode("utf-8"))
    return 0


# ---------------------------------------------------------------------------
# trigger-store


def cmd_store_put(args) -> int:
    protocol = _protocol(args, mode=MODE_PIPELINE)
    store = _store(args, create=True)
    cfg, corpus = _load_inputs(args)
    fingerprint = corpus_fingerprint(corpus, cfg)
    corpus, _ = apply_variant(corpus, cfg)  # the unvaried corpus is not kept alive
    predictions = _read(args.predictions, "ED prediction file", load_predictions, args.paradigm, corpus, TASK_TRIGGER)
    result = evaluate(corpus, protocol, ed_pred=predictions)
    trigger_bytes = serialize_trigger_context(result.trigger_context)
    entry = store.put(
        corpus_id=Path(args.corpus).name,
        fingerprint=fingerprint,
        producer=args.producer,
        trigger_bytes=trigger_bytes,
        ed_report=result.ed_report,
    )
    print(f"stored {entry.file} (ED F1 {entry.ed_f1 * 100:.1f})")
    return 0


def cmd_store_get(args) -> int:
    cfg, corpus = _load_inputs(args)
    entry, payload = _store_entry(args, corpus_fingerprint(corpus, cfg))
    write_atomic(args.output, payload)
    print(f"{entry.producer}\t{entry.file}\tED F1 {entry.ed_f1 * 100:.1f}")
    return 0


def cmd_store_list(args) -> int:
    entries = _store(args).entries()
    for e in entries:
        print(f"{e.corpus_id}\t{e.fingerprint[:12]}\t{e.producer}\t{e.file}\t{e.ed_f1 * 100:.1f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _parser(
        prog="eescore",
        description="Deterministic event-extraction evaluation: preprocessing variants, "
        "output standardization, gold-trigger and pipeline scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)

    p_stats = sub.add_parser("stats", help="dataset statistics under a preprocessing variant")
    _add_corpus_flags(p_stats)
    _add_policy_flags(p_stats)
    p_stats.add_argument("--output", help="write JSON stats here (default: stdout)")
    p_stats.set_defaults(func=cmd_stats)

    p_score = sub.add_parser("score", help="score predictions and write an evaluation report")
    _add_corpus_flags(p_score)
    _add_policy_flags(p_score)
    _add_standardize_flags(p_score)
    _flag(p_score, "--ed-predictions", help="trigger prediction JSONL")
    _flag(p_score, "--ed-paradigm", choices=PROTOCOL_CHOICES["ed_paradigm"][1:])
    _flag(p_score, "--eae-predictions", help="argument prediction JSONL")
    _flag(p_score, "--eae-paradigm", choices=PROTOCOL_CHOICES["eae_paradigm"][1:])
    _flag(p_score, "--mode", choices=PROTOCOL_CHOICES["mode"])
    _flag(p_score, "--convention", choices=PROTOCOL_CHOICES["convention"])
    _flag(p_score, "--eae_match", choices=PROTOCOL_CHOICES["eae_match"])
    p_score.add_argument("--triggers", help="predicted-trigger JSONL for pipeline mode")
    p_score.add_argument("--store", help="trigger-store directory for pipeline mode")
    p_score.add_argument("--producer", help="trigger-store producer to use")
    _flag(p_score, "--standardize", action=argparse.BooleanOptionalAction,
          help="project predictions onto the candidate space before scoring")
    _flag(p_score, "--dump-discards", help="write the discard ledger JSONL here")
    p_score.add_argument("--output", required=True, help="report JSON path")
    p_score.add_argument("--table", help="also write the plain-text table here")
    p_score.set_defaults(func=cmd_score)

    p_std = sub.add_parser("standardize", help="project predictions onto candidate space")
    _add_corpus_flags(p_std)
    _add_policy_flags(p_std)
    _add_standardize_flags(p_std)
    p_std.add_argument("--predictions", required=True)
    p_std.add_argument("--paradigm", choices=PROTOCOL_CHOICES["ed_paradigm"][1:], required=True)
    p_std.add_argument("--output", required=True, help="standardized JSONL path")
    p_std.set_defaults(func=cmd_standardize)

    p_cmp = sub.add_parser("compare", help="delta table between two score reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--output", help="also write the delta table here")
    p_cmp.set_defaults(func=cmd_compare)

    p_store = sub.add_parser("trigger-store", help="manage off-the-shelf predicted triggers")
    store_sub = p_store.add_subparsers(dest="store_command", required=True, parser_class=_parser)

    p_put = store_sub.add_parser("put", help="score ED predictions and store the triggers")
    _add_corpus_flags(p_put)
    _add_policy_flags(p_put)
    _add_standardize_flags(p_put)
    p_put.add_argument("--store", required=True)
    p_put.add_argument("--predictions", required=True, help="trigger prediction JSONL")
    p_put.add_argument("--paradigm", choices=PROTOCOL_CHOICES["ed_paradigm"][1:], required=True)
    p_put.add_argument("--producer", required=True, help="name of the producing model/run")
    p_put.set_defaults(func=cmd_store_put)

    p_get = store_sub.add_parser("get", help="fetch stored triggers for a corpus/variant")
    _add_corpus_flags(p_get)
    p_get.add_argument("--store", required=True)
    p_get.add_argument("--producer")
    p_get.add_argument("--output", required=True, help="write the trigger JSONL here")
    p_get.set_defaults(func=cmd_store_get)

    p_list = store_sub.add_parser("list", help="list store entries")
    p_list.add_argument("--store", required=True)
    p_list.set_defaults(func=cmd_store_list)

    return parser


def _refuse_non_utf8(parser: argparse.ArgumentParser, args) -> None:
    """Reports, ledgers and the manifest spell paths in UTF-8: an argument that UTF-8 cannot encode (it
    holds a surrogate) is refused, by the name its usage shows, before anything is read or written."""
    for action in parser._actions:
        value = getattr(args, action.dest, None)
        if isinstance(value, str) and any("\ud800" <= c <= "\udfff" for c in value):
            raise ConfigError(f"argument {(action.option_strings or [action.dest])[0]}: {value!r} is not UTF-8 text")
        for sub in action.choices.values() if isinstance(action.choices, dict) else ():  # a subcommand's parser
            _refuse_non_utf8(sub, args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _refuse_non_utf8(parser, args)
        return args.func(args)
    except ConfigError as exc:
        _err(exc)
        return 2
    except ToolkitError as exc:
        _err(exc)
        return 1
    except OSError as exc:
        _err(exc)
        return 2


def entry_point() -> None:
    """Runs `main` and ends the process; it never returns, so a Python
    caller uses `main`."""
    # The data path builds no reference cycles, so reference counting frees
    # it all; the cyclic collector, and the last collection and per-object
    # frees of teardown at exit, would only re-walk every record.
    gc.disable()
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except OSError as exc:  # as main answers a failed write
        _err(exc)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
