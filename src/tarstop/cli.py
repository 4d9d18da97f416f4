"""Command-line front end.

Subcommands:
  stop      run the screening loop over a run + qrels pair
  evaluate  score previously saved outcomes at a target recall
  compare   run several stopping methods and aggregate their metrics
  sweep     grid-search stopping configurations, flagging the Pareto frontier
  simulate  generate synthetic topics from a spec file and compare methods

Outputs are CSV or JSON, written only after the whole computation
succeeds (no partial files). Every command is deterministic given its
flags and seed; randomized methods default to a fixed seed rather than
wall-clock entropy. Exit codes: 0 success, 2 usage/configuration error,
3 input parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

from . import baselines, corpus, metrics, stopping
from .errors import (
    ConfigError,
    ParseError,
    TarStopError,
    TopicNotFoundError,
    ValidationError,
)
from .estimates import ProcessKind
from .rates import RateKind

DEFAULT_SEED = 1729
# Characters of whole lines per block when streaming a run or qrels file.
_READ_HINT = 1 << 16

RATE_NAMES = {
    "exp": RateKind.EXPONENTIAL,
    "hyp": RateKind.HYPERBOLIC,
    "pow": RateKind.POWER_LAW,
    "ap": RateKind.AP_PRIOR,
}
PROCESS_NAMES = {
    "ip": ProcessKind.INHOMOGENEOUS_POISSON,
    "cox": ProcessKind.COX,
}
BATCH_NAMES = {
    "uniform": stopping.BatchSchedule.UNIFORM_FRACTION,
    "autotar": stopping.BatchSchedule.AUTOTAR,
}
MINREL_NAMES = ("static10", "static20", "dynamic")
COMPARE_METHODS = ("ip", "cox", "oracle", "target", "target-adapted", "knee")


def _min_rel_rule(name: str) -> stopping.MinRelRule:
    if name == "dynamic":
        return stopping.DynamicMinRel()
    if name == "static10":
        return stopping.StaticMinRel(10)
    if name == "static20":
        return stopping.StaticMinRel(20)
    raise ConfigError(f"unknown min-rel rule {name!r}; expected one of {MINREL_NAMES}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("stopping configuration")
    g.add_argument("--target-recall", type=float, default=0.9, metavar="L")
    g.add_argument("--confidence", type=float, default=0.95, metavar="P")
    g.add_argument("--alpha", type=float, default=0.025,
                   help="initial screened fraction (default 0.025)")
    g.add_argument("--beta", type=float, default=0.025,
                   help="screened fraction added per checkpoint (default 0.025)")
    g.add_argument("--rate", choices=sorted(RATE_NAMES), default="hyp")
    g.add_argument("--process", choices=sorted(PROCESS_NAMES), default="ip")
    g.add_argument("--nrmse-threshold", type=float, default=0.1)
    g.add_argument("--min-rel", choices=MINREL_NAMES, default="dynamic")
    g.add_argument("--batch", choices=sorted(BATCH_NAMES), default="uniform")
    g.add_argument("--window", type=int, default=25,
                   help="ranks per estimation window (default 25)")
    g.add_argument("--cox-grid", type=int, default=9,
                   help="grid points per parameter for the cox mixture")


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--output", type=Path, default=None,
                        help="output file; stdout when omitted")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect "
                             "(topics run one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base seed for randomized methods (default {DEFAULT_SEED})")


def _config_from_args(args: argparse.Namespace, **overrides) -> stopping.StoppingConfig:
    kwargs = dict(
        target_recall=args.target_recall,
        confidence=args.confidence,
        alpha=args.alpha,
        beta=args.beta,
        process=PROCESS_NAMES[args.process],
        rate_kind=RATE_NAMES[args.rate],
        nrmse_threshold=args.nrmse_threshold,
        min_rel_rule=_min_rel_rule(args.min_rel),
        window_size=args.window,
        batch_schedule=BATCH_NAMES[args.batch],
        cox_grid=args.cox_grid,
    )
    kwargs.update(overrides)
    return stopping.StoppingConfig(**kwargs)


def _read_input(path: Path, what: str) -> str:
    """Text of a UTF-8 input file, without a leading byte-order mark."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _input_lines(path: Path, what: str) -> Iterator[str]:
    """``_read_input(path, what).splitlines()``, read lazily in blocks of
    whole lines, so neither the text nor its list of lines is ever held.

    With ``newline=""`` the reader ends a line only at ``\n``, ``\r`` or
    ``\r\n``, and never splits ``\r\n``, so ``splitlines`` on a block
    finds exactly the boundaries it finds in the whole text.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            while block := f.readlines(_READ_HINT):
                yield from "".join(block).splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The reader's decoder counts offsets from its current chunk; decode
        # the whole file again to report the offset from the file's start.
        _read_input(path, what)
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _parse_input(parse, path: Path, what: str, later: tuple = ()):
    """``parse`` over the lines of ``path``, streamed from the file.

    Errors are reported as if every input were decoded whole before any
    is parsed: a malformed line wins only once the rest of its file, and
    each ``(path, what)`` in ``later``, is known to be readable UTF-8.
    """
    try:
        return parse(_input_lines(path, what))
    except ParseError as exc:
        if exc.line is None:  # the file could not be read; parsers name a line
            raise
        for other, other_what in ((path, what), *later):
            _read_input(other, other_what)
        raise ParseError(f"{path}: {exc}") from exc


def _load_topics(run_path: Path, qrels_path: Path) -> list[corpus.RankedTopic]:
    run = _parse_input(corpus.parse_run, run_path, "run", ((qrels_path, "qrels"),))
    qrels = _parse_input(corpus.parse_qrels, qrels_path, "qrels")
    topics = corpus.join_all(run, qrels)
    if not topics:
        raise ParseError(f"{run_path}: run file contains no topics")
    return topics


def _topic_seed(base: int, topic_id: str, method: str) -> int:
    # Stable across platforms and process pools, unlike hash().
    digest = hashlib.sha256(f"{base}:{method}:{topic_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- record serialization ------------------------------------------------


def _curve_record(curve) -> dict | None:
    if curve is None:
        return None
    p = curve.params
    return {
        "kind": p.kind.value,
        "params": {
            k: v
            for k, v in (("a", p.a), ("b", p.b), ("c", p.c), ("n_total", p.n_total))
            if v is not None
        },
        # a singular fit has infinite variances; JSON has no infinity
        "variance": [v if math.isfinite(v) else None for v in curve.param_variance],
        "nrmse": curve.nrmse,
        "points_used": curve.points_used,
    }


def _estimate_record(est) -> dict | None:
    if est is None:
        return None
    return {
        "interval": list(est.interval),
        "lambda_mass": est.lambda_mass,
        "upper_bound": est.upper_bound,
        "confidence": est.confidence,
        "fallback": est.fallback,
    }


def _trace_record(trace: stopping.IterationTrace) -> dict:
    return {
        "k": trace.k,
        "rel_found": trace.rel_found,
        "gate": trace.gate.value,
        "curve": _curve_record(trace.curve),
        "estimate": _estimate_record(trace.estimate),
        "total_estimate": trace.total_estimate,
        "stop": trace.stop_decision,
    }


def _outcome_record(outcome: stopping.StoppingOutcome, with_traces: bool) -> dict:
    record = {
        "topic": outcome.topic_id,
        "method": outcome.method,
        "stop_rank": outcome.stop_rank,
        "docs_examined": outcome.docs_examined,
        "rel_found": outcome.rel_found,
        "hit_end": outcome.hit_end,
    }
    if with_traces:
        record["traces"] = [_trace_record(t) for t in outcome.traces]
    return record


def _metrics_record(tm: metrics.TopicMetrics) -> dict:
    return {
        "topic": tm.topic_id,
        "method": tm.method,
        "recall": tm.recall,
        "cost": tm.cost,
        "hit_target": tm.hit_target,
        "RE": tm.relative_error,
        "loss_r": tm.loss_r,
        "loss_e": tm.loss_e,
        "loss_er": tm.loss_er,
    }


def _aggregate_record(method: str, cm: metrics.CollectionMetrics) -> dict:
    return {
        "method": method,
        "topics": cm.topics,
        "reliability": cm.reliability,
        "recall_mean": cm.recall.mean, "recall_std": cm.recall.std,
        "cost_mean": cm.cost.mean, "cost_std": cm.cost.std,
        "RE_mean": cm.relative_error.mean, "RE_std": cm.relative_error.std,
        "loss_r_mean": cm.loss_r.mean, "loss_r_std": cm.loss_r.std,
        "loss_e_mean": cm.loss_e.mean, "loss_e_std": cm.loss_e.std,
        "loss_er_mean": cm.loss_er.mean, "loss_er_std": cm.loss_er.std,
    }


def _csv_text(rows: list[dict]) -> str:
    """CSV with one column per key of the first row, in its key order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = list(rows[0])
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in columns])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _agg_path(output: Path) -> Path:
    return output.with_name(output.stem + ".agg" + output.suffix)


def _print_aggregate_table(agg_rows: list[dict]) -> None:
    columns = list(agg_rows[0])
    keys = columns[: columns.index("topics")]  # the method, or a sweep's combination
    header = keys + ["topics", "reliability", "recall", "cost", "loss_er"]
    print("  ".join(f"{h:>14}" for h in header))
    for row in agg_rows:
        cells = [str(row[k]) for k in keys]
        cells.append(str(row["topics"]))
        cells.append(f"{row['reliability']:.3f}")
        for m in ("recall", "cost", "loss_er"):
            cells.append(f"{row[f'{m}_mean']:.3f}±{row[f'{m}_std']:.3f}")
        print("  ".join(f"{c:>14}" for c in cells))


# --- method runners -------------------------------------------------------


def _run_method(
    method: str,
    topic: corpus.RankedTopic,
    args: argparse.Namespace,
) -> stopping.StoppingOutcome:
    if method in ("ip", "cox"):
        config = _config_from_args(args, process=PROCESS_NAMES[method])
        return stopping.run_stopping(topic, config)
    if method == "oracle":
        return baselines.oracle_stop(topic, args.target_recall)
    if method == "target":
        tc = baselines.TargetConfig(
            target_size=args.target_size,
            seed=_topic_seed(args.seed, topic.topic_id, "target"),
        )
        return baselines.target_stop(topic, tc, method="target")
    if method == "target-adapted":
        # the size formula diverges at recall 1; use the 0.99 convention
        level = min(args.target_recall, 0.99)
        size = baselines.adapted_target_size(level, args.confidence)
        tc = baselines.TargetConfig(
            target_size=size,
            seed=_topic_seed(args.seed, topic.topic_id, "target-adapted"),
        )
        return baselines.target_stop(topic, tc, method="target-adapted")
    if method == "knee":
        kc = baselines.KneeConfig(
            rho_threshold=args.rho,
            alpha=args.alpha,
            beta=args.beta,
            batch_schedule=BATCH_NAMES[args.batch],
        )
        return baselines.knee_stop(topic, kc)
    raise ConfigError(f"unknown method {method!r}")


def _parse_methods(raw: str) -> list[str]:
    """Method names in first-occurrence order, each once."""
    names = list(dict.fromkeys(m.strip() for m in raw.split(",") if m.strip()))
    for name in names:
        if name not in COMPARE_METHODS:
            raise ConfigError(
                f"unknown method {name!r}; valid methods: {', '.join(COMPARE_METHODS)}"
            )
    if not names:
        raise ConfigError("at least one method is required")
    return names


def _compare_over_topics(
    topics: list[corpus.RankedTopic],
    methods: list[str],
    args: argparse.Namespace,
) -> tuple[list[dict], list[dict]]:
    """Per-topic metric rows and aggregate rows, sorted."""
    return _metric_rows([
        metrics.topic_metrics(_run_method(method, topic, args), topic, args.target_recall)
        for topic in topics
        for method in methods
    ])


def _metric_rows(results: list[metrics.TopicMetrics]) -> tuple[list[dict], list[dict]]:
    """Topic rows sorted by (topic, method), and one aggregate row per method."""
    results = sorted(results, key=lambda tm: (tm.topic_id, tm.method))
    topic_rows = [_metrics_record(tm) for tm in results]
    agg_rows = []
    for method in sorted({tm.method for tm in results}):
        group = [tm for tm in results if tm.method == method]
        agg_rows.append(_aggregate_record(method, metrics.aggregate(group)))
    return topic_rows, agg_rows


def _write_metrics_outputs(
    args: argparse.Namespace,
    topic_rows: list[dict],
    agg_rows: list[dict],
) -> None:
    # e.g. RE = |recall - target| / target overflows at a subnormal target
    if not all(
        math.isfinite(v) for row in topic_rows + agg_rows for v in row.values()
        if isinstance(v, float)
    ):
        raise TarStopError("a metric is not finite; is --target-recall too small?")
    if args.format == "json":
        payload = {"aggregates": agg_rows, "topics": topic_rows}
        _emit(_json_text(payload), args.output)
    else:
        _emit(_csv_text(topic_rows), args.output)
        if args.output is not None:
            _agg_path(args.output).write_text(_csv_text(agg_rows), encoding="utf-8")
    if args.output is not None:
        _print_aggregate_table(agg_rows)


# --- subcommands ----------------------------------------------------------


def _cmd_stop(args: argparse.Namespace) -> int:
    topics = _load_topics(args.run, args.qrels)
    config = _config_from_args(args)
    outcomes = [stopping.run_stopping(topic, config) for topic in topics]
    outcomes.sort(key=lambda o: o.topic_id)
    as_json = args.format == "json"
    records = [_outcome_record(o, with_traces=args.trace and as_json) for o in outcomes]
    if as_json:
        _emit(_json_text({"method": config.process.value, "outcomes": records}), args.output)
    else:
        _emit(_csv_text(records), args.output)
    return 0


_OUTCOME_FIELDS = (
    ("method", str), ("topic", str), ("stop_rank", int),
    ("docs_examined", int), ("rel_found", int), ("hit_end", bool),
)


def _outcome_from_record(rec, where: str) -> stopping.StoppingOutcome:
    if not isinstance(rec, dict):
        raise ParseError(f"{where} is malformed: expected an object, got {rec!r}")
    for key, kind in _OUTCOME_FIELDS:
        if key not in rec:
            raise ParseError(f"{where} is malformed: missing field {key!r}")
        value = rec[key]
        # bool subclasses int, so true/false would pass as a count
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ParseError(
                f"{where} is malformed: {key!r} must be {kind.__name__}, got {value!r}"
            )
    return stopping.StoppingOutcome(
        method=rec["method"],
        topic_id=rec["topic"],
        stop_rank=rec["stop_rank"],
        docs_examined=rec["docs_examined"],
        rel_found=rec["rel_found"],
        hit_end=rec["hit_end"],
    )


def _check_outcome_counts(
    outcome: stopping.StoppingOutcome, topic: corpus.RankedTopic, where: str
) -> None:
    if not 1 <= outcome.stop_rank <= outcome.docs_examined <= topic.n:
        raise ParseError(
            f"{where} is impossible: needs 1 <= stop_rank ({outcome.stop_rank}) "
            f"<= docs_examined ({outcome.docs_examined}) <= {topic.n} documents "
            f"in topic {topic.topic_id!r}"
        )
    found = topic.relevant_in_prefix(outcome.stop_rank)
    if not 0 <= outcome.rel_found <= found:
        raise ParseError(
            f"{where} is impossible: rel_found ({outcome.rel_found}) must lie in "
            f"[0, {found}], the relevant documents in ranks 1..{outcome.stop_rank}"
        )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    stopping.StoppingConfig(target_recall=args.target_recall)  # the same range check
    topics = {t.topic_id: t for t in _load_topics(args.run, args.qrels)}
    try:
        payload = json.loads(_read_input(args.outcomes, "outcomes"))
    except (ValueError, RecursionError) as exc:  # syntax, digit limit, nesting
        raise ParseError(f"{args.outcomes}: invalid JSON: {exc}") from exc
    records = payload.get("outcomes") if isinstance(payload, dict) else payload
    if not isinstance(records, list):
        raise ParseError(
            f"{args.outcomes}: expected a list of outcome records "
            "(or an object with an 'outcomes' list)"
        )

    per_topic = []
    for idx, rec in enumerate(records):
        where = f"{args.outcomes}: outcome record {idx}"
        outcome = _outcome_from_record(rec, where)
        topic = topics.get(outcome.topic_id)
        if topic is None:
            raise TopicNotFoundError(
                f"outcome topic {outcome.topic_id!r} missing from run/qrels"
            )
        _check_outcome_counts(outcome, topic, where)
        per_topic.append(metrics.topic_metrics(outcome, topic, args.target_recall))
    if not per_topic:
        raise ParseError(f"{args.outcomes}: no outcome records to evaluate")
    _write_metrics_outputs(args, *_metric_rows(per_topic))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods)
    if "oracle" not in methods:  # the oracle anchors every comparison
        methods.append("oracle")
    topics = _load_topics(args.run, args.qrels)
    topic_rows, agg_rows = _compare_over_topics(topics, methods, args)
    _write_metrics_outputs(args, topic_rows, agg_rows)
    return 0


def _list_flag(raw: str, valid: tuple[str, ...], flag: str) -> list[str]:
    names = [v.strip() for v in raw.split(",") if v.strip()]
    for name in names:
        if name not in valid:
            raise ConfigError(f"{flag}: unknown value {name!r}; expected {valid}")
    if not names:
        raise ConfigError(f"{flag}: at least one value required")
    return names


def _float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: at least one value required")
    return values


def _mark_pareto(agg_rows: list[dict]) -> None:
    """Flag rows not dominated on (cost_mean down, reliability up) within
    each target-recall group."""
    by_level: dict[float, list[dict]] = {}
    for row in agg_rows:
        by_level.setdefault(row["target_recall"], []).append(row)
    for rows in by_level.values():
        for row in rows:
            dominated = any(
                other["cost_mean"] <= row["cost_mean"]
                and other["reliability"] >= row["reliability"]
                and (
                    other["cost_mean"] < row["cost_mean"]
                    or other["reliability"] > row["reliability"]
                )
                for other in rows
            )
            row["pareto"] = not dominated


def _cmd_sweep(args: argparse.Namespace) -> int:
    processes = _list_flag(args.processes, tuple(sorted(PROCESS_NAMES)), "--processes")
    rates = _list_flag(args.rates, tuple(sorted(RATE_NAMES)), "--rates")
    minrels = _list_flag(args.min_rel_rules, MINREL_NAMES, "--min-rel-rules")
    thresholds = _float_list(args.nrmse_thresholds, "--nrmse-thresholds")
    levels = _float_list(args.target_recalls, "--target-recalls")
    confidences = _float_list(args.confidences, "--confidences")

    combos = [
        (proc, rate, thr, mr, level, conf)
        for proc in processes
        for rate in rates
        for thr in thresholds
        for mr in minrels
        for level in levels
        for conf in confidences
    ]
    if len(combos) > 10_000:
        raise ConfigError(
            f"grid of {len(combos)} combinations exceeds the 10000 limit"
        )

    topics = _load_topics(args.run, args.qrels)
    configs = [
        _config_from_args(
            args,
            process=PROCESS_NAMES[proc],
            rate_kind=RATE_NAMES[rate],
            nrmse_threshold=thr,
            min_rel_rule=_min_rel_rule(mr),
            target_recall=level,
            confidence=conf,
        )
        for proc, rate, thr, mr, level, conf in combos
    ]

    per_topic = [
        [
            metrics.topic_metrics(
                stopping.run_stopping(topic, config), topic, config.target_recall
            )
            for config in configs
        ]
        for topic in topics
    ]

    combo_keys = ["process", "rate", "nrmse_threshold", "min_rel", "target_recall", "confidence"]
    topic_rows = []
    agg_rows = []
    for c, combo in enumerate(combos):
        combo_dict = dict(zip(combo_keys, combo))
        group = sorted((tms[c] for tms in per_topic), key=lambda tm: tm.topic_id)
        for tm in group:
            row = dict(combo_dict)
            row.update(_metrics_record(tm))
            del row["method"]
            topic_rows.append(row)
        agg = _aggregate_record("", metrics.aggregate(group))
        del agg["method"]
        agg_rows.append({**combo_dict, **agg})
    _mark_pareto(agg_rows)
    topic_rows.sort(key=lambda r: tuple(str(r[k]) for k in combo_keys + ["topic"]))
    agg_rows.sort(key=lambda r: tuple(str(r[k]) for k in combo_keys))
    _write_metrics_outputs(args, topic_rows, agg_rows)
    return 0


def _load_specs(path: Path) -> list[corpus.SyntheticSpec]:
    try:
        payload = json.loads(_read_input(path, "spec"))
    except (ValueError, RecursionError) as exc:  # syntax, digit limit, nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    entries = payload.get("topics") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ValidationError(
            f"{path}: expected a non-empty list of topic specs "
            "(or an object with a 'topics' list)"
        )
    specs = []
    for idx, entry in enumerate(entries):
        where = f"{path}: spec {idx}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where} must be an object, got {entry!r}")
        for key in ("n", "kind", "params", "seed"):
            if key not in entry:
                raise ValidationError(f"{where} is missing field {key!r}")
        if not isinstance(entry["params"], dict):
            raise ValidationError(f"{where} field 'params' must be an object")
        # bool subclasses int, so true/false would pass as a number
        for key in ("n", "seed"):
            value = entry[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"{where} field {key!r} must be an integer, got {value!r}"
                )
        topic_id = entry.get("topic_id", f"S{idx + 1:03d}")
        if not isinstance(topic_id, str):
            raise ValidationError(
                f"{where} field 'topic_id' must be a string, got {topic_id!r}"
            )
        specs.append(
            corpus.SyntheticSpec(
                n=entry["n"],
                kind=entry["kind"],
                params={
                    k: _spec_number(v, where, f"params.{k}")
                    for k, v in entry["params"].items()
                },
                seed=entry["seed"],
                noise=_spec_number(entry.get("noise", 0.0), where, "noise"),
                topic_id=topic_id,
            )
        )
    return specs


def _spec_number(value, where: str, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{where} field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where} field {key!r} is out of range") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods)
    specs = _load_specs(args.spec)
    topics = [corpus.generate_synthetic(spec) for spec in specs]
    seen = set()
    for topic in topics:  # rows and effectiveness are keyed by topic id
        if topic.topic_id in seen:
            raise ValidationError(
                f"{args.spec}: topic id {topic.topic_id!r} names more than one spec"
            )
        seen.add(topic.topic_id)
    effectiveness = {t.topic_id: metrics.ranking_effectiveness(t) for t in topics}
    topic_rows, agg_rows = _compare_over_topics(topics, methods, args)
    for row in topic_rows:
        row["norm_area"] = effectiveness[row["topic"]]
    _write_metrics_outputs(args, topic_rows, agg_rows)
    return 0


# --- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarstop",
        description="Decide when to stop screening ranked document lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stop = sub.add_parser("stop", help="run the screening loop over run + qrels")
    p_stop.add_argument("--run", type=Path, required=True)
    p_stop.add_argument("--qrels", type=Path, required=True)
    p_stop.add_argument("--trace", action="store_true",
                        help="include per-checkpoint traces (json only)")
    _add_config_flags(p_stop)
    _add_io_flags(p_stop)
    p_stop.set_defaults(func=_cmd_stop)

    p_eval = sub.add_parser("evaluate", help="score saved outcomes at a target recall")
    p_eval.add_argument("--outcomes", type=Path, required=True,
                        help="JSON outcomes file from the stop command")
    p_eval.add_argument("--run", type=Path, required=True)
    p_eval.add_argument("--qrels", type=Path, required=True)
    p_eval.add_argument("--target-recall", type=float, default=0.9, metavar="L")
    _add_io_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="compare stopping methods")
    p_cmp.add_argument("--run", type=Path, required=True)
    p_cmp.add_argument("--qrels", type=Path, required=True)
    p_cmp.add_argument("--methods", default="ip,oracle",
                       help=f"comma list of {', '.join(COMPARE_METHODS)}")
    p_cmp.add_argument("--target-size", type=int, default=10,
                       help="sample size for the plain target method")
    p_cmp.add_argument("--rho", type=float, default=6.0,
                       help="knee slope-ratio threshold")
    _add_config_flags(p_cmp)
    _add_io_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid-search stopping configurations")
    p_sweep.add_argument("--run", type=Path, required=True)
    p_sweep.add_argument("--qrels", type=Path, required=True)
    p_sweep.add_argument("--processes", default="ip")
    p_sweep.add_argument("--rates", default="exp,hyp,pow,ap")
    p_sweep.add_argument("--nrmse-thresholds", default="0.1")
    p_sweep.add_argument("--min-rel-rules", default="dynamic")
    p_sweep.add_argument("--target-recalls", default="0.9")
    p_sweep.add_argument("--confidences", default="0.95")
    _add_config_flags(p_sweep)
    _add_io_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="compare methods on synthetic topics")
    p_sim.add_argument("--spec", type=Path, required=True,
                       help="JSON spec file (list of {topic_id, n, kind, params, seed, noise})")
    p_sim.add_argument("--methods", default="ip,oracle")
    p_sim.add_argument("--target-size", type=int, default=10)
    p_sim.add_argument("--rho", type=float, default=6.0)
    _add_config_flags(p_sim)
    _add_io_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TopicNotFoundError) as exc:
        print(f"tarstop: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValidationError) as exc:
        print(f"tarstop: {exc}", file=sys.stderr)
        return 2
    except TarStopError as exc:
        print(f"tarstop: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
