"""Command-line front end.

Subcommands:
  stop      run the screening loop over a run + qrels pair
  evaluate  score previously saved outcomes at a target recall
  compare   run several stopping methods and aggregate their metrics
  sweep     grid-search stopping configurations, flagging the Pareto frontier
  simulate  generate synthetic topics from a spec file and compare methods

Outputs are CSV or JSON. Once the whole computation succeeds, each is
serialized straight to its destination, never held whole; a write that
fails removes the files it wrote (no partial files). CSV on stdout
carries the topic rows only: the aggregate rows, and with them sweep's
``pareto`` flags, are written only to the ``.agg.csv`` file beside
``--output``. Every command is deterministic given its flags and seed;
randomized methods default to a fixed seed rather than wall-clock
entropy. Exit codes: 0 success, 2 usage/configuration error
(an output file that cannot be written included), 3 input parse error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import itertools
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

from . import baselines, corpus, metrics, stopping
from .errors import (
    ConfigError,
    DuplicateEntryError,
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

# Flag value -> config value; help and errors list the names in map order.
RATE_NAMES = {
    "ap": RateKind.AP_PRIOR,
    "exp": RateKind.EXPONENTIAL,
    "hyp": RateKind.HYPERBOLIC,
    "pow": RateKind.POWER_LAW,
}
PROCESS_NAMES = {
    "cox": ProcessKind.COX,
    "ip": ProcessKind.INHOMOGENEOUS_POISSON,
}
BATCH_NAMES = {
    "autotar": stopping.BatchSchedule.AUTOTAR,
    "uniform": stopping.BatchSchedule.UNIFORM_FRACTION,
}
MINREL_NAMES = {
    "static10": stopping.StaticMinRel(10),
    "static20": stopping.StaticMinRel(20),
    "dynamic": stopping.DynamicMinRel(),
}
COMPARE_METHODS = ("ip", "cox", "oracle", "target", "target-adapted", "knee")

# The axes of sweep's grid, in the order of its row columns: flag, row
# column, StoppingConfig field, name map (None for a number), default.
_SWEEP_AXES = (
    ("--processes", "process", "process", PROCESS_NAMES, "ip"),
    ("--rates", "rate", "rate_kind", RATE_NAMES, "exp,hyp,pow,ap"),
    ("--nrmse-thresholds", "nrmse_threshold", "nrmse_threshold", None, "0.1"),
    ("--min-rel-rules", "min_rel", "min_rel_rule", MINREL_NAMES, "dynamic"),
    ("--target-recalls", "target_recall", "target_recall", None, "0.9"),
    ("--confidences", "confidence", "confidence", None, "0.95"),
)


def _add_screening_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of how a config screens and fits, read by ``_config_from_args``."""
    g = parser.add_argument_group("screening")
    g.add_argument("--alpha", type=float, default=0.025,
                   help="initial screened fraction (default 0.025)")
    g.add_argument("--beta", type=float, default=0.025,
                   help="screened fraction added per checkpoint (default 0.025)")
    g.add_argument("--batch", choices=BATCH_NAMES, default="uniform")
    g.add_argument("--window", type=int, default=25,
                   help="ranks per estimation window (default 25)")


def _add_policy_flags(parser: argparse.ArgumentParser) -> argparse._ArgumentGroup:
    """Flags of when a config stops, read by ``_policy_config``. Sweep takes
    them as the axes of its grid instead."""
    g = parser.add_argument_group("stopping policy")
    g.add_argument("--target-recall", type=float, default=0.9, metavar="L")
    g.add_argument("--confidence", type=float, default=0.95, metavar="P")
    g.add_argument("--rate", choices=RATE_NAMES, default="hyp")
    g.add_argument("--nrmse-threshold", type=float, default=0.1)
    g.add_argument("--min-rel", choices=MINREL_NAMES, default="dynamic")
    return g


def _add_io_flags(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    """Output flags, and ``--seed`` for a subcommand that runs the target
    methods."""
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--output", type=Path, default=None,
                        help="output file; stdout when omitted. With csv, the "
                             "aggregate rows (and sweep's pareto flags) are written "
                             "only beside it, to NAME.agg.csv")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect "
                             "(topics run one after another)")
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help="base seed of the target and target-adapted samples "
                                 f"(default {DEFAULT_SEED})")


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of a subcommand that compares methods, after its inputs."""
    parser.add_argument("--methods", default="ip,oracle",
                        help=f"comma list of {', '.join(COMPARE_METHODS)}")
    parser.add_argument("--target-size", type=int, default=10,
                        help="sample size for the plain target method")
    parser.add_argument("--rho", type=float, default=6.0,
                        help="knee slope-ratio threshold")
    _add_screening_flags(parser)
    _add_policy_flags(parser)
    _add_io_flags(parser, seed=True)


def _config_from_args(args: argparse.Namespace, **policy) -> stopping.StoppingConfig:
    """The config of the screening flags and the given policy fields."""
    return stopping.StoppingConfig(
        alpha=args.alpha,
        beta=args.beta,
        batch_schedule=BATCH_NAMES[args.batch],
        window_size=args.window,
        **policy,
    )


def _policy_config(args: argparse.Namespace) -> stopping.StoppingConfig:
    """The config of the screening and policy flags, with the default process."""
    return _config_from_args(
        args,
        target_recall=args.target_recall,
        confidence=args.confidence,
        rate_kind=RATE_NAMES[args.rate],
        nrmse_threshold=args.nrmse_threshold,
        min_rel_rule=MINREL_NAMES[args.min_rel],
    )


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


def _parse_input(parse, path: Path, what: str, later: tuple = (), **kwargs):
    """``parse(lines, **kwargs)`` over the lines of ``path``, streamed
    from the file.

    Errors are reported as if every input were decoded whole before any
    is parsed: a malformed line wins only once the rest of its file, and
    each ``(path, what)`` in ``later``, is known to be readable UTF-8.
    """
    try:
        return parse(_input_lines(path, what), **kwargs)
    except ParseError as exc:
        if exc.line is None:  # the file could not be read; parsers name a line
            raise
        for other, other_what in ((path, what), *later):
            _read_input(other, other_what)
        raise ParseError(f"{path}: {exc}") from exc


def _load_topics(run_path: Path, qrels_path: Path) -> list[corpus.RankedTopic]:
    run_args = (corpus.parse_run, run_path, "run", ((qrels_path, "qrels"),))
    # The qrels come first, so the run is labelled as it streams in. Errors
    # rank as if the run came first: when the qrels are faulty, the run is
    # parsed anyway, and an error it raises wins.
    try:
        qrels = _parse_input(corpus.parse_qrels, qrels_path, "qrels")
    except ParseError:
        _parse_input(*run_args, qrels={})
        raise
    topics = _parse_input(*run_args, qrels=qrels)
    if not topics:
        raise ParseError(f"{run_path}: run file contains no topics")
    return topics


def _topic_seed(base: int, topic_id: str, method: str) -> int:
    # Stable across platforms and process pools, unlike hash(). hashlib loads
    # OpenSSL (about 3.4 MiB resident), which no command but one that runs a
    # target method needs.
    import hashlib

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


def _trace_record(
    trace: stopping.IterationTrace, topic: corpus.RankedTopic, config: stopping.StoppingConfig
) -> dict:
    """A checkpoint's record. A checkpoint that the NRMSE floor rejected
    unfitted is fitted here, so that its record shows the curve, or
    ``fit_failed`` if the fit fails."""
    gate, curve = trace.gate, trace.curve
    if gate is stopping.Gate.NRMSE_REJECTED and curve is None:
        curve = stopping.fit_at(topic, config, trace.k)
        if isinstance(curve, TarStopError):
            gate, curve = stopping.Gate.FIT_FAILED, None
    return {
        "k": trace.k,
        "rel_found": trace.rel_found,
        "gate": gate.value,
        "curve": _curve_record(curve),
        "estimate": _estimate_record(trace.estimate),
        "total_estimate": trace.total_estimate,
        "stop": trace.stop_decision,
    }


def _outcome_record(outcome: stopping.StoppingOutcome) -> dict:
    return {
        "topic": outcome.topic_id,
        "method": outcome.method,
        "stop_rank": outcome.stop_rank,
        "docs_examined": outcome.docs_examined,
        "rel_found": outcome.rel_found,
        "hit_end": outcome.hit_end,
    }


def _metrics_record(tm: metrics.TopicMetrics) -> dict:
    """A topic row's metric columns, which follow the columns naming it."""
    return {
        "recall": tm.recall,
        "cost": tm.cost,
        "hit_target": tm.hit_target,
        "RE": tm.relative_error,
        "loss_r": tm.loss_r,
        "loss_e": tm.loss_e,
        "loss_er": tm.loss_er,
    }


def _aggregate_record(cm: metrics.CollectionMetrics) -> dict:
    """An aggregate row's columns, which follow the columns naming it."""
    return {
        "topics": cm.topics,
        "reliability": cm.reliability,
        "recall_mean": cm.recall.mean, "recall_std": cm.recall.std,
        "cost_mean": cm.cost.mean, "cost_std": cm.cost.std,
        "RE_mean": cm.relative_error.mean, "RE_std": cm.relative_error.std,
        "loss_r_mean": cm.loss_r.mean, "loss_r_std": cm.loss_r.std,
        "loss_e_mean": cm.loss_e.mean, "loss_e_std": cm.loss_e.std,
        "loss_er_mean": cm.loss_er.mean, "loss_er_std": cm.loss_er.std,
    }


def _write_csv(rows: list[dict], f) -> None:
    """CSV with one column per key of the first row, in its key order."""
    writer = csv.writer(f, lineterminator="\n")
    columns = list(rows[0])
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in columns])


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _write_json(payload, f) -> None:
    json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
    f.write("\n")


def _emit(output: Path | None, write, content, agg_content=None) -> None:
    """``write(content, f)`` to ``output``, or to stdout when it is None, and
    ``write(agg_content, f)`` to the aggregate file beside ``output``. Each
    output is serialized straight to its destination, so none is held
    whole. An exception raised while writing removes the files written so
    far; an ``OSError`` then exits as a ConfigError."""
    if output is None:
        write(content, sys.stdout)
        return
    written = []
    try:
        for path, data in ((output, content), (_agg_path(output), agg_content)):
            if data is not None:
                with open(path, "w", encoding="utf-8") as f:
                    written.append(path)
                    write(data, f)
    except BaseException as exc:
        for done in written:
            done.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(
                f"cannot write output file {path}: {exc.strerror or exc}") from None
        raise


def _agg_path(output: Path) -> Path:
    return output.parent / f"{output.stem}.agg{output.suffix}"  # "." has no name to replace


def _print_aggregate_table(agg_rows: list[dict]) -> None:
    columns = list(agg_rows[0])
    keys = columns[: columns.index("topics")]  # the method, or a sweep's combination
    header = keys + ["topics", "reliability", "recall", "cost", "loss_er"]
    print("  ".join(f"{h:>14}" for h in header))
    for row in agg_rows:
        cells = [*(str(row[k]) for k in keys), str(row["topics"]), f"{row['reliability']:.3f}"]
        for m in ("recall", "cost", "loss_er"):
            cells.append(f"{row[f'{m}_mean']:.3f}±{row[f'{m}_std']:.3f}")
        print("  ".join(f"{c:>14}" for c in cells))


# --- method runners -------------------------------------------------------


def _run_method(
    method: str,
    topic: corpus.RankedTopic,
    args: argparse.Namespace,
    config: stopping.StoppingConfig,
) -> stopping.StoppingOutcome:
    if method in ("ip", "cox"):
        return stopping.run_stopping(topic, replace(config, process=PROCESS_NAMES[method]))
    if method == "oracle":
        return baselines.oracle_stop(topic, config.target_recall)
    if method in ("target", "target-adapted"):
        size = args.target_size
        if method == "target-adapted":  # the formula diverges at recall 1: use 0.99
            size = baselines.adapted_target_size(min(config.target_recall, 0.99), config.confidence)
        seed = _topic_seed(args.seed, topic.topic_id, method)
        tc = baselines.TargetConfig(target_size=size, seed=seed)
        return baselines.target_stop(topic, tc, method=method)
    if method == "knee":  # on the checkpoints of config's schedule
        return baselines.knee_stop(topic, baselines.KneeConfig(rho_threshold=args.rho), config)
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


def _compare_config(args: argparse.Namespace) -> stopping.StoppingConfig:
    """The one config every compared method reads, once every flag is checked."""
    config = _policy_config(args)
    baselines.TargetConfig(target_size=args.target_size, seed=0)  # seeds are per topic
    baselines.KneeConfig(rho_threshold=args.rho)
    return config


def _compare_over_topics(
    topics: list[corpus.RankedTopic],
    methods: list[str],
    args: argparse.Namespace,
    config: stopping.StoppingConfig,
) -> tuple[list[dict], list[dict]]:
    """Per-topic metric rows and aggregate rows, sorted."""
    return _metric_rows([
        metrics.topic_metrics(_run_method(method, topic, args, config), topic, config.target_recall)
        for topic in topics
        for method in methods
    ])


def _metric_rows(results: list[metrics.TopicMetrics]) -> tuple[list[dict], list[dict]]:
    """Topic rows sorted by (topic, method), and one aggregate row per method."""
    results = sorted(results, key=lambda tm: (tm.topic_id, tm.method))
    topic_rows = [
        {"topic": tm.topic_id, "method": tm.method, **_metrics_record(tm)} for tm in results
    ]
    agg_rows = []
    for method in sorted({tm.method for tm in results}):
        group = [tm for tm in results if tm.method == method]
        agg_rows.append({"method": method, **_aggregate_record(metrics.aggregate(group))})
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
        _emit(args.output, _write_json, {"aggregates": agg_rows, "topics": topic_rows})
    else:
        _emit(args.output, _write_csv, topic_rows, agg_rows)
    if args.output is not None:
        _print_aggregate_table(agg_rows)


# --- subcommands ----------------------------------------------------------


def _cmd_stop(args: argparse.Namespace) -> int:
    topics = _load_topics(args.run, args.qrels)
    config = replace(_policy_config(args), process=PROCESS_NAMES[args.process])
    outcomes = [stopping.run_stopping(topic, config) for topic in topics]  # by topic id
    as_json = args.format == "json"
    records = [_outcome_record(outcome) for outcome in outcomes]
    if args.trace and as_json:
        for record, outcome, topic in zip(records, outcomes, topics):
            record["traces"] = [_trace_record(t, topic, config) for t in outcome.traces]
    if as_json:
        _emit(args.output, _write_json, {"method": config.process.value, "outcomes": records})
    else:
        _emit(args.output, _write_csv, records)
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
    first_index = {}  # (method, topic) -> index of its first record
    for idx, rec in enumerate(records):
        where = f"{args.outcomes}: outcome record {idx}"
        outcome = _outcome_from_record(rec, where)
        key = (outcome.method, outcome.topic_id)
        if key in first_index:
            raise DuplicateEntryError(
                f"{where} repeats outcome record {first_index[key]}: method "
                f"{outcome.method!r}, topic {outcome.topic_id!r}"
            )
        first_index[key] = idx
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
    topic_rows, agg_rows = _compare_over_topics(topics, methods, args, _compare_config(args))
    _write_metrics_outputs(args, topic_rows, agg_rows)
    return 0


def _axis_values(raw: str, flag: str, names: dict | None) -> list:
    """The comma-separated values of one sweep axis: keys of ``names``, or
    finite numbers when it is None, each once in first-occurrence order."""
    values = []
    for entry in (v for v in raw.split(",") if v.strip()):
        if names is None:
            try:
                value = float(entry)
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
            if not math.isfinite(value):  # no strict-JSON row could hold it
                raise ConfigError(f"{flag}: value {entry.strip()!r} is not finite")
        elif (value := entry.strip()) not in names:
            raise ConfigError(f"{flag}: unknown value {value!r}; expected {tuple(names)}")
        values.append(value)
    if not values:
        raise ConfigError(f"{flag}: at least one value required")
    return list(dict.fromkeys(values))  # 0.9 and 0.90 are one value


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
    points = list(itertools.product(*(
        _axis_values(getattr(args, flag[2:].replace("-", "_")), flag, names)
        for flag, _, _, names, _ in _SWEEP_AXES
    )))
    if len(points) > 10_000:
        raise ConfigError(f"grid of {len(points)} combinations exceeds the 10000 limit")
    topics = _load_topics(args.run, args.qrels)
    # every point's config is checked before any topic is screened
    configs = [
        _config_from_args(args, **{
            field: value if names is None else names[value]
            for (_, _, field, names, _), value in zip(_SWEEP_AXES, point)
        })
        for point in points
    ]
    columns = [column for _, column, *_ in _SWEEP_AXES]
    topic_rows, agg_rows = [], []
    for point, config in zip(points, configs):
        keys = dict(zip(columns, point))
        group = [
            metrics.topic_metrics(stopping.run_stopping(topic, config), topic, config.target_recall)
            for topic in topics
        ]
        topic_rows += [{**keys, "topic": tm.topic_id, **_metrics_record(tm)} for tm in group]
        agg_rows.append({**keys, **_aggregate_record(metrics.aggregate(group))})
    _mark_pareto(agg_rows)
    topic_rows.sort(key=lambda r: tuple(str(r[k]) for k in columns + ["topic"]))
    agg_rows.sort(key=lambda r: tuple(str(r[k]) for k in columns))
    _write_metrics_outputs(args, topic_rows, agg_rows)
    return 0


_SPEC_FIELDS = ("n", "kind", "params", "seed", "noise", "topic_id")


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
        unknown = [key for key in entry if key not in _SPEC_FIELDS]
        if unknown:
            raise ValidationError(
                f"{where}: unknown field {unknown[0]!r}; "
                f"expected one of {', '.join(_SPEC_FIELDS)}"
            )
        for key in ("n", "kind", "params", "seed"):
            if key not in entry:
                raise ValidationError(f"{where} is missing field {key!r}")
        try:
            specs.append(corpus.SyntheticSpec(
                n=entry["n"], kind=entry["kind"], params=entry["params"], seed=entry["seed"],
                noise=entry.get("noise", 0.0), topic_id=entry.get("topic_id", f"S{idx + 1:03d}"),
            ))
        except ValidationError as exc:  # a field's type or range, or the family's constraints
            raise ValidationError(f"{where}: {exc}") from None
    return specs


def _cmd_simulate(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods)
    specs = _load_specs(args.spec)
    seen = set()
    for spec in specs:  # rows and effectiveness are keyed by topic id
        if spec.topic_id in seen:
            raise ValidationError(
                f"{args.spec}: topic id {spec.topic_id!r} names more than one spec"
            )
        seen.add(spec.topic_id)
    config = _compare_config(args)  # checked before any topic is generated
    topics = [corpus.generate_synthetic(spec) for spec in specs]
    effectiveness = {t.topic_id: metrics.ranking_effectiveness(t) for t in topics}
    topic_rows, agg_rows = _compare_over_topics(topics, methods, args, config)
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
    _add_screening_flags(p_stop)
    _add_policy_flags(p_stop).add_argument("--process", choices=PROCESS_NAMES, default="ip")
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
    _add_method_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid-search stopping configurations")
    p_sweep.add_argument("--run", type=Path, required=True)
    p_sweep.add_argument("--qrels", type=Path, required=True)
    axes = p_sweep.add_argument_group("grid axes (comma lists)")
    for flag, column, _, names, default in _SWEEP_AXES:
        of = f" of {{{','.join(names)}}}" if names else ""
        axes.add_argument(flag, default=default, metavar="LIST",
                          help=f"{column} values{of} (default {default})")
    _add_screening_flags(p_sweep)
    _add_io_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="compare methods on synthetic topics")
    p_sim.add_argument("--spec", type=Path, required=True,
                       help="JSON spec file (list of {topic_id, n, kind, params, seed, noise})")
    _add_method_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # glibc raises its mmap threshold to the size of each large block it
    # frees; the heap then fragments by layout, and the peak resident set
    # moves by megabytes with, say, a path's length. Keep glibc's default.
    if sys.platform == "linux" and hasattr(libc := ctypes.CDLL(None), "mallopt"):
        libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
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
