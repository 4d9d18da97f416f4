"""Output checks computed apart from the program.

Each check takes the parsed output of one execution and the labels the
benchmark generated itself, and returns a list of error strings (empty when
the output is right). Nothing here imports the program: schedules, quantiles,
integrals, oracle ranks, gain-curve areas, aggregates, monotonicity and
Pareto dominance are all recomputed from the labels and the CLI settings.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

from workloads import ALPHA, CONFIDENCE, NRMSE_THRESHOLD, SIM_METHODS, TARGET, schedule

MAX_ERRORS = 20
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Slack when comparing a Poisson CDF with the confidence level: the program
# sums the mass function directly, scipy uses the regularized gamma function.
CDF_TOL = 1e-9
METRIC_FIELDS = ("recall", "cost", "RE", "loss_r", "loss_e", "loss_er")


def parse_lenient(text: str) -> tuple[object, int]:
    """Parse JSON that may hold bare Infinity/NaN tokens; return the payload
    and how many such tokens it held (standard JSON allows none)."""
    count = 0

    def constant(token: str) -> float:
        nonlocal count
        count += 1
        return float(token)

    return json.loads(text, parse_constant=constant), count


def _close(got, want, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


def _whole(value: float, tag: str, what: str, errors: list[str]) -> int | None:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        errors.append(f"{tag}: {what} is not a finite number: {value!r}")
        return None
    nearest = round(value)
    if abs(value - nearest) > 1e-6:
        errors.append(f"{tag}: {what} = {value!r} is not a whole number")
        return None
    return int(nearest)


class Truth:
    """Per-topic facts derived from the labels alone."""

    def __init__(self, labels: np.ndarray, alpha: str = ALPHA):
        self.labels = np.asarray(labels, dtype=bool)
        self.n = int(self.labels.size)
        self.prefix = np.concatenate([[0], np.cumsum(self.labels)]).astype(int)
        self.R = int(self.prefix[-1])
        self.relevant_ranks = np.flatnonzero(self.labels) + 1
        self.schedule = schedule(self.n, alpha)

    def oracle_rank(self, target: Fraction) -> int:
        if self.R == 0:
            return 1
        needed = math.ceil(target * self.R)
        return int(self.relevant_ranks[needed - 1])

    def norm_area(self) -> float:
        # Area under cumulative recall, sum_i prefix(i)/R = sum over relevant
        # ranks r of (n - r + 1)/R, over the ideal area (R + 1)/2 + n - R.
        if self.R == 0:
            return 1.0
        gain = Fraction(int((self.n + 1 - self.relevant_ranks).sum()), self.R)
        ideal = Fraction(self.R + 1, 2) + self.n - self.R
        return float(gain / ideal)


# --- stop --trace -----------------------------------------------------------


def _hyperbolic_rate(params: dict):
    a, b, c = params["a"], params["b"], params["c"]
    if b < 1e-9:  # the family's b -> 0 limit, exponential decay
        return lambda x: a * math.exp(-c * x)
    return lambda x: a * (1.0 + b * c * x) ** (-1.0 / b)


def _check_evaluated(trace: dict, n: int, tag: str, errors: list[str]) -> None:
    k, rel = trace["k"], trace["rel_found"]
    curve, est = trace["curve"], trace["estimate"]
    if curve is None or est is None:
        errors.append(f"{tag}: evaluated trace lacks its curve or estimate")
        return
    if curve["kind"] != "hyperbolic":
        errors.append(f"{tag}: curve kind {curve['kind']!r}, expected hyperbolic")
        return
    if not curve["nrmse"] <= NRMSE_THRESHOLD:
        errors.append(f"{tag}: evaluated with nrmse {curve['nrmse']} above the gate")
    if est["interval"] != [k + 1, n] or est["confidence"] != CONFIDENCE or est["fallback"]:
        errors.append(f"{tag}: estimate interval/confidence/fallback wrong: {est}")
    mass, upper = est["lambda_mass"], est["upper_bound"]
    if not (isinstance(upper, int) and upper >= 0 and isinstance(mass, float) and mass >= 0):
        errors.append(f"{tag}: malformed estimate {est}")
        return
    if stats.poisson.cdf(upper, mass) < CONFIDENCE - CDF_TOL or (
        upper > 0 and stats.poisson.cdf(upper - 1, mass) >= CONFIDENCE + CDF_TOL
    ):
        errors.append(f"{tag}: upper_bound {upper} is not the 0.95 Poisson quantile of {mass}")
    want, _ = integrate.quad(
        _hyperbolic_rate(curve["params"]), k + 1, n, limit=200, epsabs=0.0, epsrel=1e-11
    )
    if not _close(mass, want, rel=1e-7, abs_=1e-10):
        errors.append(f"{tag}: lambda_mass {mass} but the curve integrates to {want}")
    if trace["total_estimate"] != rel + upper:
        errors.append(f"{tag}: total_estimate {trace['total_estimate']} != {rel} + {upper}")
    # stop iff rel >= ceil(0.9 * total), i.e. 10 * rel >= 9 * total for whole rel
    target = Fraction(TARGET)
    if trace["stop"] != (rel >= math.ceil(target * (rel + upper))):
        errors.append(f"{tag}: stop flag {trace['stop']} disagrees with the target rule")


def _check_trace(trace: dict, truth: Truth, expect_stop: bool, tag: str, errors: list[str]) -> None:
    k, rel, gate = trace["k"], trace["rel_found"], trace["gate"]
    n = truth.n
    if rel != truth.prefix[k]:
        errors.append(f"{tag}: rel_found {rel}, labels give {truth.prefix[k]}")
    passes_min_rel = rel >= 20.0 * (1.0 - k / n)  # the dynamic rule
    if gate == "too_few_relevant":
        if passes_min_rel or trace["curve"] is not None:
            errors.append(f"{tag}: too_few_relevant with {rel} relevant at k={k}")
    elif not passes_min_rel:
        errors.append(f"{tag}: gate {gate} reached with only {rel} relevant")
    if gate == "nrmse_rejected":
        if trace["curve"] is None or not trace["curve"]["nrmse"] > NRMSE_THRESHOLD:
            errors.append(f"{tag}: NRMSE-rejected trace has nrmse within the threshold")
    elif gate == "evaluated":
        _check_evaluated(trace, n, tag, errors)
    elif gate not in ("too_few_relevant", "fit_failed"):
        errors.append(f"{tag}: unknown gate {gate!r}")
    if gate != "evaluated" and (trace["estimate"] is not None or trace["stop"]):
        errors.append(f"{tag}: gate {gate} carries an estimate or a stop")
    if trace["stop"] != expect_stop:
        errors.append(f"{tag}: stop flag {trace['stop']}, expected {expect_stop}")


def check_stop(payload: dict, labels: dict[str, np.ndarray]) -> list[str]:
    """Check ``stop --trace`` output with the default configuration."""
    errors: list[str] = []
    if payload.get("method") != "ip":
        errors.append(f"method {payload.get('method')!r}, expected 'ip'")
    outcomes = payload.get("outcomes", [])
    if [o["topic"] for o in outcomes] != sorted(labels):
        errors.append("outcome topics differ from the input topics")
    for out in outcomes:
        if out["topic"] not in labels:
            continue
        truth = Truth(labels[out["topic"]])
        tag, k, n = out["topic"], out["stop_rank"], truth.n
        if not (isinstance(k, int) and 1 <= k <= n):
            errors.append(f"{tag}: stop_rank {k!r} outside 1..{n}")
            continue
        if out["docs_examined"] != k:
            errors.append(f"{tag}: docs_examined {out['docs_examined']} != stop_rank {k}")
        if out["rel_found"] != truth.prefix[k]:
            errors.append(f"{tag}: rel_found {out['rel_found']}, labels give {truth.prefix[k]}")
        if out["hit_end"] != (k == n):
            errors.append(f"{tag}: hit_end {out['hit_end']} at stop_rank {k} of {n}")
        if k != n and k not in truth.schedule:
            errors.append(f"{tag}: stop_rank {k} is not a checkpoint")
            continue
        expected = truth.schedule if k == n else truth.schedule[: truth.schedule.index(k) + 1]
        traces = out.get("traces", [])
        if [t["k"] for t in traces] != expected:
            errors.append(f"{tag}: traced checkpoints differ from the schedule")
            continue
        for i, trace in enumerate(traces):
            stop_here = k != n and i == len(traces) - 1
            _check_trace(trace, truth, stop_here, f"{tag}@{trace['k']}", errors)
    return errors[:MAX_ERRORS]


# --- metric rows (simulate, sweep) -------------------------------------------


def _check_row(row: dict, truth: Truth, method: str, tag: str, errors: list[str]) -> int | None:
    """Check one topic-metrics row; return documents examined when sound."""
    n, R = truth.n, truth.R
    target = Fraction(str(row.get("target_recall", TARGET)))
    docs = _whole(row["cost"] * n, tag, "cost * n", errors)
    found = _whole(row["recall"] * R, tag, "recall * R", errors) if R else 0
    if docs is None or found is None:
        return None
    if not 1 <= docs <= n or not 0 <= found <= min(R, truth.prefix[docs]):
        errors.append(f"{tag}: impossible counts: {docs} examined, {found} found")
        return None
    recall = found / R if R else 1.0
    loss_r = (1.0 - recall) ** 2
    loss_e = (100.0 / n) ** 2 * (docs / (R + 100.0)) ** 2
    want = {
        "recall": recall, "cost": docs / n, "RE": abs(recall - float(target)) / float(target),
        "loss_r": loss_r, "loss_e": loss_e, "loss_er": loss_r + loss_e,
    }
    for key, value in want.items():
        if not _close(row[key], value):
            errors.append(f"{tag}: {key} {row[key]!r}, expected {value!r}")
    hit = R == 0 or Fraction(found, R) >= target
    if row["hit_target"] is not hit:
        errors.append(f"{tag}: hit_target {row['hit_target']} with recall {found}/{R}")
    oracle = truth.oracle_rank(target)
    if method in ("ip", "cox", "knee", "oracle") and found != truth.prefix[docs]:
        errors.append(f"{tag}: {found} found but ranks 1..{docs} hold {truth.prefix[docs]}")
    if method in ("ip", "cox") and docs != n and docs not in truth.schedule:
        errors.append(f"{tag}: stop at {docs}, not a checkpoint")
    if method == "knee" and docs != n and (docs < 3 or docs not in truth.schedule):
        errors.append(f"{tag}: knee stop at {docs}, not a checkpoint")
    if method == "oracle" and docs != oracle:
        errors.append(f"{tag}: oracle cost {docs}, the target is first reached at {oracle}")
    if hit and docs < oracle:
        errors.append(f"{tag}: reaches the target at cost {docs}, below the oracle's {oracle}")
    return docs


def _check_aggregates(agg_rows: list[dict], groups: dict, key_fields: list[str], errors) -> None:
    """Aggregates are mean, population std and hit share of the topic rows."""
    seen = []
    for agg in agg_rows:
        key = tuple(agg.get(f) for f in key_fields)
        seen.append(key)
        rows = groups.get(key)
        if not rows:
            errors.append(f"aggregate {key} has no topic rows")
            continue
        tag = f"aggregate {key}"
        if agg["topics"] != len(rows):
            errors.append(f"{tag}: topics {agg['topics']} != {len(rows)}")
        share = sum(r["hit_target"] for r in rows) / len(rows)
        if not _close(agg["reliability"], share):
            errors.append(f"{tag}: reliability {agg['reliability']} != {share}")
        for field in METRIC_FIELDS:
            values = [r[field] for r in rows]
            for stat, want in (("mean", statistics.fmean(values)), ("std", statistics.pstdev(values))):
                if not _close(agg[f"{field}_{stat}"], want, abs_=1e-9):
                    errors.append(f"{tag}: {field}_{stat} {agg[f'{field}_{stat}']} != {want}")
    if sorted(seen, key=str) != sorted(groups, key=str):
        errors.append("aggregate rows do not match the topic-row groups")


def check_simulate(payload: dict, labels: dict[str, np.ndarray]) -> list[str]:
    """Check ``simulate --methods ip,cox,oracle,target,target-adapted,knee``."""
    errors: list[str] = []
    methods = sorted(SIM_METHODS.split(","))
    rows = payload.get("topics", [])
    if [(r["topic"], r["method"]) for r in rows] != [(t, m) for t in sorted(labels) for m in methods]:
        errors.append("topic rows do not cover every (topic, method) once, in order")
    groups: dict[tuple, list[dict]] = {}
    truths = {t: Truth(v) for t, v in labels.items()}
    for row in rows:
        truth = truths.get(row["topic"])
        if truth is None:
            continue
        tag = f"{row['topic']}/{row['method']}"
        _check_row(row, truth, row["method"], tag, errors)
        if not _close(row["norm_area"], truth.norm_area()):
            errors.append(f"{tag}: norm_area {row['norm_area']} != {truth.norm_area()}")
        groups.setdefault((row["method"],), []).append(row)
    _check_aggregates(payload.get("aggregates", []), groups, ["method"], errors)
    return errors[:MAX_ERRORS]


SWEEP_KEYS = ("process", "rate", "nrmse_threshold", "min_rel", "target_recall", "confidence")
# (field, order of its values, +1 if cost may only rise along that order, -1 if only fall)
MONOTONE = (
    ("target_recall", None, +1),
    ("confidence", None, +1),
    ("nrmse_threshold", None, -1),
    ("min_rel", ("static10", "static20"), +1),
)


def _monotonicity(costs: dict[tuple, int], errors: list[str]) -> None:
    """Cost never falls as target recall, confidence or the static min-rel
    count rises, and never rises as the NRMSE threshold rises."""
    for field, order, sign in MONOTONE:
        pos = SWEEP_KEYS.index(field)
        values = order or sorted({key[pos] for key in costs})
        for key, docs in costs.items():
            i = values.index(key[pos]) if key[pos] in values else -1
            if i < 0 or i + 1 >= len(values):
                continue
            nxt = key[:pos] + (values[i + 1],) + key[pos + 1:]
            if nxt in costs and sign * (costs[nxt] - docs) < 0:
                errors.append(f"cost {docs} -> {costs[nxt]} as {field} rises, at {key}")


def _pareto(agg_rows: list[dict]) -> list[bool]:
    flags = []
    for row in agg_rows:
        dominated = False
        for other in agg_rows:
            if other["target_recall"] != row["target_recall"]:
                continue
            no_worse = other["cost_mean"] <= row["cost_mean"] and other["reliability"] >= row["reliability"]
            better = other["cost_mean"] < row["cost_mean"] or other["reliability"] > row["reliability"]
            dominated |= no_worse and better
        flags.append(not dominated)
    return flags


def check_sweep(payload: dict, labels: dict[str, np.ndarray], grid: dict[str, str]) -> list[str]:
    """Check ``sweep`` rows, aggregates, monotonicity and Pareto flags."""
    errors: list[str] = []
    if grid["--alpha"] != grid["--beta"]:
        raise ValueError("the sweep checks assume alpha == beta")
    axes = {
        "process": grid["--processes"].split(","),
        "rate": grid["--rates"].split(","),
        "nrmse_threshold": [float(v) for v in grid["--nrmse-thresholds"].split(",")],
        "min_rel": grid["--min-rel-rules"].split(","),
        "target_recall": [float(v) for v in grid["--target-recalls"].split(",")],
        "confidence": [float(v) for v in grid["--confidences"].split(",")],
    }
    rows = payload.get("topics", [])
    costs: dict[tuple, int] = {}
    groups: dict[tuple, list[dict]] = {}
    truths = {t: Truth(v, grid["--alpha"]) for t, v in labels.items()}
    for row in rows:
        combo = tuple(row.get(k) for k in SWEEP_KEYS)
        key = combo + (row.get("topic"),)
        truth = truths.get(row.get("topic"))
        if truth is None or key in costs or any(v not in axes[k] for k, v in zip(SWEEP_KEYS, combo)):
            errors.append(f"unexpected or repeated sweep row {key}")
            continue
        docs = _check_row(row, truth, row["process"], "/".join(map(str, key)), errors)
        if docs is not None:
            costs[key] = docs
        groups.setdefault(combo, []).append(row)
    expected = math.prod(len(v) for v in axes.values()) * len(labels)
    if len(rows) != expected:
        errors.append(f"{len(rows)} sweep rows, expected {expected}")
    _monotonicity(costs, errors)
    agg_rows = payload.get("aggregates", [])
    _check_aggregates(agg_rows, groups, list(SWEEP_KEYS), errors)
    for row, flag in zip(agg_rows, _pareto(agg_rows)):
        if row.get("pareto") is not flag:
            errors.append(f"pareto flag {row.get('pareto')} for {[row[k] for k in SWEEP_KEYS]}, "
                          f"dominance gives {flag}")
    return errors[:MAX_ERRORS]
