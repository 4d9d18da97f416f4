"""Self-tests of the output checks; no workload runs.

    python3 -m pytest -q clibench/test_checks.py

Each test builds a small output that obeys the rules the checks encode,
shows the check accepts it, then corrupts one field and shows the check
rejects it.
"""

from __future__ import annotations

import copy
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import checks
from workloads import SIM_METHODS, schedule

A, B, C = 0.3, 0.5, 0.01  # the traced hyperbolic curve


def _labels(n: int, seed: int, head: float = 0.6, tail: float = 0.02) -> np.ndarray:
    rng = np.random.default_rng(seed)
    p = np.where(np.arange(n) < n // 4, head, tail)
    return rng.random(n) < p


def _hyperbolic_mass(i: int, j: int) -> float:
    # closed-form integral of A / (1 + B*C*x)**(1/B) over [i, j]
    e = 1.0 - 1.0 / B
    return A / (C * (B - 1.0)) * ((1 + B * C * j) ** e - (1 + B * C * i) ** e)


def _stop_trace(k: int, rel: int, n: int, rejected: bool) -> dict:
    if rel < 20.0 * (1.0 - k / n):
        return {"k": k, "rel_found": rel, "gate": "too_few_relevant", "curve": None,
                "estimate": None, "total_estimate": None, "stop": False}
    curve = {"kind": "hyperbolic", "params": {"a": A, "b": B, "c": C},
             "variance": [0.1, 0.1, 0.1], "nrmse": 0.15 if rejected else 0.05, "points_used": k // 25}
    if rejected:
        return {"k": k, "rel_found": rel, "gate": "nrmse_rejected", "curve": curve,
                "estimate": None, "total_estimate": None, "stop": False}
    mass = _hyperbolic_mass(k + 1, n)
    upper = int(stats.poisson.ppf(0.95, mass))
    stop = rel >= math.ceil(Fraction(9, 10) * (rel + upper))
    return {"k": k, "rel_found": rel, "gate": "evaluated", "curve": curve,
            "estimate": {"interval": [k + 1, n], "lambda_mass": mass, "upper_bound": upper,
                         "confidence": 0.95, "fallback": False},
            "total_estimate": float(rel + upper), "stop": stop}


def _stop_output(labels: np.ndarray, topic: str = "T1") -> dict:
    n = labels.size
    prefix = np.concatenate([[0], np.cumsum(labels)])
    traces = []
    for i, k in enumerate(schedule(n)):
        traces.append(_stop_trace(k, int(prefix[k]), n, rejected=i == 1))
        if traces[-1]["stop"]:
            break
    k = traces[-1]["k"] if traces[-1]["stop"] else n
    outcome = {"topic": topic, "method": "ip", "stop_rank": k, "docs_examined": k,
               "rel_found": int(prefix[k]), "hit_end": k == n, "traces": traces}
    return {"method": "ip", "outcomes": [outcome]}


@pytest.fixture
def stop_case():
    labels = _labels(4000, 1)
    payload = _stop_output(labels)
    assert not payload["outcomes"][0]["hit_end"], "fixture should stop before the end"
    return payload, {"T1": labels}


def test_stop_accepts_correct(stop_case):
    payload, labels = stop_case
    assert checks.check_stop(payload, labels) == []


def test_stop_rejects_upper_bound_one_below_quantile(stop_case):
    payload, labels = stop_case
    trace = next(t for t in payload["outcomes"][0]["traces"] if t["gate"] == "evaluated"
                 and t["estimate"]["upper_bound"] > 0)
    trace["estimate"]["upper_bound"] -= 1
    trace["total_estimate"] -= 1
    assert any("Poisson quantile" in e for e in checks.check_stop(payload, labels))


def test_stop_rejects_rank_off_the_schedule(stop_case):
    payload, labels = stop_case
    out = payload["outcomes"][0]
    out["stop_rank"] += 1
    out["docs_examined"] += 1
    out["rel_found"] = int(labels["T1"][: out["stop_rank"]].sum())
    assert any("not a checkpoint" in e for e in checks.check_stop(payload, labels))


def test_stop_rejects_wrong_mass_and_flags(stop_case):
    payload, labels = stop_case
    traces = payload["outcomes"][0]["traces"]
    bad_mass = copy.deepcopy(payload)
    evaluated = [t for t in bad_mass["outcomes"][0]["traces"] if t["gate"] == "evaluated"]
    evaluated[0]["estimate"]["lambda_mass"] *= 1.001
    assert any("integrates" in e for e in checks.check_stop(bad_mass, labels))
    rejected = next(t for t in traces if t["gate"] == "nrmse_rejected")
    rejected["curve"]["nrmse"] = 0.05
    assert any("within the threshold" in e for e in checks.check_stop(payload, labels))


def test_stop_rejects_early_stop_flag(stop_case):
    payload, labels = stop_case
    payload["outcomes"][0]["traces"][-2]["stop"] = True
    assert checks.check_stop(payload, labels) != []


def test_parse_lenient_counts_nonfinite_tokens():
    payload, count = checks.parse_lenient('{"v": [Infinity, 1.0, -Infinity, NaN]}')
    assert count == 3 and payload["v"][1] == 1.0


# --- metric rows ------------------------------------------------------------


def _row(truth: checks.Truth, docs: int, found: int, target: float) -> dict:
    n, R = truth.n, truth.R
    recall = found / R
    loss_r = (1 - recall) ** 2
    loss_e = (100 / n) ** 2 * (docs / (R + 100)) ** 2
    return {"recall": recall, "cost": docs / n, "hit_target": recall >= target,
            "RE": abs(recall - target) / target, "loss_r": loss_r, "loss_e": loss_e,
            "loss_er": loss_r + loss_e}


def _aggregate(rows: list[dict]) -> dict:
    agg = {"topics": len(rows), "reliability": sum(r["hit_target"] for r in rows) / len(rows)}
    for field in checks.METRIC_FIELDS:
        values = [r[field] for r in rows]
        agg[f"{field}_mean"] = statistics.fmean(values)
        agg[f"{field}_std"] = statistics.pstdev(values)
    return agg


def _norm_area(labels: np.ndarray) -> float:
    gain = np.cumsum(labels) / labels.sum()
    ideal = np.minimum(np.arange(1, labels.size + 1), labels.sum()) / labels.sum()
    return float(gain.sum() / ideal.sum())


@pytest.fixture
def simulate_case():
    labels = {"C01": _labels(3000, 2), "C02": _labels(3000, 3, head=0.3, tail=0.05)}
    rows = []
    for tid in sorted(labels):
        truth = checks.Truth(labels[tid])
        oracle = truth.oracle_rank(Fraction(9, 10))
        stops = {"ip": truth.schedule[-3], "cox": truth.schedule[-2], "knee": truth.schedule[5],
                 "oracle": oracle}
        for method in sorted(SIM_METHODS.split(",")):
            if method in stops:
                docs = stops[method]
                found = int(truth.prefix[docs])
            else:  # sampled: examined documents exceed the stop rank
                docs, found = truth.n - 7, int(truth.prefix[truth.n - 100])
            row = {"topic": tid, "method": method, **_row(truth, docs, found, 0.9),
                   "norm_area": _norm_area(labels[tid])}
            rows.append(row)
    aggs = [{"method": m, **_aggregate([r for r in rows if r["method"] == m])}
            for m in sorted(SIM_METHODS.split(","))]
    return {"aggregates": aggs, "topics": rows}, labels


def test_simulate_accepts_correct(simulate_case):
    payload, labels = simulate_case
    assert checks.check_simulate(payload, labels) == []


def test_simulate_rejects_recall_one_document_off(simulate_case):
    payload, labels = simulate_case
    row = next(r for r in payload["topics"] if r["method"] == "ip")
    one = 1 / labels[row["topic"]].sum()
    row["recall"] -= one
    assert any("hold" in e for e in checks.check_simulate(payload, labels))
    row["recall"] += 2 * one
    assert any("impossible" in e for e in checks.check_simulate(payload, labels))


def test_simulate_rejects_oracle_and_aggregate_errors(simulate_case):
    payload, labels = simulate_case
    bad = copy.deepcopy(payload)
    row = next(r for r in bad["topics"] if r["method"] == "oracle")
    truth = checks.Truth(labels[row["topic"]])
    docs = round(row["cost"] * truth.n) + 1
    row.update(_row(truth, docs, int(truth.prefix[docs]), 0.9))
    assert any("oracle" in e for e in checks.check_simulate(bad, labels))
    payload["aggregates"][0]["cost_std"] += 1e-6
    assert any("cost_std" in e for e in checks.check_simulate(payload, labels))


# --- sweep ------------------------------------------------------------------

GRID = {"--alpha": "0.05", "--beta": "0.05", "--processes": "ip", "--rates": "exp,hyp",
        "--nrmse-thresholds": "0.1,0.2", "--min-rel-rules": "static10,static20",
        "--target-recalls": "0.8,0.9", "--confidences": "0.9,0.95"}


@pytest.fixture
def sweep_case():
    labels = {"M1": _labels(2000, 4), "M2": _labels(2000, 5, head=0.4)}
    rows, aggs = [], []
    for rate in ("exp", "hyp"):
        for thr in (0.1, 0.2):
            for mr in ("static10", "static20"):
                for level in (0.8, 0.9):
                    for conf in (0.9, 0.95):
                        combo = {"process": "ip", "rate": rate, "nrmse_threshold": thr,
                                 "min_rel": mr, "target_recall": level, "confidence": conf}
                        group = []
                        for tid in sorted(labels):
                            truth = checks.Truth(labels[tid], "0.05")
                            step = (2 * (rate == "hyp") + (thr == 0.1) + (mr == "static20")
                                    + (level == 0.9) + (conf == 0.95) + (tid == "M2"))
                            docs = truth.schedule[3 + 2 * step]
                            row = {**combo, "topic": tid,
                                   **_row(truth, docs, int(truth.prefix[docs]), level)}
                            group.append(row)
                        rows.extend(group)
                        aggs.append({**combo, **_aggregate(group)})
    for agg, flag in zip(aggs, checks._pareto(aggs)):
        agg["pareto"] = flag
    return {"aggregates": aggs, "topics": rows}, labels


def test_sweep_accepts_correct(sweep_case):
    payload, labels = sweep_case
    assert checks.check_sweep(payload, labels, GRID) == []


def test_sweep_rejects_broken_monotonicity(sweep_case):
    payload, labels = sweep_case
    row = next(r for r in payload["topics"] if r["target_recall"] == 0.9 and r["topic"] == "M1")
    truth = checks.Truth(labels["M1"], "0.05")
    docs = truth.schedule[0]
    row.update(_row(truth, docs, int(truth.prefix[docs]), 0.9))
    assert any("target_recall rises" in e for e in checks.check_sweep(payload, labels, GRID))


def test_sweep_rejects_wrong_pareto_flag(sweep_case):
    payload, labels = sweep_case
    payload["aggregates"][3]["pareto"] = not payload["aggregates"][3]["pareto"]
    assert any("pareto" in e for e in checks.check_sweep(payload, labels, GRID))
