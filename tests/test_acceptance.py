"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria summary:
  1  closed-form interval integrals match a Simpson oracle (1000 draws/kind)
  2  published constants reproduce exactly
  3  count quantile satisfies its defining CDF property (10^4 draws)
  4  noiseless fit recovery per rate family
  5  parameter-uncertainty mixture consistency (zero-variance + Monte Carlo)
  6  target-method recall guarantee holds over 1000 seeds
  7  oracle reliability and granularity
  8  50-topic synthetic end-to-end reproduction of the qualitative findings
  9  loss arithmetic identities on all outputs
 10  CLI byte-determinism for every subcommand and any --jobs value
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import tarstop as ts
from tarstop.cli import main

from conftest import composite_simpson
from test_rates import draw_params


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --- shared heavy fixture: the synthetic end-to-end experiment -----------


def _collection_specs():
    """50 exponential-family topics; parameters drawn from meta-seed 20230917."""
    meta = np.random.default_rng(20230917)
    specs = []
    for i in range(50):
        a = float(meta.uniform(0.3, 0.9))
        expected_relevant = float(meta.uniform(60, 400))
        b = -a / expected_relevant
        n = int(meta.integers(2000, 8001))
        seed = int(meta.integers(0, 2**63 - 1))
        specs.append(
            ts.SyntheticSpec(
                n=n, kind="exponential", params={"a": a, "b": b},
                seed=seed, topic_id=f"T{i:02d}",
            )
        )
    return specs


@pytest.fixture(scope="module")
def collection_results():
    topics = [ts.generate_synthetic(s) for s in _collection_specs()]
    per_method = {}
    all_metrics = []
    for label, kind in (
        ("exponential", ts.RateKind.EXPONENTIAL),
        ("hyperbolic", ts.RateKind.HYPERBOLIC),
        ("power", ts.RateKind.POWER_LAW),
    ):
        config = ts.StoppingConfig(target_recall=0.9, confidence=0.95, rate_kind=kind)
        tms = [
            ts.topic_metrics(ts.run_stopping(t, config), t, 0.9) for t in topics
        ]
        per_method[label] = ts.aggregate(tms)
        all_metrics.extend(tms)
    oracle_tms = [ts.topic_metrics(ts.oracle_stop(t, 0.9), t, 0.9) for t in topics]
    per_method["oracle"] = ts.aggregate(oracle_tms)
    all_metrics.extend(oracle_tms)
    return per_method, all_metrics


# --- criteria -------------------------------------------------------------


def test_criterion_1_closed_forms_match_simpson():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for kind in ts.RateKind:
        for _ in range(1000):
            params = draw_params(kind, rng)
            i = float(rng.uniform(1.0, 500.0))
            j = i + float(rng.uniform(1.0, 5000.0))
            if kind is ts.RateKind.AP_PRIOR:
                j = min(j, float(params.n_total))
            closed = ts.rate_integral(params, i, j)
            oracle = composite_simpson(
                lambda x: np.asarray(ts.rate_value(params, x)), i, j
            )
            rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _report(
        1,
        worst < 1e-6 and elapsed < 10.0,
        f"4000 random integrals, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_paper_constants():
    power = ts.RateParams(ts.RateKind.POWER_LAW, a=1.0, b=-2.0)
    flat = ts.RateParams(ts.RateKind.EXPONENTIAL, a=0.05, b=0.0)
    checks = [
        abs(ts.rate_integral(power, 10, 100) - 0.09) <= 1e-12,
        abs(ts.rate_integral(flat, 10, 100) - 4.5) <= 1e-12,
        ts.adapted_target_size(0.7, 0.95) == 10,
        ts.adapted_target_size(0.9, 0.95) == 30,
        ts.adapted_target_size(0.99, 0.95) == 300,
    ]
    _report(2, all(checks), "interval masses 0.09 / 4.5; target sizes 10 / 30 / 300")


def test_criterion_3_quantile_defining_property():
    rng = np.random.default_rng(303)
    bad = 0
    for _ in range(10_000):
        mean = float(rng.uniform(0.0, 50.0))
        p = float(rng.uniform(0.01, 0.999))
        q = ts.poisson_quantile(mean, p)
        # independent direct-summation oracle over scipy mass terms
        terms = stats.poisson.pmf(np.arange(q + 1), mean)
        cdf_q = math.fsum(terms)
        cdf_prev = math.fsum(terms[:-1])
        if not (cdf_q >= p and (q == 0 or cdf_prev < p)):
            bad += 1
    _report(3, bad == 0, f"10^4 quantiles, {bad} violations of the CDF property")


def test_criterion_4_fit_recovery():
    xs = np.arange(10.0, 800.0, 20.0)
    fixtures = [
        (ts.RateKind.EXPONENTIAL, ts.RateParams(ts.RateKind.EXPONENTIAL, a=0.5, b=-0.01)),
        (ts.RateKind.POWER_LAW, ts.RateParams(ts.RateKind.POWER_LAW, a=1.0, b=-1.2)),
        (ts.RateKind.HYPERBOLIC, ts.RateParams(ts.RateKind.HYPERBOLIC, a=0.6, b=0.5, c=0.02)),
        (ts.RateKind.AP_PRIOR, ts.RateParams(ts.RateKind.AP_PRIOR, a=150.0, n_total=5000)),
    ]
    ok = True
    details = []
    for kind, truth in fixtures:
        y = np.asarray(ts.rate_value(truth, xs))
        curve = ts.fit_rate(ts.WindowedEstimates(xs, y, 25), kind, 5000)
        rel_errs = [
            abs(got - want) / abs(want)
            for got, want in zip(curve.params.values(), truth.values())
        ]
        ok &= max(rel_errs) < 1e-2 and curve.nrmse < 1e-4
        details.append(f"{kind.value}: err {max(rel_errs):.1e}")
    # near-zero-curvature fixture: hyperbolic fit degenerates to exponential
    truth = ts.RateParams(ts.RateKind.EXPONENTIAL, a=0.5, b=-0.01)
    pts = ts.WindowedEstimates(xs, np.asarray(ts.rate_value(truth, xs)), 25)
    hyp = ts.fit_rate(pts, ts.RateKind.HYPERBOLIC, 5000)
    exp = ts.fit_rate(pts, ts.RateKind.EXPONENTIAL, 5000)
    gap = np.abs(
        np.asarray(ts.rate_value(hyp.params, xs))
        - np.asarray(ts.rate_value(exp.params, xs))
    ).max()
    ok &= gap < 1e-3
    _report(4, ok, "; ".join(details) + f"; hyp-vs-exp gap {gap:.1e}")


def test_criterion_5_mixture_consistency():
    params = ts.RateParams(ts.RateKind.EXPONENTIAL, a=0.5, b=-0.01)
    certain = ts.RateCurve(params, (0.0, 0.0), 0.0, 20)
    same = ts.estimate_remaining_cox(certain, 100, 1000, 0.95) == ts.estimate_remaining_ip(
        certain, 100, 1000, 0.95
    )

    uncertain = ts.RateCurve(params, (1e-4, 1e-8), 0.0, 20)
    mix = ts.estimate_remaining_cox(uncertain, 100, 1000, 0.95)
    rng = np.random.default_rng(505)
    masses = []
    while len(masses) < 100_000:
        a = rng.normal(0.5, 1e-2)
        b = rng.normal(-0.01, 1e-4)
        if a <= 0 or b > 0:
            continue
        masses.append(
            ts.rate_integral(ts.RateParams(ts.RateKind.EXPONENTIAL, a=a, b=b), 100, 1000)
        )
    mc = float(np.mean(masses))
    rel = abs(mix.lambda_mass - mc) / mc
    _report(
        5,
        same and rel < 0.02,
        f"zero-variance equality {same}; mixture mean vs 1e5-draw MC rel err {rel:.4f}",
    )


def test_criterion_6_target_method_guarantee():
    start = time.monotonic()
    arrangement = np.random.default_rng(606)
    labels = np.zeros(10_000, dtype=bool)
    labels[arrangement.permutation(10_000)[:200]] = True
    topic = ts.RankedTopic("guarantee", labels)
    size = ts.adapted_target_size(0.7, 0.95)
    hits = 0
    runs = 1000
    for seed in range(runs):
        out = ts.target_stop(topic, ts.TargetConfig(target_size=size, seed=seed))
        if out.rel_found / 200 >= 0.7:
            hits += 1
    elapsed = time.monotonic() - start
    _report(
        6,
        hits / runs >= 0.94 and elapsed < 60.0,
        f"recall>=0.7 in {hits}/{runs} runs (target size {size}), {elapsed:.1f}s",
    )


def test_criterion_7_oracle_properties(collection_results):
    per_method, _ = collection_results
    reliability = per_method["oracle"].reliability

    labels = np.zeros(400, dtype=bool)
    labels[np.arange(0, 110, 10)] = True  # 11 relevant documents
    topic = ts.RankedTopic("granularity", labels)
    out = ts.oracle_stop(topic, 0.8)
    recall = out.rel_found / topic.total_relevant
    _report(
        7,
        reliability == 1.0 and abs(recall - 9 / 11) <= 1e-9,
        f"oracle reliability {reliability}; 11-relevant granularity recall {recall:.6f}",
    )


def test_criterion_8_synthetic_end_to_end(collection_results):
    start = time.monotonic()
    per_method, _ = collection_results
    matching = per_method["exponential"]
    hyp = per_method["hyperbolic"]
    power = per_method["power"]
    oracle = per_method["oracle"]

    checks = {
        "matching-rate reliability >= 0.85": matching.reliability >= 0.85,
        "power reliability >= hyperbolic": power.reliability >= hyp.reliability,
        "power mean cost >= hyperbolic": power.cost.mean >= hyp.cost.mean,
        "mean cost < 1.0": all(
            m.cost.mean < 1.0 for m in (matching, hyp, power)
        ),
        "mean cost > oracle": all(
            m.cost.mean > oracle.cost.mean for m in (matching, hyp, power)
        ),
    }
    elapsed = time.monotonic() - start
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        8,
        not failed and elapsed < 300.0,
        f"reliability E/H/P = {matching.reliability:.2f}/{hyp.reliability:.2f}/"
        f"{power.reliability:.2f}; cost E/H/P/oracle = {matching.cost.mean:.2f}/"
        f"{hyp.cost.mean:.2f}/{power.cost.mean:.2f}/{oracle.cost.mean:.2f}"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_9_loss_arithmetic(collection_results):
    _, all_metrics = collection_results
    identity = all(tm.loss_er == tm.loss_r + tm.loss_e for tm in all_metrics)

    labels = np.zeros(100, dtype=bool)
    labels[:20] = True
    topic = ts.RankedTopic("spot", labels)
    outcome = ts.StoppingOutcome("m", "spot", 100, 100, 20, hit_end=True)
    spot = ts.topic_metrics(outcome, topic, 0.9)
    spot_ok = abs(spot.loss_e - 0.6944444444) <= 1e-6 and spot.recall == 1.0
    _report(
        9,
        identity and spot_ok,
        f"loss identity on {len(all_metrics)} outputs; spot loss_e {spot.loss_e:.7f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    run_lines, qrels_lines = [], []
    for t in ("T1", "T2", "T3"):
        n = 400
        probs = 0.5 * np.exp(-0.02 * np.arange(1, n + 1))
        drawn = rng.random(n) < probs
        for r in range(1, n + 1):
            run_lines.append(f"{t} Q0 {t}d{r} {r} {1000 - r} x")
            qrels_lines.append(f"{t} 0 {t}d{r} {int(drawn[r - 1])}")
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    run.write_text("\n".join(run_lines) + "\n")
    qrels.write_text("\n".join(qrels_lines) + "\n")
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"topic_id": "S1", "n": 1500, "kind": "exponential",
         "params": {"a": 0.5, "b": -0.01}, "seed": 11},
        {"topic_id": "S2", "n": 1200, "kind": "uniform",
         "params": {"a": 0.05}, "seed": 12},
    ]))
    base = ["--run", str(run), "--qrels", str(qrels), "--alpha", "0.1",
            "--beta", "0.1", "--window", "10", "--rate", "exp"]

    outcomes = tmp_path / "outcomes.json"
    assert main(["stop", *base, "--output", str(outcomes)]) == 0

    commands = {
        "stop": ["stop", *base, "--trace"],
        "evaluate": ["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                     "--qrels", str(qrels)],
        "compare": ["compare", *base, "--methods",
                    "ip,cox,oracle,target,target-adapted,knee",
                    "--target-recall", "0.8", "--seed", "42"],
        "sweep": ["sweep", *base, "--rates", "exp,pow",
                  "--target-recalls", "0.8,0.9"],
        "simulate": ["simulate", "--spec", str(specs), "--methods",
                     "ip,target,knee", "--rate", "exp", "--alpha", "0.05",
                     "--beta", "0.05", "--window", "10", "--seed", "42"],
    }
    mismatches = []
    for name, argv in commands.items():
        blobs = []
        for idx, jobs in ((0, "1"), (1, "3")):
            out = tmp_path / f"{name}{idx}.json"
            code = main([*argv, "--jobs", jobs, "--output", str(out)])
            assert code == 0, (name, code)
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    _report(
        10,
        not mismatches,
        "byte-identical outputs across reruns and --jobs for "
        f"{len(commands)} subcommands"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )
