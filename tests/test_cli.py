"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from tarstop.cli import main

METRIC_HEADER = "topic,method,recall,cost,hit_target,RE,loss_r,loss_e,loss_er"


@pytest.fixture
def fixture_files(tmp_path):
    """Three-topic run/qrels pair with exponentially declining relevance."""
    rng = np.random.default_rng(5)
    run_lines, qrels_lines = [], []
    for t in ("T1", "T2", "T3"):
        n = 400
        probs = 0.5 * np.exp(-0.02 * np.arange(1, n + 1))
        labels = rng.random(n) < probs
        for r in range(1, n + 1):
            run_lines.append(f"{t} Q0 {t}d{r} {r} {1000 - r} demo")
            qrels_lines.append(f"{t} 0 {t}d{r} {int(labels[r - 1])}")
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    run.write_text("\n".join(run_lines) + "\n")
    qrels.write_text("\n".join(qrels_lines) + "\n")
    return run, qrels


@pytest.fixture
def spec_file(tmp_path):
    specs = {
        "topics": [
            {"topic_id": "S1", "n": 1500, "kind": "exponential",
             "params": {"a": 0.5, "b": -0.01}, "seed": 11},
            {"topic_id": "S2", "n": 2000, "kind": "hyperbolic",
             "params": {"a": 0.4, "b": 0.5, "c": 0.01}, "seed": 12},
            {"topic_id": "S3", "n": 1200, "kind": "uniform",
             "params": {"a": 0.05}, "seed": 13},
        ]
    }
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(specs))
    return path


def write_topics(tmp_path, labels_by_topic):
    run_lines, qrels_lines = [], []
    for t, labels in labels_by_topic.items():
        n = len(labels)
        for r in range(1, n + 1):
            run_lines.append(f"{t} Q0 {t}d{r} {r} {n - r} x")
            qrels_lines.append(f"{t} 0 {t}d{r} {int(labels[r - 1])}")
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    run.write_text("\n".join(run_lines) + "\n")
    qrels.write_text("\n".join(qrels_lines) + "\n")
    return run, qrels


def singular_fit_files(tmp_path):
    # first checkpoint = 75 ranks = exactly three windows; the
    # three-parameter hyperbolic fit leaves no residual dof
    block = (
        [1, 1, 1, 0, 0] * 5 + [1, 0, 0, 0, 0] * 5
        + [1, 0, 0, 0, 1, 0, 0, 0, 0, 0] * 2 + [0] * 5
    )
    return write_topics(tmp_path, {"T": block + [0] * (3000 - len(block))})


def flags(run, qrels):
    # small collection: larger batches and windows keep the loop fast
    return ["--run", str(run), "--qrels", str(qrels),
            "--alpha", "0.1", "--beta", "0.1", "--window", "10", "--rate", "exp"]


class TestStopCommand:
    def test_json_records_per_topic(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "out.json"
        assert main(["stop", *flags(run, qrels), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [r["topic"] for r in payload["outcomes"]] == ["T1", "T2", "T3"]
        for rec in payload["outcomes"]:
            assert set(rec) == {
                "topic", "method", "stop_rank", "docs_examined", "rel_found", "hit_end",
            }

    def test_csv_schema(self, fixture_files, tmp_path):
        run, qrels = fixture_files
        out = tmp_path / "out.csv"
        main(["stop", *flags(run, qrels), "--format", "csv", "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "topic,method,stop_rank,docs_examined,rel_found,hit_end"
        assert len(lines) == 4

    def test_trace_flag_adds_traces(self, fixture_files, tmp_path):
        run, qrels = fixture_files
        out = tmp_path / "out.json"
        main(["stop", *flags(run, qrels), "--trace", "--output", str(out)])
        payload = json.loads(out.read_text())
        first = payload["outcomes"][0]
        assert first["traces"]
        evaluated = [t for t in first["traces"] if t["gate"] == "evaluated"]
        for t in evaluated:
            assert t["estimate"] is not None
            assert t["curve"]["kind"] == "exponential"

    def test_determinism_across_jobs(self, fixture_files, tmp_path):
        run, qrels = fixture_files
        outs = []
        for idx, jobs in ((0, "1"), (1, "3"), (2, "1")):
            out = tmp_path / f"out{idx}.json"
            main(["stop", *flags(run, qrels), "--jobs", jobs, "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_config_error_exit_2(self, fixture_files, capsys):
        run, qrels = fixture_files
        assert main(["stop", *flags(run, qrels), "--target-recall", "1.5"]) == 2
        assert "target_recall" in capsys.readouterr().err

    def test_parse_error_exit_3(self, tmp_path, fixture_files, capsys):
        run, qrels = fixture_files
        bad = tmp_path / "bad.txt"
        bad.write_text("T1 Q0 d1 1 0.9\n")  # five fields
        assert main(["stop", "--run", str(bad), "--qrels", str(qrels)]) == 3
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_3(self, fixture_files):
        run, qrels = fixture_files
        assert main(["stop", "--run", "/nonexistent", "--qrels", str(qrels)]) == 3

    def test_no_output_file_on_failure(self, tmp_path, fixture_files):
        run, qrels = fixture_files
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        out = tmp_path / "never.json"
        assert main(["stop", "--run", str(bad), "--qrels", str(qrels),
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_cox_fallback_flag_surfaces_in_trace(self, tmp_path):
        # the singular first fit makes the mixture fall back to the
        # fixed-mean estimate and flag it
        run, qrels = singular_fit_files(tmp_path)
        out = tmp_path / "out.json"
        assert main(["stop", "--run", str(run), "--qrels", str(qrels),
                     "--process", "cox", "--rate", "hyp",
                     "--min-rel", "static10", "--nrmse-threshold", "0.5",
                     "--trace", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        evaluated = [
            t for t in payload["outcomes"][0]["traces"] if t["gate"] == "evaluated"
        ]
        assert evaluated and evaluated[0]["estimate"]["fallback"] is True

    def test_trace_json_is_strict(self, tmp_path):
        # the fallback topic's first fit is singular: its variances are
        # infinite and must be written as null, never as bare Infinity
        run, qrels = singular_fit_files(tmp_path)
        out = tmp_path / "out.json"
        assert main(["stop", "--run", str(run), "--qrels", str(qrels),
                     "--process", "cox", "--rate", "hyp",
                     "--min-rel", "static10", "--nrmse-threshold", "0.5",
                     "--trace", "--output", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        first = next(
            t for t in payload["outcomes"][0]["traces"] if t["gate"] == "evaluated"
        )
        assert first["curve"]["variance"] == [None, None, None]


class TestEvaluateCommand:
    def test_roundtrip_metrics(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        outcomes = tmp_path / "o.json"
        main(["stop", *flags(run, qrels), "--output", str(outcomes)])
        metrics_csv = tmp_path / "m.csv"
        assert main(["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                     "--qrels", str(qrels), "--target-recall", "0.8",
                     "--format", "csv", "--output", str(metrics_csv)]) == 0
        lines = metrics_csv.read_text().splitlines()
        assert lines[0] == METRIC_HEADER
        assert len(lines) == 4
        agg = (tmp_path / "m.agg.csv").read_text().splitlines()
        assert agg[0].startswith("method,topics,reliability")


    @pytest.mark.parametrize("field, value", [
        ("docs_examined", "1"),
        ("stop_rank", "1"),
        ("rel_found", True),  # bool is not a count
        ("hit_end", 1),
    ])
    def test_wrong_field_type_exit_3(self, tmp_path, capsys, field, value):
        record = {"topic": "X", "method": "ip", "stop_rank": 1,
                  "docs_examined": 1, "rel_found": 1, "hit_end": False}
        record[field] = value
        assert self.evaluate(tmp_path, record) == 3
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("stop_rank, docs_examined, rel_found", [
        (2, 99, 1),  # examined more documents than the topic has
        (2, 2, 7),  # found more relevant than the topic has
        (1, 1, 2),  # found more relevant than ranks 1..stop_rank hold
        (2, 1, 1),  # examined fewer documents than the stop rank
        (0, 0, 0),  # stopped before screening anything
        (1, 1, -1),
    ])
    def test_impossible_counts_exit_3(
        self, tmp_path, capsys, stop_rank, docs_examined, rel_found
    ):
        record = {"topic": "X", "method": "ip", "stop_rank": stop_rank,
                  "docs_examined": docs_examined, "rel_found": rel_found,
                  "hit_end": False}
        assert self.evaluate(tmp_path, record) == 3
        assert "impossible" in capsys.readouterr().err

    def test_possible_counts_accepted(self, tmp_path):
        record = {"topic": "X", "method": "target", "stop_rank": 1,
                  "docs_examined": 2, "rel_found": 1, "hit_end": False}
        assert self.evaluate(tmp_path, record) == 0

    @staticmethod
    def evaluate(tmp_path, record) -> int:
        # a 2-document topic whose documents are both relevant
        run, qrels = write_topics(tmp_path, {"X": [1, 1]})
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"outcomes": [record]}))
        return main(["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                     "--qrels", str(qrels), "--output", str(tmp_path / "m.json")])


class TestStopEvaluateRoundTrip:
    def test_evaluate_of_stop_output_matches_compare(self, tmp_path):
        rng = np.random.default_rng(17)
        run, qrels = write_topics(tmp_path, {
            t: rng.random(n) < 0.4 * np.exp(-0.01 * np.arange(n))
            for t, n in (("A", 300), ("B", 450))
        })
        outcomes, evaluated, compared = (tmp_path / f for f in ("o.json", "e.json", "c.json"))
        assert main(["stop", *flags(run, qrels), "--format", "json",
                     "--output", str(outcomes)]) == 0
        assert main(["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                     "--qrels", str(qrels), "--output", str(evaluated)]) == 0
        assert main(["compare", *flags(run, qrels), "--methods", "ip",
                     "--output", str(compared)]) == 0
        evaluated_rows = json.loads(evaluated.read_text())["topics"]
        ip_rows = [r for r in json.loads(compared.read_text())["topics"]
                   if r["method"] == "ip"]
        assert [r["topic"] for r in evaluated_rows] == ["A", "B"]
        assert evaluated_rows == ip_rows


class TestInputEncoding:
    """Every input file is UTF-8: a leading byte-order mark is dropped and
    undecodable bytes exit 3."""

    @staticmethod
    def argv(kind, tmp_path, fixture_files, spec_file, out):
        run, qrels = fixture_files
        if kind == "spec":
            return ["simulate", "--spec", str(spec_file), "--rate", "exp",
                    "--alpha", "0.1", "--beta", "0.1", "--window", "10",
                    "--output", str(out)], spec_file
        if kind == "outcomes":
            outcomes = tmp_path / "o.json"
            assert main(["stop", *flags(run, qrels), "--output", str(outcomes)]) == 0
            return ["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                    "--qrels", str(qrels), "--output", str(out)], outcomes
        if kind == "qrels":
            # a relevant document first, so a mangled first line shows
            lines = qrels.read_text().splitlines()
            lines.sort(key=lambda line: not line.endswith(" 1"))
            qrels.write_text("\n".join(lines) + "\n")
        return ["stop", *flags(run, qrels), "--output", str(out)], {
            "run": run, "qrels": qrels}[kind]

    @pytest.mark.parametrize("kind", ["run", "qrels", "spec", "outcomes"])
    def test_byte_order_mark_is_dropped(self, kind, tmp_path, fixture_files, spec_file):
        plain, with_bom = tmp_path / "plain.json", tmp_path / "bom.json"
        argv, path = self.argv(kind, tmp_path, fixture_files, spec_file, plain)
        assert main(argv) == 0
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        argv[argv.index(str(plain))] = str(with_bom)
        assert main(argv) == 0
        assert with_bom.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("kind", ["run", "qrels", "spec", "outcomes"])
    def test_undecodable_input_exit_3(
        self, kind, tmp_path, fixture_files, spec_file, capsys
    ):
        argv, path = self.argv(kind, tmp_path, fixture_files, spec_file,
                               tmp_path / "out.json")
        data = path.read_bytes()
        path.write_bytes(data[:20] + b"\xff" + data[20:])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "not UTF-8" in err


class TestCompareCommand:
    def test_oracle_always_included(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "cmp.json"
        assert main(["compare", *flags(run, qrels), "--methods", "ip",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        methods = {r["method"] for r in payload["aggregates"]}
        assert methods == {"ip", "oracle"}
        oracle = next(r for r in payload["aggregates"] if r["method"] == "oracle")
        assert oracle["reliability"] == 1.0

    def test_all_methods_row_count(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "cmp.csv"
        assert main(["compare", *flags(run, qrels),
                     "--methods", "ip,cox,oracle,target,target-adapted,knee",
                     "--target-recall", "0.8", "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == METRIC_HEADER
        assert len(lines) == 1 + 3 * 6
        agg_lines = (tmp_path / "cmp.agg.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + 6

    def test_unknown_method_exit_2(self, fixture_files, capsys):
        run, qrels = fixture_files
        assert main(["compare", *flags(run, qrels), "--methods", "ip,scal"]) == 2
        assert "valid methods" in capsys.readouterr().err

    def test_qbcb_reported_unavailable(self, fixture_files, capsys):
        run, qrels = fixture_files
        assert main(["compare", *flags(run, qrels), "--methods", "qbcb"]) == 2
        assert "unavailable" in capsys.readouterr().err

    def test_adapted_target_uses_formula_size(self, fixture_files, tmp_path, capsys):
        # at recall 0.9 / confidence 0.95 the sample must hold 30 relevant;
        # verify by replaying the library call with the CLI's seed derivation
        from tarstop import TargetConfig, target_stop
        from tarstop.cli import _topic_seed
        from tarstop.corpus import join_all, parse_qrels, parse_run

        run, qrels = fixture_files
        out = tmp_path / "cmp.json"
        main(["compare", *flags(run, qrels), "--methods", "target-adapted",
              "--target-recall", "0.9", "--seed", "77", "--output", str(out)])
        payload = json.loads(out.read_text())
        topics = join_all(parse_run(run.read_text()), parse_qrels(qrels.read_text()))
        rows = [r for r in payload["topics"] if r["method"] == "target-adapted"]
        for topic, row in zip(topics, rows):
            expected = target_stop(
                topic,
                TargetConfig(target_size=30, seed=_topic_seed(77, topic.topic_id, "target-adapted")),
                method="target-adapted",
            )
            tm_cost = expected.docs_examined / topic.n
            assert row["cost"] == pytest.approx(tm_cost, rel=1e-12)


class TestSweepCommand:
    def test_grid_rows_and_pareto(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "sweep.json"
        assert main(["sweep", *flags(run, qrels), "--processes", "ip",
                     "--rates", "exp,pow", "--target-recalls", "0.8,0.9",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["aggregates"]) == 4
        assert len(payload["topics"]) == 4 * 3
        for level in (0.8, 0.9):
            rows = [r for r in payload["aggregates"] if r["target_recall"] == level]
            assert any(r["pareto"] for r in rows)
            for row in rows:  # dominated rows are never flagged
                if row["pareto"]:
                    continue
                assert any(
                    other["cost_mean"] <= row["cost_mean"]
                    and other["reliability"] >= row["reliability"]
                    and (other["cost_mean"] < row["cost_mean"]
                         or other["reliability"] > row["reliability"])
                    for other in rows
                )

    def test_full_process_rate_cross_product(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "sweep.json"
        assert main(["sweep", *flags(run, qrels), "--processes", "ip,cox",
                     "--rates", "exp,hyp,pow,ap", "--target-recalls", "0.8",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["aggregates"]) == 8

    def test_repeated_value_counts_each_topic_once(self, fixture_files, tmp_path, capsys):
        run, qrels = fixture_files
        out = tmp_path / "sweep.json"
        assert main(["sweep", *flags(run, qrels), "--rates", "exp,exp",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [r["topics"] for r in payload["aggregates"]] == [3, 3]
        assert len(payload["topics"]) == 2 * 3

    def test_oversize_grid_refused(self, fixture_files, capsys):
        run, qrels = fixture_files
        levels = ",".join(str(0.5 + i / 10000) for i in 20 * list(range(50)))
        thresholds = ",".join(str(0.05 + i / 1000) for i in range(11))
        assert main(["sweep", *flags(run, qrels), "--rates", "exp",
                     "--target-recalls", levels,
                     "--nrmse-thresholds", thresholds]) == 2
        assert "exceeds" in capsys.readouterr().err


class TestSimulateCommand:
    def test_rows_and_effectiveness(self, spec_file, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--spec", str(spec_file),
                     "--methods", "ip,oracle", "--rate", "exp",
                     "--alpha", "0.05", "--beta", "0.05", "--window", "10",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == METRIC_HEADER + ",norm_area"
        assert len(lines) == 1 + 3 * 2

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        args = ["simulate", "--spec", str(spec_file), "--methods", "ip,target,knee",
                "--rate", "exp", "--alpha", "0.05", "--beta", "0.05",
                "--window", "10", "--seed", "99", "--format", "csv"]
        outs = []
        for idx, jobs in ((0, "1"), (1, "4")):
            out = tmp_path / f"sim{idx}.csv"
            main([*args, "--jobs", jobs, "--output", str(out)])
            outs.append((out.read_bytes(),
                         (tmp_path / f"sim{idx}.agg.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_wild_fit_exits_cleanly(self, tmp_path, capsys):
        # a hyperbolic fit here implies a Cox mass near 1e13, far past the
        # count-array cap, so that checkpoint must count as a failed fit
        path = tmp_path / "wild.json"
        path.write_text(json.dumps([
            {"n": 11769, "kind": "power",
             "params": {"a": 0.9741642266458875, "b": -0.7353185149574679},
             "seed": 2}
        ]))
        out = tmp_path / "wild.json.out"
        assert main(["simulate", "--spec", str(path), "--methods", "cox",
                     "--rate", "hyp", "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert {r["method"] for r in json.loads(out.read_text())["topics"]} == {"cox"}

    def test_invalid_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"n": 100, "kind": "uniform", "seed": 1}]))
        assert main(["simulate", "--spec", str(path)]) == 2
        assert "params" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, named", [
        (1, "must be an object"),
        ({"n": 100, "kind": "uniform", "params": {"a": "x"}, "seed": 1}, "'params.a'"),
        ({"n": 100, "kind": "uniform", "params": {"a": True}, "seed": 1}, "'params.a'"),
        ({"n": 100, "kind": "uniform", "params": {"a": 10 ** 400}, "seed": 1},
         "'params.a' is out of range"),
        ({"n": "10", "kind": "uniform", "params": {"a": 0.1}, "seed": 1}, "'n'"),
        ({"n": 100.0, "kind": "uniform", "params": {"a": 0.1}, "seed": 1}, "'n'"),
        ({"n": True, "kind": "uniform", "params": {"a": 0.1}, "seed": 1}, "'n'"),
        ({"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": "s"}, "'seed'"),
        ({"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": False}, "'seed'"),
        ({"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": -1}, "seed"),
        ({"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": 1,
          "noise": "0.1"}, "'noise'"),
        ({"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": 1,
          "topic_id": 7}, "'topic_id'"),
    ])
    def test_invalid_field_exit_2(self, tmp_path, capsys, entry, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        assert main(["simulate", "--spec", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" + "1" * 5000 + "]"])
    def test_unreadable_json_exit_3(self, tmp_path, capsys, text):
        # too deeply nested for the decoder; an integer past the digit limit
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", "--spec", str(path)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_duplicate_topic_id_exit_2(self, tmp_path, capsys):
        # the second spec's default id collides with the first's explicit one
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"topic_id": "S002", "n": 100, "kind": "uniform", "params": {"a": 0.1},
             "seed": 1},
            {"n": 100, "kind": "uniform", "params": {"a": 0.2}, "seed": 2},
        ]))
        assert main(["simulate", "--spec", str(path)]) == 2
        assert "'S002'" in capsys.readouterr().err

    def test_invalid_param_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"n": 100, "kind": "hyperbolic",
             "params": {"a": 0.5, "b": 2.0, "c": 0.01}, "seed": 1}
        ]))
        assert main(["simulate", "--spec", str(path)]) == 2
        assert "b" in capsys.readouterr().err


class TestFitSharing:
    """Every (topic, rate, checkpoint) is fitted once, however many
    policies or processes read the fit."""

    @staticmethod
    def count_fits(monkeypatch, argv) -> list:
        from tarstop import stopping

        calls = []
        real = stopping.fit_rate

        def counting(points, kind, n_total):
            # topics differ in size, so n_total names the topic; window
            # centers name the checkpoint
            calls.append((n_total, kind, points.x.tobytes()))
            return real(points, kind, n_total)

        with monkeypatch.context() as patch:
            patch.setattr(stopping, "fit_rate", counting)
            assert main(argv) == 0
        return calls

    @pytest.fixture
    def sized_topics(self, tmp_path):
        rng = np.random.default_rng(9)
        return write_topics(tmp_path, {
            t: rng.random(n) < 0.5 * np.exp(-0.01 * np.arange(n))
            for t, n in (("T1", 300), ("T2", 400), ("T3", 500))
        })

    def test_sweep_fits_each_checkpoint_once(self, sized_topics, monkeypatch, capsys):
        run, qrels = sized_topics
        calls = self.count_fits(monkeypatch, [
            "sweep", *flags(run, qrels), "--processes", "ip,cox",
            "--rates", "exp,pow", "--nrmse-thresholds", "0.1,0.5",
            "--min-rel-rules", "static10,dynamic", "--target-recalls", "0.8,0.9",
        ])
        assert calls and len(calls) == len(set(calls))
        assert {n for n, _, _ in calls} == {300, 400, 500}

    def test_compare_processes_share_fits(self, sized_topics, monkeypatch, capsys):
        run, qrels = sized_topics
        both = self.count_fits(monkeypatch, ["compare", *flags(run, qrels),
                                             "--methods", "ip,cox"])
        ip_only = self.count_fits(monkeypatch, ["compare", *flags(run, qrels),
                                                "--methods", "ip"])
        assert both and len(both) == len(set(both))
        assert set(both) >= set(ip_only)
