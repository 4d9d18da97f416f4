"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarstop import cli
from tarstop.cli import main
from tarstop.corpus import SYNTHETIC_KINDS

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

    @pytest.mark.parametrize("grid", ["8", "1", "163"])
    def test_cox_grid_out_of_range_exit_2(self, fixture_files, capsys, grid):
        # an estimator error at every checkpoint used to be recorded as a
        # failed fit, so the command screened everything and exited 0
        run, qrels = fixture_files
        assert main(["stop", *flags(run, qrels), "--process", "cox",
                     "--cox-grid", grid]) == 2
        assert "cox_grid" in capsys.readouterr().err

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
        assert self.evaluate(tmp_path, record, "--target-recall", "1") == 0

    @pytest.mark.parametrize("level", ["0", "nan", "-0.5", "1.5"])
    def test_target_recall_out_of_range_exit_2(self, tmp_path, capsys, level):
        record = {"topic": "X", "method": "ip", "stop_rank": 1,
                  "docs_examined": 1, "rel_found": 1, "hit_end": False}
        assert self.evaluate(tmp_path, record, f"--target-recall={level}") == 2
        assert "target_recall" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # std of inf
    def test_overflowing_metric_exit_4(self, tmp_path, capsys):
        # RE = |recall - target| / target is infinite at a subnormal target
        record = {"topic": "X", "method": "ip", "stop_rank": 1,
                  "docs_examined": 1, "rel_found": 1, "hit_end": False}
        assert self.evaluate(tmp_path, record, "--target-recall=5e-324") == 4
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @staticmethod
    def evaluate(tmp_path, record, *extra) -> int:
        # a 2-document topic whose documents are both relevant
        run, qrels = write_topics(tmp_path, {"X": [1, 1]})
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"outcomes": [record]}))
        return main(["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                     "--qrels", str(qrels), "--output", str(tmp_path / "m.json"), *extra])


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


# Every boundary str.splitlines knows.
_BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
_BOM = b"\xef\xbb\xbf"


def _streamed(path: Path) -> list[str]:
    return list(cli._input_lines(path, "run"))


def _decode_message(path: Path) -> str:
    """The message for an undecodable file, as a whole-file decode words it."""
    try:
        path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        return f"tarstop: {path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
    raise AssertionError(f"{path} decodes")


def _deep_files(tmp_path: Path, n: int = 10_000) -> tuple[Path, Path]:
    """One topic of n documents: a run of about 250 kB and qrels of about 130 kB."""
    run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
    run.write_text("".join(f"T Q0 d{r:05d} {r} {1 - r / (n + 1):.7f} x\n"
                           for r in range(1, n + 1)))
    qrels.write_text("".join(f"T 0 d{r:05d} {int(r % 7 == 0)}\n"
                             for r in range(1, n + 1)))
    return run, qrels


def _insert_ff(path: Path, at: int = 100_000) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def _break_line(path: Path, lineno: int = 2) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = "broken\n"
    path.write_text("".join(lines))


class TestStreamedInput:
    """Run and qrels files are read lazily, block by block; what the parsers
    see, and every error reported, is as if each file were decoded whole."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pieces=st.lists(st.one_of(
            st.sampled_from(_BOUNDARIES),
            st.text(alphabet="ab \t#\xe9\u20ac\ufeff", min_size=1, max_size=6),
        ), max_size=40),
        bom=st.booleans(),
    )
    def test_lines_equal_splitlines(self, pieces, bom):
        text = "".join(pieces)
        data = (_BOM if bom else b"") + text.encode()
        if not bom:  # a leading U+FEFF is read as the byte-order mark
            text = text.removeprefix("\ufeff")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "run.txt")
            path.write_bytes(data)
            assert _streamed(path) == text.splitlines()
            assert _streamed(path) == cli._read_input(path, "run").splitlines()

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_crlf_straddling_a_chunk(self, tmp_path, bom, shift):
        # the reader decodes 8 KiB chunks of bytes: put "\r" at the last
        # byte of the first chunk and "\n" at the first byte of the next
        prefix = _BOM if bom else b""
        filler = b"x" * (8191 + shift - len(prefix))
        data = prefix + filler + b"\r\n" + b"y\r\r\n\n" * 2000
        path = tmp_path / "run.txt"
        path.write_bytes(data)
        assert data.index(b"\r") == 8191 + shift
        assert _streamed(path) == data.decode("utf-8-sig").splitlines()

    def test_long_mixed_text(self, tmp_path):
        # several read blocks of whole lines, every boundary, multi-byte text
        rng = random.Random(7)
        text = "".join(
            rng.choice(_BOUNDARIES) if rng.random() < 0.3
            else rng.choice(["T1 Q0 d1 1 0.5 x", "\xe9\u20ac", "", "#", " \t"])
            for _ in range(80_000)
        )
        path = tmp_path / "run.txt"
        path.write_text(text, encoding="utf-8")
        assert path.stat().st_size > 4 * 65_536
        assert _streamed(path) == text.splitlines()

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("kind", ["run", "qrels"])
    def test_undecodable_byte_past_first_chunk_exit_3(self, kind, bom, tmp_path, capsys):
        run, qrels = _deep_files(tmp_path)
        path = {"run": run, "qrels": qrels}[kind]
        if bom:
            path.write_bytes(_BOM + path.read_bytes())
        _insert_ff(path)
        assert main(["stop", *flags(run, qrels), "--output", str(tmp_path / "o.json")]) == 3
        assert capsys.readouterr().err == _decode_message(path) + "\n"
        assert not (tmp_path / "o.json").exists()

    # Both files bad: errors rank as if both files were decoded whole before
    # either is parsed. A file that cannot be read or decoded wins over a
    # malformed line; otherwise the run's error wins over the qrels'.
    @pytest.mark.parametrize("case, expected", [
        ("bad run line, undecodable qrels", "qrels decode"),
        ("bad run line, missing qrels", "qrels missing"),
        ("bad run line, undecodable run later", "run decode"),
        ("bad qrels line, undecodable qrels later", "qrels decode"),
        ("bad run line, bad qrels line", "run line"),
        ("undecodable run, undecodable qrels", "run decode"),
    ])
    def test_error_precedence(self, case, expected, tmp_path, capsys):
        run, qrels = _deep_files(tmp_path)
        for fault in case.split(", "):
            path = run if " run" in fault else qrels
            if fault.startswith("bad"):
                _break_line(path)
            elif fault.startswith("undecodable"):
                _insert_ff(path)
            else:
                path.unlink()
        assert main(["stop", *flags(run, qrels), "--output", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        if expected.endswith("decode"):
            assert err == _decode_message(run if expected == "run decode" else qrels) + "\n"
        elif expected == "qrels missing":
            assert err.startswith(f"tarstop: cannot read qrels file {qrels}: ")
        else:
            assert err == (f"tarstop: {run}: line 2: expected 6 fields "
                           "'topic Q0 docid rank score tag', got 1\n")

    def test_load_memory_stays_near_the_columns(self, tmp_path):
        """Traced peak of loading 40k run lines and their qrels, per byte of input.

        Measured 2.49 (Python 3.11) once scores were checked but not kept,
        against 3.32 when each topic also held a score column, and 8.13 when
        each file's text and line list were held whole. The bound is 2.49
        plus 25%.
        """
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run_lines, qrels_lines = [], []
        for t in range(4):
            n = 10_000
            for r in range(1, n + 1):
                doc = f"T{t}-{r * 7919 % n:06d}"
                run_lines.append(f"T{t} Q0 {doc} {r} {1 - r / (n + 1):.7f} tag\n")
                if r % 4 == 0:
                    qrels_lines.append(f"T{t} 0 {doc} {int(r % 8 == 0)}\n")
        run.write_text("".join(run_lines))
        qrels.write_text("".join(qrels_lines))
        size = run.stat().st_size + qrels.stat().st_size
        del run_lines, qrels_lines
        tracemalloc.start()
        try:
            topics = cli._load_topics(run, qrels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [t.n for t in topics] == [10_000] * 4
        assert peak < 3.1 * size, f"peak {peak} B is {peak / size:.2f} x the input"


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

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    def test_repeated_method_counts_each_topic_once(
        self, command, fixture_files, spec_file, tmp_path, capsys
    ):
        run, qrels = fixture_files
        inputs = (["--spec", str(spec_file), "--rate", "exp", "--window", "10"]
                  if command == "simulate" else flags(run, qrels))
        out = tmp_path / "cmp.json"
        assert main([command, *inputs, "--methods", "ip,oracle,ip",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [(r["method"], r["topics"]) for r in payload["aggregates"]] == [
            ("ip", 3), ("oracle", 3)]
        assert len(payload["topics"]) == 2 * 3

    def test_unknown_method_exit_2(self, fixture_files, capsys):
        run, qrels = fixture_files
        assert main(["compare", *flags(run, qrels), "--methods", "ip,scal"]) == 2
        assert "valid methods" in capsys.readouterr().err

    def test_qbcb_reported_unavailable(self, fixture_files, capsys):
        # qbcb is not implemented; it is rejected like any unknown method
        run, qrels = fixture_files
        assert main(["compare", *flags(run, qrels), "--methods", "qbcb"]) == 2
        assert "valid methods" in capsys.readouterr().err

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
        # past the synthetic size cap: numpy would need 72.8 TiB, or an
        # array dimension beyond its maximum
        ({"n": 10_000_000_000_000, "kind": "uniform", "params": {"a": 0.1}, "seed": 1},
         "synthetic n"),
        ({"n": 2 ** 63, "kind": "uniform", "params": {"a": 0.1}, "seed": 1},
         "synthetic n"),
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


# --- property tests: any spec or outcome file ends in a clean exit ---------


_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(), st.text(max_size=6)
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=10,
)
# values that are wrong for any field (a large integer is left out: a
# large n is not fuzzed, it only costs time)
_ODD_VALUE = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                       st.lists(st.integers(0, 3), max_size=2))


@st.composite
def _mutated(draw, record: dict) -> dict:
    """``record`` with up to two fields (or nested params) dropped or replaced."""
    for _ in range(draw(st.integers(0, 2))):
        target = record
        if isinstance(record.get("params"), dict) and record["params"] and draw(st.booleans()):
            target = record["params"]
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_ODD_VALUE)
    return record


_SPEC_PARAMS = {
    "exponential": {"a": st.floats(0.0, 1.0), "b": st.floats(-0.05, 0.0)},
    "hyperbolic": {"a": st.floats(0.0, 1.0), "b": st.floats(0.0, 1.0),
                   "c": st.floats(1e-3, 0.1)},
    "power": {"a": st.floats(0.0, 1.0), "b": st.floats(-1.5, 0.0)},
    "ap_prior": {"a": st.floats(0.0, 50.0)},
    "uniform": {"a": st.floats(0.0, 1.0)},
}


@st.composite
def _spec_entry(draw) -> dict:
    kind = draw(st.sampled_from(SYNTHETIC_KINDS))
    entry = {
        "n": draw(st.integers(1, 300)),
        "kind": kind,
        "params": draw(st.fixed_dictionaries(_SPEC_PARAMS[kind])),
        "seed": draw(st.integers(0, 2**70)),
    }
    if draw(st.booleans()):
        entry["noise"] = draw(st.floats(0.0, 0.3))
    return draw(_mutated(entry))


_SPEC_PAYLOAD = st.one_of(
    _JSON_VALUE,
    st.lists(_spec_entry(), min_size=1, max_size=3),
    st.lists(_spec_entry(), max_size=3).map(lambda topics: {"topics": topics}),
)

# the topics every fuzzed outcome file is scored against
_EVAL_TOPICS = {"X": [1, 0, 1, 0, 0], "Y": [0, 0, 0]}


@st.composite
def _outcome_record(draw) -> dict:
    topic = draw(st.sampled_from(sorted(_EVAL_TOPICS)))
    labels = _EVAL_TOPICS[topic]
    stop_rank = draw(st.integers(1, len(labels)))
    record = {
        "topic": topic,
        "method": draw(st.sampled_from(["ip", "cox", "oracle", ""])),
        "stop_rank": stop_rank,
        "docs_examined": draw(st.integers(stop_rank, len(labels))),
        "rel_found": draw(st.integers(0, sum(labels[:stop_rank]))),
        "hit_end": draw(st.booleans()),
    }
    return draw(_mutated(record))


_OUTCOME_PAYLOAD = st.one_of(
    _JSON_VALUE,
    st.lists(_outcome_record(), max_size=4),
    st.lists(_outcome_record(), max_size=4).map(lambda rs: {"outcomes": rs}),
)


class TestFileProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(payload=_SPEC_PAYLOAD, rate=st.sampled_from(["exp", "hyp", "pow", "ap"]))
    def test_simulate_exits_cleanly_on_any_spec(self, payload, rate):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp, "spec.json")
            spec.write_text(json.dumps(payload))
            code = main(["simulate", "--spec", str(spec), "--rate", rate,
                         "--methods", "ip,cox,oracle,target,target-adapted,knee",
                         "--alpha", "0.1", "--beta", "0.1", "--window", "5",
                         "--output", str(Path(tmp, "out.json"))])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        payload=_OUTCOME_PAYLOAD,
        level=st.one_of(st.just(0.9), st.floats(0.0, 1.0), st.floats()),
    )
    def test_evaluate_exits_cleanly_on_any_outcomes(self, payload, level):
        with tempfile.TemporaryDirectory() as tmp:
            run, qrels = write_topics(Path(tmp), _EVAL_TOPICS)
            outcomes = Path(tmp, "outcomes.json")
            outcomes.write_text(json.dumps(payload))
            code = main(["evaluate", "--outcomes", str(outcomes), "--run", str(run),
                         "--qrels", str(qrels), f"--target-recall={level!r}",
                         "--output", str(Path(tmp, "out.json"))])
        assert code in (0, 2, 3, 4)
