"""Parsing and labelling, round-trips, and synthetic topic generation."""

import contextlib
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from tarstop import corpus
from tarstop.cli import main
from tarstop.corpus import (
    RankedTopic,
    SyntheticSpec,
    generate_synthetic,
    parse_qrels,
    parse_run,
)
from tarstop.errors import (
    DuplicateEntryError,
    ParseError,
    ValidationError,
)


def labels_of(topics):
    """{topic id: labels in rank order} of a parsed run."""
    return {t.topic_id: t.labels.tolist() for t in topics}


def doc_order(text, topic):
    """The topic's doc ids in rank order, read back from labels: each doc
    in turn is judged the only relevant one."""
    docs = [line.split()[2] for line in text.splitlines()
            if line.split()[:1] == [topic]]
    order = [None] * len(docs)
    for doc in docs:
        (labelled,) = [t for t in parse_run(text, {topic: {doc}}) if t.topic_id == topic]
        (rank,) = np.flatnonzero(labelled.labels)
        order[rank] = doc
    return order


class TestParseQrels:
    def test_direct_mapping(self):
        q = parse_qrels("T1 0 d1 1\nT1 0 d2 0")
        assert q == {"T1": frozenset({"d1"})}

    def test_graded_collapses_to_binary(self):
        q = parse_qrels("T1 0 d1 2")
        assert q == {"T1": frozenset({"d1"})}

    def test_negative_relevance_maps_to_zero(self):
        q = parse_qrels("T1 0 d1 -1")
        assert q == {"T1": frozenset()}

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_qrels("T1 0 d1")

    def test_error_line_number_counts_comments(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_qrels("# header\nT1 0 d1 1\nT1 0 d2\n")

    def test_non_integer_relevance(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_qrels("T1 0 d1 maybe")

    def test_duplicate_key(self):
        with pytest.raises(DuplicateEntryError):
            parse_qrels("T1 0 d1 1\nT1 0 d1 0")

    def test_comments_and_blank_lines_skipped(self):
        q = parse_qrels("\n# comment\nT1 0 d1 1\n\n")
        assert q == {"T1": frozenset({"d1"})}

    def test_judgments_are_held_per_topic(self):
        q = parse_qrels("T2 0 d1 1\nT1 0 d1 0\nT2 0 d2 0\n")
        assert q == {"T2": frozenset({"d1"}), "T1": frozenset()}
        assert list(q) == ["T2", "T1"]

    def test_duplicate_key_in_a_topic_that_comes_back(self):
        with pytest.raises(DuplicateEntryError, match="line 3"):
            parse_qrels("T1 0 d1 1\nT2 0 d1 1\nT1 0 d1 0")

    def test_duplicate_across_blocks_names_the_later_line(self):
        text = "T1 0 d1 0\nT1 0 d2 1\nT2 0 d1 1\nT1 0 d3 0\nT2 0 d2 0\nT1 0 d1 2"
        with pytest.raises(DuplicateEntryError) as err:
            parse_qrels(text)
        assert str(err.value) == "line 6: duplicate qrels entry for ('T1', 'd1')"

    @pytest.mark.parametrize("text, line", [
        ("T1 0 d1 0\nT1 0 d1 0", 2),
        ("T1 0 d1 0\nT1 0 d1 1", 2),
        ("T1 0 d1 -1\nT2 0 d1 0\nT1 0 d1 0", 3),
    ])
    def test_judged_nonrelevant_duplicate_is_rejected(self, text, line):
        # only relevant ids are kept, but every judgment is checked
        with pytest.raises(DuplicateEntryError, match=f"line {line}"):
            parse_qrels(text)

    def test_relevant_ids_of_a_topic_that_comes_back(self):
        q = parse_qrels("T1 0 d1 1\nT2 0 d1 0\nT1 0 d2 0\nT1 0 d3 1\n")
        assert q == {"T1": frozenset({"d1", "d3"}), "T2": frozenset()}


class TestParseRun:
    def test_sorts_by_rank(self):
        text = "T1 Q0 d2 2 0.5 x\nT1 Q0 d1 1 0.9 x"
        assert labels_of(parse_run(text, {"T1": {"d1"}})) == {"T1": [True, False]}
        assert doc_order(text, "T1") == ["d1", "d2"]

    def test_empty_input(self):
        assert parse_run("", {"T1": {"d1"}}) == []

    def test_duplicate_doc(self):
        with pytest.raises(DuplicateEntryError):
            parse_run("T1 Q0 d1 1 0.9 x\nT1 Q0 d1 2 0.8 x", {})

    def test_ranks_renumbered_densely(self):
        text = "T1 Q0 d9 10 0.1 x\nT1 Q0 d5 5 0.5 x\nT1 Q0 d2 2 0.9 x"
        assert doc_order(text, "T1") == ["d2", "d5", "d9"]

    def test_duplicate_doc_in_a_topic_that_comes_back(self):
        text = "T1 Q0 d1 1 0.9 x\nT2 Q0 d1 1 0.9 x\nT1 Q0 d2 2 0.8 x\nT1 Q0 d1 3 0.7 x"
        with pytest.raises(DuplicateEntryError, match="line 4"):
            parse_run(text, {})

    def test_duplicate_doc_after_a_topic_comes_back_twice(self):
        text = ("T1 Q0 d1 1 0.9 x\nT2 Q0 d1 1 0.9 x\nT1 Q0 d2 2 0.8 x\n"
                "T2 Q0 d2 2 0.8 x\nT1 Q0 d3 3 0.7 x\nT1 Q0 d2 4 0.6 x")
        with pytest.raises(DuplicateEntryError, match="line 6"):
            parse_run(text, {})

    def test_ranks_beyond_64_bits(self):
        big = 2 ** 64
        text = f"T1 Q0 a {big} 1 x\nT1 Q0 b 1 2 x\nT1 Q0 c {-big} 3 x"
        assert doc_order(text, "T1") == ["c", "b", "a"]

    @pytest.mark.parametrize("ranks", [
        list(range(50)),  # 0-based
        [1, 2, 3, 5, 8, 13, 21],  # gaps, in order
        [5, 4, 3, 2, 1],
        [1, 2, 2, 3, 1],  # ties keep file order
        [*range(1, 300), 7, *range(300, 310)],  # one late rank out of order
        [*range(1, 60), 59, 60, 61],  # a late tie
        # a rank beyond 64 bits after a dense prefix
        *([*range(1, 40), late, 40] for late in (2 ** 63, 2 ** 64, -2 ** 63 - 1)),
    ])
    def test_doc_order_is_a_stable_sort_of_the_ranks(self, ranks):
        docs = [f"d{i}" for i in range(len(ranks))]
        text = "".join(f"T Q0 {d} {r} 0 x\n" for d, r in zip(docs, ranks))
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        assert doc_order(text, "T") == [docs[i] for i in order]

    def test_dense_ranks_continue_in_a_topic_that_comes_back(self):
        text = ("T1 Q0 a 1 0 x\nT1 Q0 b 2 0 x\nT2 Q0 c 1 0 x\n"
                "T1 Q0 d 3 0 x\nT1 Q0 e 2 0 x\n")
        assert doc_order(text, "T1") == ["a", "b", "e", "d"]
        assert doc_order(text, "T2") == ["c"]

    def test_judgments_in_the_old_dict_shape_are_rejected(self):
        # `in` on {doc: 0} would label the judged non-relevant doc relevant
        with pytest.raises(TypeError, match="topic 'T1' maps to a dict"):
            parse_run("T1 Q0 d1 1 0.9 x", {"T1": {"d1": 0}})

    def test_non_numeric_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_run("T1 Q0 d1 one 0.9 x", {})

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="score"):
            parse_run("T1 Q0 d1 1 high x", {})

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="6 fields"):
            parse_run("T1 Q0 d1 1 0.9", {})

    def test_round_trip_preserves_rank_order(self):
        text = "T1 Q0 d2 2 0.5 x\nT1 Q0 d1 1 0.9 x\nT2 Q0 a 7 3.0 x\n"
        qrels = {"T1": {"d2"}, "T2": {"a"}}
        dense = "".join(
            f"{topic} Q0 {d} {rank} 0 x\n"
            for topic in ("T1", "T2")
            for rank, d in enumerate(doc_order(text, topic), start=1)
        )
        assert labels_of(parse_run(dense, qrels)) == labels_of(parse_run(text, qrels))

    def test_doc_id_order_of_ties_gaps_and_interleaved_topics(self):
        # rank ties keep file order, rank gaps close up, topics interleave
        text = (
            "# ties, gaps and two topics\n"
            "T2 Q0 b3 5 0.25 run\n"
            "T1 Q0 a1 10 1.5 run\n"
            "T2 Q0 b1 5 0.75 run\n"
            "\n"
            "T1 Q0 a2 3 2 run\n"
            "T2 Q0 b2 2 1e-3 run\n"
            "T1 Q0 a3 10 -0.5 run\n"
            "T1 Q0 a4 7 3.25 run\n"
        )
        assert doc_order(text, "T2") == ["b2", "b3", "b1"]
        assert doc_order(text, "T1") == ["a2", "a4", "a1", "a3"]
        assert [t.topic_id for t in parse_run(text, {})] == ["T1", "T2"]


def _record(which: str, topic: str, doc: str, rank: int) -> str:
    """One line of a run, or of qrels, that lists ``doc`` for ``topic``."""
    return f"{topic} Q0 {doc} {rank} 1 x" if which == "run" else f"{topic} 0 {doc} 1"


def _parse(which: str, lines: list[str]):
    text = "\n".join(lines)
    return parse_run(text, {}) if which == "run" else parse_qrels(text)


def _duplicate_line(which: str, lines: list[str]) -> int:
    with pytest.raises(DuplicateEntryError) as raised:
        _parse(which, lines)
    return raised.value.line


class TestDuplicateCheck:
    """Each topic's ids are checked once, when the parse ends: with a set
    under one batch, else through their sorted hashes."""

    @pytest.mark.parametrize("batch", [3, corpus._BATCH])
    @pytest.mark.parametrize("gap", ["# note", ""])
    def test_a_duplicate_after_a_comment_or_blank_line_names_its_own_line(
        self, monkeypatch, gap, batch
    ):
        monkeypatch.setattr(corpus, "_BATCH", batch)
        for which in ("run", "qrels"):
            lines = [_record(which, "T", f"d{r}", r) for r in range(1, 5)]
            lines += [gap, _record(which, "T", "d5", 5), _record(which, "T", "d2", 6)]
            assert _duplicate_line(which, lines) == 7

    @pytest.mark.parametrize("batch", [2, corpus._BATCH])
    def test_a_duplicate_in_a_topic_that_comes_back_names_its_own_line(
        self, monkeypatch, batch
    ):
        # T1's repeat on line 7 comes before T2's on line 8
        monkeypatch.setattr(corpus, "_BATCH", batch)
        for which in ("run", "qrels"):
            lines = [_record(which, "T1", f"a{r}", r) for r in range(1, 4)]
            lines += [_record(which, "T2", "b1", 1), _record(which, "T2", "b2", 2)]
            lines += [_record(which, "T1", "a4", 4), _record(which, "T1", "a2", 5)]
            lines += [_record(which, "T2", "b1", 3), _record(which, "T1", "a5", 6)]
            assert _duplicate_line(which, lines) == 7

    @pytest.mark.parametrize("batch", [2, corpus._BATCH])
    @pytest.mark.parametrize("which, faulty, message", [
        ("run", "T Q0 d1 x 1 t", "rank 'x' is not an integer"),
        ("run", "T Q0 d1 5 high t", "score 'high' is not numeric"),
        ("qrels", "T 0 d1 x", "relevance 'x' is not an integer"),
    ])
    def test_a_faulty_line_reports_its_fault_before_its_own_repeat(
        self, monkeypatch, batch, which, faulty, message
    ):
        # the line's id is kept only once its fields are read
        monkeypatch.setattr(corpus, "_BATCH", batch)
        lines = [_record(which, "T", f"d{r}", r) for r in range(1, 5)] + [faulty]
        with pytest.raises(ParseError) as raised:
            _parse(which, lines)
        assert type(raised.value) is ParseError
        assert str(raised.value) == f"line 5: {message}"

    def test_topics_under_one_batch_are_never_hashed(self, monkeypatch):
        def no_hash(doc_id):
            raise AssertionError(f"{doc_id!r} hashed")

        monkeypatch.setattr(corpus, "_BATCH", 3)
        monkeypatch.setattr(corpus, "hash", no_hash, raising=False)
        text = "T1 Q0 a 1 1 x\nT1 Q0 b 2 1 x\nT2 Q0 a 1 1 x\nT2 Q0 c 2 1 x\n"
        assert labels_of(parse_run(text, {"T1": {"b"}})) == {
            "T1": [False, True], "T2": [False, False]}
        assert parse_qrels("T1 0 a 1\nT1 0 b 1\nT2 0 a 1\nT2 0 c 0\n") == {
            "T1": frozenset("ab"), "T2": frozenset("a")}
        for which in ("run", "qrels"):
            lines = [_record(which, "T1", "a", 1), _record(which, "T2", "a", 1),
                     _record(which, "T1", "a", 2)]
            assert _duplicate_line(which, lines) == 3

    def test_a_hash_collision_is_no_duplicate(self, monkeypatch):
        # x0 and x5 hash alike, several batches apart
        hashed = []

        def colliding(doc_id):
            hashed.append(doc_id)
            return 0 if doc_id in ("x0", "x5") else hash(doc_id)

        monkeypatch.setattr(corpus, "_BATCH", 2)
        monkeypatch.setattr(corpus, "hash", colliding, raising=False)
        for which in ("run", "qrels"):
            hashed.clear()
            parsed = _parse(which, [_record(which, "T", f"x{r}", r + 1) for r in range(10)])
            assert {"x0", "x5"} <= set(hashed)
            if which == "run":
                assert [t.n for t in parsed] == [10]
            else:
                assert parsed == {"T": frozenset(f"x{r}" for r in range(10))}

    def test_interleaved_topics_hash_each_id_a_bounded_number_of_times(self, monkeypatch):
        # two topics that alternate line by line: every line starts a block
        calls = []

        def counted(doc_id):
            calls.append(doc_id)
            return hash(doc_id)

        monkeypatch.setattr(corpus, "_BATCH", 256)
        monkeypatch.setattr(corpus, "hash", counted, raising=False)
        n = 2000
        text = "".join(f"T{r % 2} Q0 d{r} {r // 2 + 1} 1 t\n" for r in range(n))
        assert [t.n for t in parse_run(text, {})] == [n // 2, n // 2]
        assert sorted(calls) == sorted(f"d{r}" for r in range(n))
        calls.clear()
        qrels = "".join(f"T{r % 2} 0 d{r} 1\n" for r in range(n))
        assert [len(found) for found in parse_qrels(qrels).values()] == [n // 2, n // 2]
        assert sorted(calls) == sorted(f"d{r}" for r in range(n))

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_a_repeat_of_any_earlier_id_is_found(self, monkeypatch, batch):
        # the earlier ids' hashes lie in runs of several sizes
        monkeypatch.setattr(corpus, "_BATCH", batch)
        lines = [f"T Q0 d{r} {r} 1 t" for r in range(1, 31)]
        for r in range(1, 31):
            with pytest.raises(DuplicateEntryError, match=fr"^line 31: doc 'd{r}' listed twice"):
                parse_run("\n".join([*lines, f"T Q0 d{r} 31 1 t"]), {})

    def test_duplicate_across_batches_names_its_own_line(self):
        lines = [f"T Q0 d{r} {r} 1 t" for r in range(1, 10_001)]
        lines[9_000] = "T Q0 d17 9001 1 t"  # repeats line 17, three batches back
        lines[9_500] = "T Q0 d1 9501 x t"  # a later malformed line
        with pytest.raises(DuplicateEntryError, match=r"^line 9001: doc 'd17' listed twice"):
            parse_run("\n".join(lines), {})


class TestLabels:
    def test_missing_from_qrels_is_nonrelevant(self):
        qrels = parse_qrels("T1 0 d1 1")
        (topic,) = parse_run("T1 Q0 d1 1 3 x\nT1 Q0 d2 2 2 x\nT1 Q0 d3 3 1 x", qrels)
        assert topic.labels.tolist() == [True, False, False]
        assert topic.total_relevant == 1

    def test_judged_nonrelevant(self):
        (topic,) = parse_run("T1 Q0 d1 1 3 x", parse_qrels("T1 0 d1 0"))
        assert topic.labels.tolist() == [False]
        assert topic.total_relevant == 0

    def test_judgments_of_another_topic_do_not_apply(self):
        (topic,) = parse_run("T1 Q0 d1 1 3 x", parse_qrels("T2 0 d1 1"))
        assert topic.labels.tolist() == [False]

    def test_labels_of_a_topic_that_comes_back(self):
        text = ("T1 Q0 d3 3 1 x\nT2 Q0 d1 1 3 x\nT1 Q0 d1 1 3 x\n"
                "T2 Q0 d2 2 2 x\nT1 Q0 d2 2 2 x\n")
        qrels = parse_qrels("T1 0 d1 1\nT1 0 d3 1\nT2 0 d2 1\n")
        assert labels_of(parse_run(text, qrels)) == {
            "T1": [True, False, True], "T2": [False, True]}

    def test_relevant_count_never_exceeds_n(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            lines_run = [f"T Q0 d{i} {i} {n - i} x" for i in range(1, n + 1)]
            judged = rng.random(n) < 0.7
            rels = rng.integers(0, 3, n)
            lines_q = [
                f"T 0 d{i} {rels[i - 1]}" for i in range(1, n + 1) if judged[i - 1]
            ]
            (topic,) = parse_run("\n".join(lines_run), parse_qrels("\n".join(lines_q)))
            assert topic.total_relevant == int(topic.labels.sum()) <= topic.n


class TestRankedTopicIdentity:
    def test_equal_labels_are_distinct_topics(self):
        first = RankedTopic("t", [1, 0, 1])
        second = RankedTopic("t", [1, 0, 1])
        assert first == first
        assert first != second
        assert hash(first) == hash(first)

    def test_topics_go_in_a_set(self):
        first = RankedTopic("t", [1, 0, 1])
        second = RankedTopic("t", [1, 0, 1])
        topics = {first, second, first}
        assert len(topics) == 2
        assert {first: "a", second: "b"}[second] == "b"


class TestGenerateSynthetic:
    def test_uniform_rate_matches_binomial_bounds(self):
        # central 99.9% interval of Binomial(10000, 0.05), via scipy
        spec = SyntheticSpec(n=10000, kind="uniform", params={"a": 0.05}, seed=123)
        topic = generate_synthetic(spec)
        lo = stats.binom.ppf(0.0005, 10000, 0.05)
        hi = stats.binom.ppf(0.9995, 10000, 0.05)
        assert lo <= topic.total_relevant <= hi

    @pytest.mark.parametrize("topic_id, expected", [
        ("", "synthetic-exponential-77"),
        ("D07", "D07"),
    ])
    def test_spec_names_its_topic_before_generating(self, topic_id, expected):
        spec = SyntheticSpec(n=50, kind="exponential", params={"a": 0.5, "b": -0.01},
                             seed=77, topic_id=topic_id)
        assert spec.topic_id == expected
        assert generate_synthetic(spec).topic_id == expected

    def test_zero_rate_yields_no_relevant(self):
        spec = SyntheticSpec(n=500, kind="uniform", params={"a": 0.0}, seed=9)
        assert generate_synthetic(spec).total_relevant == 0

    def test_determinism(self):
        spec = SyntheticSpec(
            n=2000, kind="exponential", params={"a": 0.5, "b": -0.01}, seed=77
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        base = dict(n=2000, kind="exponential", params={"a": 0.5, "b": -0.01})
        a = generate_synthetic(SyntheticSpec(seed=1, **base))
        b = generate_synthetic(SyntheticSpec(seed=2, **base))
        assert not np.array_equal(a.labels, b.labels)

    def test_noise_flips_labels(self):
        quiet = SyntheticSpec(n=5000, kind="uniform", params={"a": 0.0}, seed=5)
        noisy = SyntheticSpec(
            n=5000, kind="uniform", params={"a": 0.0}, seed=5, noise=0.2
        )
        flipped = generate_synthetic(noisy).total_relevant
        assert generate_synthetic(quiet).total_relevant == 0
        assert 0.15 * 5000 < flipped < 0.25 * 5000

    def test_invalid_hyperbolic_params(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(
                n=100, kind="hyperbolic", params={"a": 0.5, "b": 1.5, "c": 0.01}, seed=1
            )

    @pytest.mark.parametrize("n, kind, params, message", [
        (100, "exponential", {"a": 0.0, "b": -0.01}, "rate scale a must be > 0, got 0.0"),
        (1, "ap_prior", {"a": 0.5}, "ap_prior needs n_total >= 2, got 1"),
        (100, "exponential", {"a": 0.5}, "exponential params require b"),
        (100, "power", {"a": 0.5}, "power params require b"),
        (100, "hyperbolic", {"a": 0.5, "b": 0.5}, "hyperbolic c must be > 0, got None"),
        (100, "exponential", {"a": 0.5, "b": math.nan}, "exponential b must be finite, got nan"),
        (100, "power", {"a": 0.5, "b": math.nan}, "power b must be finite, got nan"),
        (100, "hyperbolic", {"a": 0.5, "b": 0.5, "c": math.nan},
         "hyperbolic c must be > 0, got nan"),
        (100, "uniform", {"a": math.nan}, "synthetic params require a >= 0, got nan"),
        (100, "exponential", {"a": math.nan, "b": -0.01},
         "synthetic params require a >= 0, got nan"),
    ])
    def test_family_constraints_checked_at_construction(self, n, kind, params, message):
        # the same check, and message, as the rate family the labels come from
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(n=n, kind=kind, params=params, seed=1)
        assert str(err.value) == message

    @pytest.mark.parametrize("fields, message", [
        # each built, then failed in numpy, or was accepted
        ({"n": 3000.0}, "field 'n' must be an integer, got 3000.0"),
        ({"seed": True}, "field 'seed' must be an integer, got True"),
        ({"topic_id": 5}, "field 'topic_id' must be a string, got 5"),
        ({"params": {"a": "x"}}, "field 'params.a' must be a number, got 'x'"),
        ({"params": {"a": 10 ** 400}}, "field 'params.a' is out of range"),
        ({"params": [0.1]}, "field 'params' must be an object"),
        ({"noise": None}, "field 'noise' must be a number, got None"),
        # types are checked before ranges, in field order
        ({"n": 0, "seed": 1.0}, "field 'seed' must be an integer, got 1.0"),
        ({"n": 1.0, "params": 0.1}, "field 'params' must be an object"),
    ])
    def test_field_types_checked_at_construction(self, fields, message):
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(**{"n": 100, "kind": "uniform", "params": {"a": 0.1}, "seed": 1,
                             **fields})
        assert str(err.value) == message

    @pytest.mark.parametrize("kind, params, message", [
        ("uniform", {"a": 0.1, "bb": 5},
         "field 'params.bb' is not a parameter of kind 'uniform', which reads a"),
        ("exponential", {"a": 0.5, "b": -0.01, "c": 0.0},
         "field 'params.c' is not a parameter of kind 'exponential', which reads a, b"),
        ("ap_prior", {"b": -1.0, "a": 60.0},
         "field 'params.b' is not a parameter of kind 'ap_prior', which reads a"),
        ("hyperbolic", {"a": 0.5, "b": 0.5, "c": 0.01, "d": 1.0, "e": 2.0},
         "field 'params.d' is not a parameter of kind 'hyperbolic', which reads a, b, c"),
    ])
    def test_params_the_kind_does_not_read_refused(self, kind, params, message):
        # each was accepted and ignored; the first unread key is named
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(n=100, kind=kind, params=params, seed=1)
        assert str(err.value) == message

    def test_numbers_of_any_type_are_stored_as_python_numbers(self):
        spec = SyntheticSpec(n=np.int64(300), kind="exponential", seed=np.uint8(4),
                             params={"a": 1, "b": np.float32(-0.01)}, noise=np.float64(0.1))
        assert [type(v) for v in (spec.n, spec.seed, spec.params["a"], spec.noise)] == [
            int, int, float, float]
        plain = SyntheticSpec(n=300, kind="exponential", seed=4, noise=0.1,
                              params={"a": 1.0, "b": float(np.float32(-0.01))})
        assert spec == plain
        assert np.array_equal(generate_synthetic(spec).labels, generate_synthetic(plain).labels)

    def test_invalid_noise(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=100, kind="uniform", params={"a": 0.1}, seed=1, noise=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=100, kind="linear", params={"a": 0.1}, seed=1)

    def test_rate_clamped_to_probability(self):
        # a = 3 would be an invalid Bernoulli probability without clamping
        spec = SyntheticSpec(n=50, kind="uniform", params={"a": 3.0}, seed=4)
        assert generate_synthetic(spec).total_relevant == 50

    @pytest.mark.parametrize("kind, params, relevant", [
        ("hyperbolic", {"a": 0.5, "b": 0.5, "c": 1e308}, []),
        ("exponential", {"a": 0.5, "b": -1e308}, []),
        # the rate at rank 1 is 1e308 / (1 + 1e308) = 1, and 0 past it
        ("hyperbolic", {"a": 1e308, "b": 1.0, "c": 1e308}, [0]),
    ])
    def test_extreme_parameters_overflow_to_their_limits(self, kind, params, relevant):
        # b * x or b * c * x overflows to inf, whose rate is 0; numpy's
        # overflow warning is an error under the test settings
        spec = SyntheticSpec(n=300, kind=kind, params=params, seed=3)
        assert np.flatnonzero(generate_synthetic(spec).labels).tolist() == relevant


# --- property tests against the per-line parser ---------------------------


class _Entry(NamedTuple):
    doc_id: str
    rank: int
    score: float


def _reference_parse_run(text: str) -> dict[str, list[_Entry]]:
    """The per-line run parser the column parser replaced, kept as an oracle."""
    by_topic: dict[str, list[tuple[int, int, _Entry]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(
                f"expected 6 fields 'topic Q0 docid rank score tag', got {len(parts)}",
                lineno,
            )
        topic, _q0, doc_id, rank_str, score_str, _tag = parts
        try:
            rank = int(rank_str)
        except ValueError:
            raise ParseError(f"rank {rank_str!r} is not an integer", lineno) from None
        try:
            score = float(score_str)
        except ValueError:
            raise ParseError(f"score {score_str!r} is not numeric", lineno) from None
        key = (topic, doc_id)
        if key in seen:
            raise DuplicateEntryError(
                f"doc {doc_id!r} listed twice for topic {topic!r}", lineno
            )
        seen.add(key)
        by_topic.setdefault(topic, []).append((rank, lineno, _Entry(doc_id, rank, score)))

    topics: dict[str, list[_Entry]] = {}
    for topic, entries in by_topic.items():
        entries.sort(key=lambda r: (r[0], r[1]))  # stable on duplicate ranks
        topics[topic] = [
            _Entry(e.doc_id, new_rank, e.score)
            for new_rank, (_, _, e) in enumerate(entries, start=1)
        ]
    return topics


def _reference_join(
    run: dict[str, list[_Entry]], qrels: dict[str, dict[str, int]]
) -> dict[str, list[bool]]:
    """Each topic of a per-line parse labelled one document at a time,
    sorted by topic id; documents missing from the qrels are non-relevant."""
    return {
        topic: [qrels.get(topic, {}).get(e.doc_id, 0) > 0 for e in run[topic]]
        for topic in sorted(run)
    }


def _reference_parse_qrels(text: str) -> dict[tuple[str, str], int]:
    """The per-line qrels parser the per-topic parser replaced, kept as an oracle."""
    entries: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 fields 'topic iter docid rel', got {len(parts)}", lineno
            )
        topic, _iter, doc_id, rel_str = parts
        try:
            rel = int(rel_str)
        except ValueError:
            raise ParseError(f"relevance {rel_str!r} is not an integer", lineno) from None
        key = (topic, doc_id)
        if key in entries:
            raise DuplicateEntryError(f"duplicate qrels entry for {key}", lineno)
        entries[key] = 1 if rel > 0 else 0
    return entries


def _relevant_sets(judged: dict[tuple[str, str], int]) -> dict[str, frozenset[str]]:
    """Per-line judgments as the relevant doc ids of each topic, in order of
    the topics' first judgments; a topic judged only 0 maps to no ids."""
    relevant: dict[str, set[str]] = {}
    for (topic, doc), rel in judged.items():
        docs = relevant.setdefault(topic, set())
        if rel:
            docs.add(doc)
    return {topic: frozenset(docs) for topic, docs in relevant.items()}


def _outcome(parse, source):
    """What ``parse`` returns for ``source``, or its error's type, line and message."""
    try:
        return parse(source)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)


def _two_ways(text: str):
    """The text whole, and an iterator over its lines."""
    return text, iter(text.splitlines())


_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


_TOPICS = ["T1", "T2", "t3"]
_DOCS = [f"d{i}" for i in range(16)]


@st.composite
def _run_line(draw, topic=None) -> str:
    kind = draw(st.sampled_from(
        ["record"] * 24 + ["comment", "blank", "short", "long", "bad rank", "bad score"]
    ))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# note", "  #T1 Q0 d1 1 1 x", "#T1"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    rank = draw(st.integers(-3, 12).map(str))  # ties, gaps and negative ranks
    score = draw(st.one_of(
        st.floats(allow_nan=False, width=32).map(repr), st.integers(-5, 5).map(str)
    ))
    if kind == "bad rank":
        rank = draw(st.sampled_from(["x", "1.5", "1e3"]))
    if kind == "bad score":
        score = draw(st.sampled_from(["high", "0x1", "1,5"]))
    topic = topic or draw(st.sampled_from(_TOPICS))
    doc = draw(st.sampled_from(_DOCS))
    fields = [topic, "Q0", doc, rank, score, "tag"]
    if kind == "short":
        del fields[draw(st.integers(0, 5))]
    elif kind == "long":
        fields.append("extra")
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SPACE).join(fields)


@st.composite
def _run_blocks(draw) -> list[str]:
    """Lines in blocks of one topic each, so a topic's lines come back
    after another topic's."""
    lines = []
    for topic in draw(st.lists(st.sampled_from(_TOPICS), max_size=6)):
        lines += draw(st.lists(_run_line(topic), min_size=1, max_size=4))
    return lines


def _text_of(lines):
    return st.builds(
        lambda lines, sep, tail: sep.join(lines) + tail,
        lines,
        st.sampled_from(["\n", "\r\n", "\n\n"]),
        st.sampled_from(["", "\n"]),
    )


_run_text = st.one_of(_text_of(st.lists(_run_line(), max_size=15)), _text_of(_run_blocks()))
_judgments = st.dictionaries(
    st.sampled_from([*_TOPICS, "T9"]),
    st.dictionaries(st.sampled_from(_DOCS), st.sampled_from([0, 1])),
)


@st.composite
def _qrels_line(draw) -> str:
    kind = draw(st.sampled_from(
        ["record"] * 16 + ["comment", "blank", "short", "long", "bad rel"]
    ))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# note", "  #T1 0 d1 1"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    rel = draw(st.integers(-2, 3).map(str))
    if kind == "bad rel":
        rel = draw(st.sampled_from(["x", "1.0", "yes"]))
    topic = draw(st.sampled_from(_TOPICS))
    doc = draw(st.sampled_from(_DOCS))
    fields = [topic, draw(st.sampled_from(["0", "Q0"])), doc, rel]
    if kind == "short":
        del fields[draw(st.integers(0, 3))]
    elif kind == "long":
        fields.append("extra")
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SPACE).join(fields)


_qrels_text = _text_of(st.lists(_qrels_line(), max_size=15))


_VALID_RUN = "".join(f"T Q0 d{r} {r} {1 - r / 100} x\n" for r in range(1, 41))
_VALID_QRELS = "".join(f"T 0 d{r} {int(r % 3 == 0)}\n" for r in range(1, 41))


@st.composite
def _mangled(draw, data: bytes) -> bytes:
    """``data`` with a few byte ranges overwritten by arbitrary bytes."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 3))] = draw(st.binary(max_size=4))
    return bytes(data)


def _check_parse_run(text, qrels):
    """``parse_run`` on the text, whole and as lines, against the per-line oracle."""
    expected = _outcome(_reference_parse_run, text)
    if isinstance(expected, dict):
        expected = _reference_join(expected, qrels)
    relevant = _relevant_sets(
        {(t, d): rel for t, docs in qrels.items() for d, rel in docs.items()})
    for source in _two_ways(text):
        run = _outcome(lambda lines: parse_run(lines, relevant), source)
        if isinstance(run, tuple):  # an error: type, line and message
            assert run == expected
        else:
            assert labels_of(run) == expected
            assert [t.topic_id for t in run] == list(expected)


def _check_parse_qrels(text):
    """``parse_qrels`` on the text, whole and as lines, against the per-line oracle."""
    expected = _outcome(_reference_parse_qrels, text)
    for source in _two_ways(text):
        qrels = _outcome(parse_qrels, source)
        if isinstance(qrels, tuple):  # an error: type, line and message
            assert qrels == expected
        else:
            assert qrels == _relevant_sets(expected)
            assert list(qrels) == list(dict.fromkeys(t for t, _ in expected))


@contextlib.contextmanager
def _duplicate_check(batch: int, constant_hash: bool):
    """The parsers' duplicate check with batches of ``batch`` ids and, if
    ``constant_hash``, every id hashed alike, so that every topic of more
    than one batch takes the exact re-check."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_BATCH", batch)
        if constant_hash:
            patch.setattr(corpus, "hash", lambda doc_id: 7, raising=False)
        yield


# Cases the small-batch checks must meet (three ids a batch): a topic that
# comes back, duplicates in a pending batch followed by a malformed line or
# by a duplicate within the batch, and one at the last line. In the last
# four, two topics alternate and both come back, and the first topic's
# pending batch holds a duplicate while the other's lines come: followed by
# a duplicate within the other's batch, by one its full batch finds, by a
# malformed line, and by the end of the input.
_RUN_CASES = [
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT1 Q0 d4 4 1 x\n"
    "T2 Q0 d1 1 1 x\nT1 Q0 d5 5 1 x\nT1 Q0 d2 6 1 x\nT1 Q0 d6 7 1 x",
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT1 Q0 d1 4 1 x\nT1 Q0 d4 x 1 x",
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT1 Q0 d4 4 1 x\n"
    "T1 Q0 d2 5 1 x\nT1 Q0 d4 6 1 x",
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT1 Q0 d4 4 1 x\nT1 Q0 d3 5 1 x",
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT2 Q0 d1 1 1 x\nT1 Q0 d4 4 1 x\n"
    "T2 Q0 d2 2 1 x\nT1 Q0 d2 5 1 x\nT2 Q0 d3 3 1 x\nT2 Q0 d2 4 1 x",
    "T1 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT1 Q0 d3 3 1 x\nT2 Q0 d1 1 1 x\nT2 Q0 d2 2 1 x\n"
    "T2 Q0 d3 3 1 x\nT1 Q0 d4 4 1 x\nT2 Q0 d4 4 1 x\nT1 Q0 d1 5 1 x\nT2 Q0 d5 5 1 x\n"
    "T2 Q0 d1 6 1 x",
    "T1 Q0 d1 1 1 x\nT2 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT2 Q0 d2 2 1 x\nT1 Q0 d1 3 1 x\n"
    "T2 Q0 d3 x 1 x",
    "T1 Q0 d1 1 1 x\nT2 Q0 d1 1 1 x\nT1 Q0 d2 2 1 x\nT2 Q0 d2 2 1 x\nT1 Q0 d1 3 1 x\n"
    "T2 Q0 d3 3 1 x",
]
_QRELS_CASES = [
    "T1 0 d1 1\nT1 0 d2 0\nT1 0 d3 1\nT1 0 d4 1\nT2 0 d1 1\nT1 0 d5 0\nT1 0 d2 1",
    "T1 0 d1 1\nT1 0 d2 0\nT1 0 d3 1\nT1 0 d1 1\nT1 0 d4",
    "T1 0 d1 1\nT1 0 d2 0\nT1 0 d3 1\nT1 0 d4 1\nT1 0 d2 0\nT1 0 d4 1",
    "T1 0 d1 1\nT1 0 d2 0\nT1 0 d3 1\nT2 0 d1 1\nT1 0 d4 1\nT2 0 d2 0\nT1 0 d2 1\n"
    "T2 0 d3 1\nT2 0 d2 1",
    "T1 0 d1 1\nT1 0 d2 1\nT1 0 d3 1\nT2 0 d1 1\nT2 0 d2 1\nT2 0 d3 1\nT1 0 d4 1\n"
    "T2 0 d4 1\nT1 0 d1 0\nT2 0 d5 1\nT2 0 d1 1",
    "T1 0 d1 1\nT2 0 d1 1\nT1 0 d2 1\nT2 0 d2 1\nT1 0 d1 1\nT2 0 d3",
    "T1 0 d1 1\nT2 0 d1 1\nT1 0 d2 1\nT2 0 d2 1\nT1 0 d1 1\nT2 0 d3 1",
]


class TestParserProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_run_text, _judgments)
    def test_parse_run_matches_per_line_reference(self, text, qrels):
        _check_parse_run(text, qrels)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_qrels_text)
    def test_parse_qrels_matches_per_line_reference(self, text):
        _check_parse_qrels(text)

    @pytest.mark.parametrize("constant_hash", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=_run_text, qrels=_judgments)
    @example(text="\n".join(_RUN_CASES[0].splitlines()[:7]), qrels={"T1": {"d2": 1}})
    @example(text=_RUN_CASES[0], qrels={})
    @example(text=_RUN_CASES[1], qrels={})
    @example(text=_RUN_CASES[2], qrels={})
    @example(text=_RUN_CASES[3], qrels={})
    @example(text=_RUN_CASES[4], qrels={})
    @example(text=_RUN_CASES[5], qrels={})
    @example(text=_RUN_CASES[6], qrels={})
    @example(text=_RUN_CASES[7], qrels={"T1": {"d2": 1}})
    def test_parse_run_in_small_batches(self, batch, constant_hash, text, qrels):
        with _duplicate_check(batch, constant_hash):
            _check_parse_run(text, qrels)

    @pytest.mark.parametrize("constant_hash", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=_qrels_text)
    @example(text=_QRELS_CASES[0])
    @example(text=_QRELS_CASES[1])
    @example(text=_QRELS_CASES[2])
    @example(text=_QRELS_CASES[3])
    @example(text=_QRELS_CASES[4])
    @example(text=_QRELS_CASES[5])
    @example(text=_QRELS_CASES[6])
    def test_parse_qrels_in_small_batches(self, batch, constant_hash, text):
        with _duplicate_check(batch, constant_hash):
            _check_parse_qrels(text)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        which=st.sampled_from(["run", "qrels"]),
        data=st.one_of(
            st.binary(max_size=120),
            _mangled(_VALID_RUN.encode()),
            _mangled(_VALID_QRELS.encode()),
            st.just(b"\xef\xbb\xbf" + _VALID_RUN.encode()),
        ),
    )
    def test_stop_exits_cleanly_on_any_bytes(self, which, data):
        with tempfile.TemporaryDirectory() as tmp:
            files = {"run": Path(tmp, "run.txt"), "qrels": Path(tmp, "qrels.txt")}
            files["run"].write_text(_VALID_RUN)
            files["qrels"].write_text(_VALID_QRELS)
            files[which].write_bytes(data)
            code = main(["stop", "--run", str(files["run"]), "--qrels", str(files["qrels"]),
                         "--window", "5", "--output", str(Path(tmp, "out.json"))])
        assert code in (0, 2, 3, 4)
