"""Parsing, joining, round-trips, and synthetic topic generation."""

import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tarstop.cli import main
from tarstop.corpus import (
    RankedTopic,
    SyntheticSpec,
    generate_synthetic,
    join,
    parse_qrels,
    parse_run,
)
from tarstop.errors import (
    DuplicateEntryError,
    ParseError,
    TopicNotFoundError,
    ValidationError,
)


def rows(run, topic):
    """(doc_id, rank) per document of one topic; rank is the 1-based position."""
    return [(d, rank) for rank, d in enumerate(run[topic], start=1)]


class TestParseQrels:
    def test_direct_mapping(self):
        q = parse_qrels("T1 0 d1 1\nT1 0 d2 0")
        assert q == {"T1": {"d1": 1, "d2": 0}}

    def test_graded_collapses_to_binary(self):
        q = parse_qrels("T1 0 d1 2")
        assert q == {"T1": {"d1": 1}}

    def test_negative_relevance_maps_to_zero(self):
        q = parse_qrels("T1 0 d1 -1")
        assert q == {"T1": {"d1": 0}}

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
        assert q == {"T1": {"d1": 1}}

    def test_judgments_are_held_per_topic(self):
        q = parse_qrels("T2 0 d1 1\nT1 0 d1 0\nT2 0 d2 0\n")
        assert q == {"T2": {"d1": 1, "d2": 0}, "T1": {"d1": 0}}
        assert list(q) == ["T2", "T1"]

    def test_duplicate_key_in_a_topic_that_comes_back(self):
        with pytest.raises(DuplicateEntryError, match="line 3"):
            parse_qrels("T1 0 d1 1\nT2 0 d1 1\nT1 0 d1 0")


class TestParseRun:
    def test_sorts_by_rank(self):
        run = parse_run("T1 Q0 d2 2 0.5 x\nT1 Q0 d1 1 0.9 x")
        assert rows(run, "T1") == [("d1", 1), ("d2", 2)]

    def test_empty_input(self):
        assert parse_run("") == {}

    def test_duplicate_doc(self):
        with pytest.raises(DuplicateEntryError):
            parse_run("T1 Q0 d1 1 0.9 x\nT1 Q0 d1 2 0.8 x")

    def test_ranks_renumbered_densely(self):
        run = parse_run("T1 Q0 d9 10 0.1 x\nT1 Q0 d5 5 0.5 x\nT1 Q0 d2 2 0.9 x")
        assert rows(run, "T1") == [("d2", 1), ("d5", 2), ("d9", 3)]

    def test_duplicate_doc_in_a_topic_that_comes_back(self):
        text = "T1 Q0 d1 1 0.9 x\nT2 Q0 d1 1 0.9 x\nT1 Q0 d2 2 0.8 x\nT1 Q0 d1 3 0.7 x"
        with pytest.raises(DuplicateEntryError, match="line 4"):
            parse_run(text)

    def test_ranks_beyond_64_bits(self):
        big = 2 ** 64
        run = parse_run(f"T1 Q0 a {big} 1 x\nT1 Q0 b 1 2 x\nT1 Q0 c {-big} 3 x")
        assert run["T1"] == ["c", "b", "a"]

    def test_non_numeric_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_run("T1 Q0 d1 one 0.9 x")

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="score"):
            parse_run("T1 Q0 d1 1 high x")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="6 fields"):
            parse_run("T1 Q0 d1 1 0.9")

    def test_round_trip_preserves_rank_order(self):
        text = "T1 Q0 d2 2 0.5 x\nT1 Q0 d1 1 0.9 x\nT2 Q0 a 7 3.0 x\n"
        run = parse_run(text)
        dense = "".join(
            f"{topic} Q0 {d} {rank} 0 x\n"
            for topic, doc_ids in run.items()
            for rank, d in enumerate(doc_ids, start=1)
        )
        assert parse_run(dense) == run

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
        run = parse_run(text)
        assert run == {"T2": ["b2", "b3", "b1"], "T1": ["a2", "a4", "a1", "a3"]}
        assert list(run) == ["T2", "T1"]


class TestJoin:
    def test_missing_from_qrels_is_nonrelevant(self):
        run = parse_run("T1 Q0 d1 1 3 x\nT1 Q0 d2 2 2 x\nT1 Q0 d3 3 1 x")
        qrels = parse_qrels("T1 0 d1 1")
        topic = join(run, qrels, "T1")
        assert topic.labels.tolist() == [True, False, False]
        assert topic.total_relevant == 1

    def test_judged_nonrelevant(self):
        run = parse_run("T1 Q0 d1 1 3 x")
        qrels = parse_qrels("T1 0 d1 0")
        topic = join(run, qrels, "T1")
        assert topic.labels.tolist() == [False]
        assert topic.total_relevant == 0

    def test_absent_topic(self):
        run = parse_run("T1 Q0 d1 1 3 x")
        with pytest.raises(TopicNotFoundError):
            join(run, parse_qrels(""), "T9")

    def test_relevant_count_never_exceeds_n(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            lines_run = [f"T Q0 d{i} {i} {n - i} x" for i in range(1, n + 1)]
            judged = rng.random(n) < 0.7
            rels = rng.integers(0, 3, n)
            lines_q = [
                f"T 0 d{i} {rels[i - 1]}" for i in range(1, n + 1) if judged[i - 1]
            ]
            topic = join(
                parse_run("\n".join(lines_run)),
                parse_qrels("\n".join(lines_q)),
                "T",
            )
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
    ])
    def test_family_constraints_checked_at_construction(self, n, kind, params, message):
        # the same check, and message, as the rate family the labels come from
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(n=n, kind=kind, params=params, seed=1)
        assert str(err.value) == message

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


@st.composite
def _run_line(draw) -> str:
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
    topic = draw(st.sampled_from(["T1", "T2", "t3"]))
    doc = draw(st.sampled_from([f"d{i}" for i in range(16)]))
    fields = [topic, "Q0", doc, rank, score, "tag"]
    if kind == "short":
        del fields[draw(st.integers(0, 5))]
    elif kind == "long":
        fields.append("extra")
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SPACE).join(fields)


def _text_of(lines):
    return st.builds(
        lambda lines, sep, tail: sep.join(lines) + tail,
        st.lists(lines, max_size=15),
        st.sampled_from(["\n", "\r\n", "\n\n"]),
        st.sampled_from(["", "\n"]),
    )


_run_text = _text_of(_run_line())


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
    topic = draw(st.sampled_from(["T1", "T2", "t3"]))
    doc = draw(st.sampled_from([f"d{i}" for i in range(16)]))
    fields = [topic, draw(st.sampled_from(["0", "Q0"])), doc, rel]
    if kind == "short":
        del fields[draw(st.integers(0, 3))]
    elif kind == "long":
        fields.append("extra")
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SPACE).join(fields)


_qrels_text = _text_of(_qrels_line())


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


class TestParserProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_run_text)
    def test_parse_run_matches_per_line_reference(self, text):
        expected = _outcome(_reference_parse_run, text)
        if isinstance(expected, dict):
            expected = {t: [e[:2] for e in entries] for t, entries in expected.items()}
        for source in _two_ways(text):
            run = _outcome(parse_run, source)
            if isinstance(run, tuple):  # an error: type, line and message
                assert run == expected
            else:
                assert {t: rows(run, t) for t in run} == expected
                assert list(run) == list(expected)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_qrels_text)
    def test_parse_qrels_matches_per_line_reference(self, text):
        expected = _outcome(_reference_parse_qrels, text)
        for source in _two_ways(text):
            qrels = _outcome(parse_qrels, source)
            if isinstance(qrels, tuple):  # an error: type, line and message
                assert qrels == expected
            else:
                assert {
                    (t, d): rel for t, docs in qrels.items() for d, rel in docs.items()
                } == expected
                assert list(qrels) == list(dict.fromkeys(t for t, _ in expected))

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
