"""Ranking and relevance-judgment I/O plus synthetic topic generation.

File formats (TREC conventions, whitespace separated, UTF-8, one record
per line, blank and ``#``-prefixed comment lines skipped):

  qrels: ``topic iteration docid relevance``   (iteration ignored;
         graded relevance collapses to binary: value > 0 means relevant)
  run:   ``topic Q0 docid rank score tag``     (Q0 and tag ignored)

A parsed run holds each topic as two parallel columns in rank order,
doc ids and scores, so ranks are implicit and dense. Documents present
in a run but absent from the qrels are treated as non-relevant, the
standard pooling assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateEntryError,
    ParseError,
    TopicNotFoundError,
    ValidationError,
)

SYNTHETIC_KINDS = ("exponential", "hyperbolic", "power", "ap_prior", "uniform")
# Largest synthetic topic: generation peaks at about 24 bytes per document
# (23 MiB measured at n = 1,000,000), so about 0.25 GiB at this size.
MAX_SYNTHETIC_N = 10_000_000


@dataclass(frozen=True)
class Qrels:
    """Binary relevance judgments keyed by (topic_id, doc_id)."""

    entries: dict[tuple[str, str], int]

    def relevance(self, topic_id: str, doc_id: str) -> int:
        """Judgment for one document; unjudged documents are 0."""
        return self.entries.get((topic_id, doc_id), 0)

    def topic_ids(self) -> list[str]:
        return sorted({t for t, _ in self.entries})


class RunColumns(NamedTuple):
    """One topic's ranking in rank order: ``doc_ids[r-1]`` and
    ``scores[r-1]`` are the document and score at dense rank r."""

    doc_ids: list[str]
    scores: list[float]


@dataclass(frozen=True)
class RunRanking:
    """Per-topic document rankings with dense ranks 1..m."""

    topics: dict[str, RunColumns]

    def topic_ids(self) -> list[str]:
        return sorted(self.topics)


@dataclass(frozen=True)
class RankedTopic:
    """One topic's ranking joined with binary labels, indexed by rank.

    The topic also caches the rate curves fitted to its screened prefixes
    (see ``stopping.run_stopping``), so every run over it fits each
    checkpoint once.
    """

    topic_id: str
    labels: np.ndarray  # bool, shape (n,); labels[r-1] is the label at rank r
    # (rate kind, window size, checkpoint) -> fitted curve, or the error raised
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=bool).copy()
        labels.flags.writeable = False  # the cached fits assume fixed labels
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size < 1:
            raise ValidationError(
                f"topic {self.topic_id!r}: labels must be a non-empty 1-d sequence"
            )

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def total_relevant(self) -> int:
        return int(self.labels.sum())

    def relevant_in_prefix(self, k: int) -> int:
        """Count of relevant documents at ranks 1..k."""
        return int(self.labels[:k].sum())


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic topic.

    ``kind`` selects the shape of the relevance probability over ranks;
    ``params`` supplies its a/b/c values (``uniform`` uses only ``a``,
    ``ap_prior`` uses ``a`` with the normalizer taken over ``n``).
    ``noise`` flips each label independently with the given probability.
    ``n`` must lie in [1, MAX_SYNTHETIC_N].
    """

    n: int
    kind: str
    params: dict[str, float]
    seed: int
    noise: float = 0.0
    topic_id: str = ""

    def __post_init__(self):
        if not 1 <= self.n <= MAX_SYNTHETIC_N:
            raise ValidationError(
                f"synthetic n must be in [1, {MAX_SYNTHETIC_N}], got {self.n}"
            )
        if self.kind not in SYNTHETIC_KINDS:
            raise ValidationError(
                f"unknown synthetic kind {self.kind!r}; expected one of {SYNTHETIC_KINDS}"
            )
        if self.seed < 0:
            raise ValidationError(f"synthetic seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise < 0.5:
            raise ValidationError(f"noise must be in [0, 0.5), got {self.noise}")
        a = self.params.get("a")
        if a is None or a < 0:
            raise ValidationError(f"synthetic params require a >= 0, got {a}")
        if self.kind == "hyperbolic":
            b, c = self.params.get("b"), self.params.get("c")
            if b is None or not 0.0 <= b <= 1.0:
                raise ValidationError(f"hyperbolic b must be in [0, 1], got {b}")
            if c is None or c <= 0:
                raise ValidationError(f"hyperbolic c must be > 0, got {c}")
        elif self.kind in ("exponential", "power"):
            if self.params.get("b") is None:
                raise ValidationError(f"{self.kind} synthetic params require b")


def parse_qrels(text: str) -> Qrels:
    """Parse qrels text into binary judgments.

    Raises ParseError for malformed lines (naming the line number) and
    DuplicateEntryError for repeated (topic, doc) keys.
    """
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
    return Qrels(entries)


def parse_run(text: str) -> RunRanking:
    """Parse a TREC run file; ranks are renumbered densely per topic.

    Lines of a topic are ordered by their rank field; lines with equal
    ranks keep their file order.
    """
    # topic -> (doc ids, ranks, scores, doc ids seen), in file order
    by_topic: dict[str, tuple[list[str], list[int], list[float], set[str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
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
        if topic != current:  # runs list a topic's lines together
            current = topic
            doc_ids, ranks, scores, seen = by_topic.setdefault(
                topic, ([], [], [], set())
            )
        if doc_id in seen:
            raise DuplicateEntryError(
                f"doc {doc_id!r} listed twice for topic {topic!r}", lineno
            )
        seen.add(doc_id)
        doc_ids.append(doc_id)
        ranks.append(rank)
        scores.append(score)

    topics: dict[str, RunColumns] = {}
    for topic, (doc_ids, ranks, scores, _seen) in by_topic.items():
        order = sorted(range(len(ranks)), key=ranks.__getitem__)  # stable on ties
        topics[topic] = RunColumns(
            [doc_ids[i] for i in order], [scores[i] for i in order]
        )
    return RunRanking(topics)


def format_run(run: RunRanking, tag: str = "tarstop") -> str:
    """Serialize a RunRanking back to TREC run text (round-trips rank order)."""
    lines = []
    for topic in run.topic_ids():
        doc_ids, scores = run.topics[topic]
        for rank, (doc_id, score) in enumerate(zip(doc_ids, scores), start=1):
            lines.append(f"{topic} Q0 {doc_id} {rank} {score} {tag}")
    return "\n".join(lines) + ("\n" if lines else "")


def join(run: RunRanking, qrels: Qrels, topic_id: str) -> RankedTopic:
    """Label one topic's ranking using the qrels."""
    if topic_id not in run.topics:
        raise TopicNotFoundError(f"topic {topic_id!r} not present in run")
    doc_ids = run.topics[topic_id].doc_ids
    entries = qrels.entries
    labels = np.fromiter(
        (entries.get((topic_id, d), 0) > 0 for d in doc_ids),
        dtype=bool,
        count=len(doc_ids),
    )
    return RankedTopic(topic_id, labels)


def join_all(run: RunRanking, qrels: Qrels) -> list[RankedTopic]:
    """Join every topic in the run, sorted by topic id."""
    return [join(run, qrels, t) for t in run.topic_ids()]


def _synthetic_probabilities(spec: SyntheticSpec) -> np.ndarray:
    # Imported here to avoid a cycle: rates also raises ValidationError.
    from .rates import RateKind, RateParams, rate_value

    x = np.arange(1, spec.n + 1, dtype=float)
    if spec.kind == "uniform":
        lam = np.full(spec.n, spec.params["a"], dtype=float)
    else:
        kind = {
            "exponential": RateKind.EXPONENTIAL,
            "hyperbolic": RateKind.HYPERBOLIC,
            "power": RateKind.POWER_LAW,
            "ap_prior": RateKind.AP_PRIOR,
        }[spec.kind]
        params = RateParams(
            kind,
            a=spec.params["a"],
            b=spec.params.get("b"),
            c=spec.params.get("c"),
            n_total=spec.n if kind is RateKind.AP_PRIOR else None,
        )
        lam = rate_value(params, x)
    return np.clip(lam, 0.0, 1.0)


def generate_synthetic(spec: SyntheticSpec) -> RankedTopic:
    """Draw a labelled topic whose relevance follows the spec's rate shape.

    Labels at rank x are independent Bernoulli(min(1, rate(x))) draws,
    then flipped with probability ``noise``. The Philox counter-based
    generator makes output identical for identical (spec, seed) across
    platforms and thread counts.
    """
    probs = _synthetic_probabilities(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    labels = rng.random(spec.n) < probs
    if spec.noise > 0.0:
        flips = rng.random(spec.n) < spec.noise
        labels = labels ^ flips
    topic_id = spec.topic_id or f"synthetic-{spec.kind}-{spec.seed}"
    return RankedTopic(topic_id, labels)
