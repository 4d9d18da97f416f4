"""Ranking and relevance-judgment I/O plus synthetic topic generation.

File formats (TREC conventions, whitespace separated, UTF-8, one record
per line, blank and ``#``-prefixed comment lines skipped):

  qrels: ``topic iteration docid relevance``   (iteration ignored;
         graded relevance collapses to binary: value > 0 means relevant)
  run:   ``topic Q0 docid rank score tag``     (Q0 and tag ignored; the
         score is checked to be numeric but not kept)

Both parsers take the whole text or any iterable of its lines (for
example a file read lazily), so a caller need not hold the text at all.
A parsed run maps each topic to its doc ids in rank order, so ranks are
implicit and dense. Parsed qrels map each topic to a ``{doc_id: 0|1}``
dict. Documents present in a run but absent from the qrels are treated
as non-relevant, the standard pooling assumption.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import le

import numpy as np

from .errors import (
    DuplicateEntryError,
    ParseError,
    TopicNotFoundError,
    ValidationError,
)
from .rates import RateKind, RateParams, rate_value

SYNTHETIC_KINDS = (*(kind.value for kind in RateKind), "uniform")
# Largest synthetic topic: generation peaks at about 24 bytes per document
# (23 MiB measured at n = 1,000,000), so about 0.25 GiB at this size.
MAX_SYNTHETIC_N = 10_000_000


@dataclass(frozen=True, eq=False)
class RankedTopic:
    """One topic's ranking joined with binary labels, indexed by rank.

    The topic also caches the rate curves fitted to its screened prefixes
    (see ``stopping.run_stopping``), so every run over it fits each
    checkpoint once. Since each topic owns its cache, topics compare and
    hash by identity: two topics with equal labels are distinct.
    """

    topic_id: str
    labels: np.ndarray  # bool, shape (n,); labels[r-1] is the label at rank r
    # (rate kind, window size, checkpoint) -> fitted curve, or the error raised
    _fits: dict = field(default_factory=dict, init=False, repr=False)

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
    ``ap_prior`` uses ``a`` with the normalizer taken over ``n``); the
    other kinds are the ``rates.RateKind`` families, whose constraints
    ``rates.RateParams`` checks on construction.
    ``noise`` flips each label independently with the given probability.
    ``n`` must lie in [1, MAX_SYNTHETIC_N].
    """

    n: int
    kind: str
    params: dict[str, float]
    seed: int
    noise: float = 0.0
    topic_id: str = ""
    # the curve labels are drawn from; None for ``uniform``
    _rate: RateParams | None = field(default=None, init=False, repr=False, compare=False)

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
        if self.kind != "uniform":
            kind = RateKind(self.kind)
            rate = RateParams(
                kind,
                a=a,
                b=self.params.get("b"),
                c=self.params.get("c"),
                n_total=self.n if kind is RateKind.AP_PRIOR else None,
            )
            object.__setattr__(self, "_rate", rate)


def _lines(source: str | Iterable[str]) -> Iterable[str]:
    return source.splitlines() if isinstance(source, str) else source


def parse_qrels(source: str | Iterable[str]) -> dict[str, dict[str, int]]:
    """Parse qrels, given as text or as its lines, into binary judgments
    ``{topic_id: {doc_id: 0|1}}``.

    Raises ParseError for malformed lines (naming the line number) and
    DuplicateEntryError for repeated (topic, doc) keys.
    """
    judged: dict[str, dict[str, int]] = {}
    current = None
    for lineno, raw in enumerate(_lines(source), start=1):
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
        if topic != current:  # qrels list a topic's lines together
            current = topic
            docs = judged.setdefault(topic, {})
        if doc_id in docs:
            raise DuplicateEntryError(
                f"duplicate qrels entry for {(topic, doc_id)}", lineno
            )
        docs[doc_id] = 1 if rel > 0 else 0
    return judged


def parse_run(source: str | Iterable[str]) -> dict[str, list[str]]:
    """Parse a TREC run, given as text or as its lines, into each topic's
    doc ids in rank order: ``run[topic_id][r - 1]`` is the document at
    dense rank r.

    Lines of a topic are ordered by their rank field; lines with equal
    ranks keep their file order.
    """
    from array import array  # loaded by the commands that parse a run only

    # topic -> (doc ids, ranks), in file order; ranks are 64-bit machine
    # integers unless a topic has one beyond that range
    by_topic: dict[str, tuple] = {}
    # Doc ids seen, kept for the current topic's block only, and for the
    # topics whose lines come back after another topic's.
    revisited: dict[str, set[str]] = {}
    current = None
    for lineno, raw in enumerate(_lines(source), start=1):
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
            float(score_str)
        except ValueError:
            raise ParseError(f"score {score_str!r} is not numeric", lineno) from None
        if topic != current:  # runs list a topic's lines together
            current = topic
            if topic not in by_topic:
                by_topic[topic] = ([], array("q"))
                seen = set()
            elif topic in revisited:
                seen = revisited[topic]
            else:
                seen = revisited[topic] = set(by_topic[topic][0])
            doc_ids, ranks = by_topic[topic]
        if doc_id in seen:
            raise DuplicateEntryError(
                f"doc {doc_id!r} listed twice for topic {topic!r}", lineno
            )
        seen.add(doc_id)
        doc_ids.append(doc_id)
        try:
            ranks.append(rank)
        except OverflowError:
            ranks = [*ranks, rank]
            by_topic[topic] = (doc_ids, ranks)

    run: dict[str, list[str]] = {}
    for topic, (doc_ids, ranks) in by_topic.items():
        if not all(map(le, ranks, islice(ranks, 1, None))):
            order = sorted(range(len(ranks)), key=ranks.__getitem__)  # stable on ties
            doc_ids = [doc_ids[i] for i in order]
        run[topic] = doc_ids
    return run


def join(
    run: dict[str, list[str]], qrels: dict[str, dict[str, int]], topic_id: str
) -> RankedTopic:
    """Label one topic's ranking using the qrels."""
    if topic_id not in run:
        raise TopicNotFoundError(f"topic {topic_id!r} not present in run")
    doc_ids = run[topic_id]
    judged = qrels.get(topic_id, {})
    labels = np.fromiter(
        map(judged.get, doc_ids, repeat(0)), dtype=bool, count=len(doc_ids)
    )
    return RankedTopic(topic_id, labels)


def join_all(
    run: dict[str, list[str]], qrels: dict[str, dict[str, int]]
) -> list[RankedTopic]:
    """Join every topic in the run, sorted by topic id."""
    return [join(run, qrels, t) for t in sorted(run)]


def generate_synthetic(spec: SyntheticSpec) -> RankedTopic:
    """Draw a labelled topic whose relevance follows the spec's rate shape.

    Labels at rank x are independent Bernoulli(min(1, rate(x))) draws,
    then flipped with probability ``noise``. The Philox counter-based
    generator makes output identical for identical (spec, seed) across
    platforms and thread counts.
    """
    if spec._rate is None:
        lam = np.full(spec.n, spec.params["a"], dtype=float)
    else:
        lam = rate_value(spec._rate, np.arange(1, spec.n + 1, dtype=float))
    probs = np.clip(lam, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    labels = rng.random(spec.n) < probs
    if spec.noise > 0.0:
        flips = rng.random(spec.n) < spec.noise
        labels = labels ^ flips
    topic_id = spec.topic_id or f"synthetic-{spec.kind}-{spec.seed}"
    return RankedTopic(topic_id, labels)
